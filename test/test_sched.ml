(* Kernel VPE scheduler: correctness gates for suspend/resume.

   - round trip: a stateful child suspended and resumed mid-protocol
     produces the exact reply bytes and exit code of an uninterrupted
     run — migration is invisible except as latency;
   - determinism: two identical suspended runs are byte-identical at
     the event-log level (the repo's established seeded-log style);
   - zero cost when off: merely constructing scheduler values costs
     zero simulated cycles (a scheduler-less run is byte-identical
     whether or not host code builds a [Sched.t] on the side), and a
     kernel booted WITH a scheduler that no one uses changes no
     behavior — same replies, same exit, zero captures and restores
     (counted as [vpe.suspend] and [vpe.resume] events in the run's
     event log), and a kernel WITHOUT one refuses the scheduler's
     queries at once;
   - reclamation: suspend/resume leaks no capabilities or endpoint
     bookkeeping, and a crash-abort of a VPE parked off its PE still
     tears everything down;
   - isolation: a VPE suspended inside a timed receive resumes that
     wait on its new PE, never on the endpoints of the VPE placed on
     the old one. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Endpoint = M3_dtu.Endpoint
module Obs = M3_obs.Obs
module Bootstrap = M3.Bootstrap
module Kernel = M3.Kernel
module Kdata = M3.Kdata
module Gate = M3.Gate
module Syscalls = M3.Syscalls
module Vpe_api = M3.Vpe_api
module Errno = M3.Errno
module Event = M3_obs.Event
module Sched = M3_sched.Sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let ok = Errno.ok_exn

(* --- the scenario ------------------------------------------------------ *)

(* A child that folds every request byte into an accumulator and
   replies with the running value: any lost, duplicated or corrupted
   state across a migration changes every subsequent reply. *)

let child_sel = 3000
let rounds = 16
let sentinel = 255

let child_body (cenv : M3.Env.t) =
  let rgate = ok (Gate.create_recv cenv ~slot_order:6 ~slot_count:8) in
  let _pub =
    ok
      (Gate.create_send ~sel:child_sel cenv rgate ~label:7L
         ~credits:(Endpoint.Credits 2))
  in
  let acc = ref 1 in
  let rec loop () =
    let msg = Gate.recv cenv rgate in
    let x = Bytes.get_uint8 msg.Endpoint.payload 0 in
    if x = sentinel then begin
      ignore (Gate.reply cenv rgate ~slot:msg.Endpoint.slot (Bytes.create 1));
      !acc land 0x3f
    end
    else begin
      acc := ((!acc * 31) + x) land 0xffffff;
      let b = Bytes.create 3 in
      Bytes.set_uint8 b 0 (!acc land 0xff);
      Bytes.set_uint8 b 1 ((!acc lsr 8) land 0xff);
      Bytes.set_uint8 b 2 ((!acc lsr 16) land 0xff);
      ok (Gate.reply cenv rgate ~slot:msg.Endpoint.slot b);
      loop ()
    end
  in
  loop ()

type outcome = {
  o_replies : string;  (** hex of every reply payload, in order *)
  o_exit : int;
  o_log : string;  (** the full event log *)
  o_mem : Obs.Memory.mem;  (** the log itself, for [golden] *)
  o_final : int;  (** final engine cycle *)
  o_suspends : int;  (** [vpe.suspend] events in the log *)
  o_resumes : int;  (** [vpe.resume] events *)
  o_child_caps : int;  (** child capabilities left after its exit *)
  o_child_eps : int;  (** child endpoint bookkeeping left after exit *)
  o_parked_mid : int;  (** [suspended_count] observed while parked *)
  o_susp_after : int;  (** [suspended_count] once everyone exited *)
  o_free_pes : int;  (** free PEs once everyone exited *)
}

(* [logged_system ?faults ~with_sched ()] boots a file-system-less
   system with an [Obs.Memory] log attached before boot; [golden] pins
   the logs of the scenarios below. *)
let logged_system ?faults ~with_sched () =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  (engine, mem, Bootstrap.start ~no_fs:true ~obs ?faults ~sched:with_sched engine)

(* [count name mem] is the number of events called [name] in [mem]. *)
let count name mem =
  List.length
    (List.filter (fun (_, ev) -> Event.name ev = name) (Obs.Memory.events mem))

(* [run_scenario ~with_sched ~suspend_mid ()] drives the child through
   [rounds] request/reply rounds; with [suspend_mid] it parks the
   child off its PE after half of them and resumes it before going
   on. *)
let run_scenario ~with_sched ~suspend_mid () =
  let engine, mem, sys = logged_system ~with_sched () in
  let k = sys.Bootstrap.kernel in
  let buf = Buffer.create 128 in
  let parked_mid = ref (-1) in
  let child_exit = ref min_int in
  let child_caps = ref (-1) and child_eps = ref (-1) in
  let exit =
    Bootstrap.launch sys ~name:"parent" (fun env ->
        let child =
          ok
            (Vpe_api.create env ~name:"child"
               ~core:M3_hw.Core_type.General_purpose)
        in
        ok (Vpe_api.run env child child_body);
        let sel = M3.Env.alloc_sel env in
        ok
          (Syscalls.obtain_published env ~vpe_sel:child.Vpe_api.vpe_sel ~own_sel:sel
             ~other_sel:child_sel);
        let sg = Gate.send_gate_of_sel sel in
        let rg = ok (Gate.create_recv env ~slot_order:6 ~slot_count:8) in
        let round x =
          let b = Bytes.create 1 in
          Bytes.set_uint8 b 0 x;
          ok (Gate.send env sg b ~reply:(rg, 9L) ());
          let reply = Gate.recv env rg in
          Bytes.iter
            (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
            reply.Endpoint.payload;
          Gate.ack env rg ~slot:reply.Endpoint.slot
        in
        for i = 1 to rounds / 2 do
          round i
        done;
        if suspend_mid then begin
          ok (Vpe_api.suspend env child);
          ok (Vpe_api.await_parked env child);
          parked_mid := Kernel.suspended_count k;
          ok (Vpe_api.resume env child)
        end;
        for i = (rounds / 2) + 1 to rounds do
          round i
        done;
        round sentinel;
        child_exit := ok (Vpe_api.wait env child);
        (match Kernel.find_vpe k ~vpe_id:child.Vpe_api.vpe_id with
        | Some v ->
          child_caps := Kdata.count_caps v;
          child_eps := Kernel.ep_entries k ~vpe_id:child.Vpe_api.vpe_id
        | None -> ());
        0)
  in
  let final = Engine.run engine in
  Bootstrap.expect_exit sys exit;
  ignore (Process.Ivar.peek exit);
  {
    o_replies = Buffer.contents buf;
    o_exit = !child_exit;
    o_log = Obs.Memory.to_string mem;
    o_mem = mem;
    o_final = final;
    o_suspends = count "vpe.suspend" mem;
    o_resumes = count "vpe.resume" mem;
    o_child_caps = !child_caps;
    o_child_eps = !child_eps;
    o_parked_mid = !parked_mid;
    o_susp_after = Kernel.suspended_count k;
    o_free_pes = Kernel.free_pes k;
  }

(* --- round trip -------------------------------------------------------- *)

let test_round_trip_is_bit_identical () =
  let plain = run_scenario ~with_sched:true ~suspend_mid:false () in
  let susp = run_scenario ~with_sched:true ~suspend_mid:true () in
  check_bool "replies not empty" true (String.length plain.o_replies > 0);
  check_string "identical reply bytes across the migration" plain.o_replies
    susp.o_replies;
  check_int "identical exit code" plain.o_exit susp.o_exit;
  check_int "one capture" 1 susp.o_suspends;
  check_int "one restore" 1 susp.o_resumes;
  check_int "child was parked off its PE" 1 susp.o_parked_mid

let test_suspended_run_is_deterministic () =
  let a = run_scenario ~with_sched:true ~suspend_mid:true () in
  let b = run_scenario ~with_sched:true ~suspend_mid:true () in
  check_bool "log not empty" true (String.length a.o_log > 0);
  check_string "byte-identical event logs" a.o_log b.o_log;
  check_int "identical final cycle" a.o_final b.o_final

(* --- zero cost when off ------------------------------------------------ *)

(* The strong half: a scheduler-less run must be byte-identical to
   today's logs — holding scheduler values host-side must not perturb
   the simulation at all. *)
let test_no_scheduler_is_byte_identical () =
  let plain = run_scenario ~with_sched:false ~suspend_mid:false () in
  (* Same run, but with a scheduler constructed and poked on the host
     side — never handed to the kernel. *)
  let s = Sched.create () in
  ignore (Sched.suspend s ~vpe:1);
  check_int "fresh scheduler counted nothing" 0 plain.o_suspends;
  let with_values = run_scenario ~with_sched:false ~suspend_mid:false () in
  check_bool "log not empty" true (String.length plain.o_log > 0);
  check_string "byte-identical event logs" plain.o_log with_values.o_log;
  check_int "identical final cycle" plain.o_final with_values.o_final

(* The behavioral half: a kernel booted with a scheduler that nobody
   asks to suspend anything must not schedule — same replies, same
   exit, zero captures, zero restores. (The logs are allowed to
   differ: placement defensively wipes the DTU suspended flag when a
   scheduler is attached, which is itself a visible ext command.) *)
let test_unused_scheduler_changes_nothing () =
  let off = run_scenario ~with_sched:false ~suspend_mid:false () in
  let on_ = run_scenario ~with_sched:true ~suspend_mid:false () in
  check_string "identical replies" off.o_replies on_.o_replies;
  check_int "identical exit code" off.o_exit on_.o_exit;
  check_int "zero captures" 0 on_.o_suspends;
  check_int "zero restores" 0 on_.o_resumes

(* Without a scheduler nothing is ever parked: [await_parked] must
   answer [E_inv_args] at once, as [suspend] and [resume] do, instead
   of polling until the child dies. *)
let test_await_parked_without_scheduler () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let answer = ref (Ok ()) and took = ref (-1) in
  let exit =
    Bootstrap.launch sys ~name:"parent" (fun env ->
        let child =
          ok
            (Vpe_api.create env ~name:"sleeper"
               ~core:M3_hw.Core_type.General_purpose)
        in
        ok
          (Vpe_api.run env child (fun _ ->
               Process.wait 200_000;
               0));
        let t0 = Engine.now engine in
        answer := Vpe_api.await_parked env child;
        took := Engine.now engine - t0;
        ignore (Vpe_api.wait env child);
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  check_bool "await_parked answers E_inv_args" true
    (!answer = Error Errno.E_inv_args);
  check_bool
    (Printf.sprintf "within 1,000 cycles (took %d)" !took)
    true
    (!took >= 0 && !took < 1_000)

(* --- reclamation ------------------------------------------------------- *)

let test_suspend_resume_leaks_nothing () =
  let plain = run_scenario ~with_sched:true ~suspend_mid:false () in
  let susp = run_scenario ~with_sched:true ~suspend_mid:true () in
  check_int "no capability survived the child" 0 susp.o_child_caps;
  check_int "no endpoint binding survived the child" 0 susp.o_child_eps;
  check_int "no parked image survived" 0 susp.o_susp_after;
  check_int "free PEs match the uninterrupted run" plain.o_free_pes
    susp.o_free_pes

(* Crash-abort of a VPE that is parked off its PE: the kernel holds
   its only copy (image + stashed memory caps); the abort must discard
   all of it and release everything the VPE owned. *)
let abort_parked () =
  let engine, mem, sys = logged_system ~with_sched:true () in
  let k = sys.Bootstrap.kernel in
  let child_id = ref (-1) in
  let waited = ref None in
  let exit =
    Bootstrap.launch sys ~name:"parent" (fun env ->
        let child =
          ok
            (Vpe_api.create env ~name:"victim"
               ~core:M3_hw.Core_type.General_purpose)
        in
        child_id := child.Vpe_api.vpe_id;
        ok (Vpe_api.run env child child_body);
        let sel = M3.Env.alloc_sel env in
        ok
          (Syscalls.obtain_published env ~vpe_sel:child.Vpe_api.vpe_sel ~own_sel:sel
             ~other_sel:child_sel);
        ok (Vpe_api.suspend env child);
        ok (Vpe_api.await_parked env child);
        check_int "image parked" 1 (Kernel.suspended_count k);
        let v = Option.get (Kernel.find_vpe k ~vpe_id:child.Vpe_api.vpe_id) in
        Kernel.abort k v ~reason:"test";
        waited := Some (Vpe_api.wait env child);
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  (k, !child_id, !waited, mem)

let test_abort_of_suspended_vpe () =
  let k, child_id, waited, _ = abort_parked () in
  (match waited with
  | Some (Error Errno.E_vpe_dead) -> ()
  | Some (Ok code) ->
    check_int "abort exit code surfaced" Kernel.abort_exit_code code
  | Some (Error e) ->
    Alcotest.failf "unexpected wait result: %s" (Errno.to_string e)
  | None -> Alcotest.fail "parent never waited");
  check_int "no parked image survived the abort" 0 (Kernel.suspended_count k);
  let v = Option.get (Kernel.find_vpe k ~vpe_id:child_id) in
  check_bool "victim is dead" true (v.Kdata.v_state = Kdata.V_dead);
  check_int "no capability survived" 0 (Kdata.count_caps v);
  check_int "no endpoint binding survived" 0
    (Kernel.ep_entries k ~vpe_id:child_id)

(* --- isolation across a migration mid-wait ----------------------------- *)

(* A VPE suspended inside a timed receive must resume that wait on the
   PE it migrated to. Under a quiet fault plan every client wait is
   timed. Child C blocks on its gate; the parent parks C off its PE,
   places VPE B on the freed PE and resumes C elsewhere. A wait that
   went back to the PE it left would read B's endpoints: with [b_gate]
   B creates a receive gate on the very endpoint C's gate had, and C
   would take B's message as its own; without it C would park on the
   old PE and sleep through its own message into the watchdog.
   Exit codes: C returns the byte it received (1 on timeout), B the
   byte its ring holds (0 when empty). *)

let b_sel = 3001

let isolation ~b_gate () =
  let quiet = M3_fault.Plan.create ~seed:5 () in
  let engine, mem, sys = logged_system ~faults:quiet ~with_sched:true () in
  let k = sys.Bootstrap.kernel in
  let recv_gate cenv ~sel =
    let rg = ok (Gate.create_recv cenv ~slot_order:6 ~slot_count:8) in
    ignore
      (ok (Gate.create_send ~sel cenv rg ~label:0L ~credits:(Endpoint.Credits 2)));
    rg
  in
  let c_body (cenv : M3.Env.t) =
    let rg = recv_gate cenv ~sel:child_sel in
    match Gate.recv ?deadline:(M3.Env.watchdog cenv.fabric) cenv rg with
    | msg -> Bytes.get_uint8 msg.Endpoint.payload 0
    | exception Errno.Error Errno.E_timeout -> 1
  in
  (* B holds the PE for up to a million cycles, polling its ring. *)
  let b_body (cenv : M3.Env.t) =
    let rg = if b_gate then Some (recv_gate cenv ~sel:b_sel) else None in
    let rec poll n =
      match Option.bind rg (Gate.fetch cenv) with
      | Some msg -> Bytes.get_uint8 msg.Endpoint.payload 0
      | None when n > 0 ->
        Process.wait 1_000;
        poll (n - 1)
      | None -> 0
    in
    poll 1_000
  in
  let pes = ref (-1, -1, -1) in
  let exits = ref (-1, -1) in
  let exit =
    Bootstrap.launch sys ~name:"parent" (fun env ->
        let gp = M3_hw.Core_type.General_purpose in
        let send_byte child ~other_sel c =
          let sel = M3.Env.alloc_sel env in
          ok
            (Syscalls.obtain_published env ~vpe_sel:child.Vpe_api.vpe_sel
               ~own_sel:sel ~other_sel);
          fun () -> ok (Gate.send env (Gate.send_gate_of_sel sel) (Bytes.make 1 c) ())
        in
        let c = ok (Vpe_api.create env ~name:"C" ~core:gp) in
        ok (Vpe_api.run env c c_body);
        let send_c = send_byte c ~other_sel:child_sel 'C' in
        ok (Vpe_api.suspend env c);
        ok (Vpe_api.await_parked env c);
        let b = ok (Vpe_api.create env ~name:"B" ~core:gp) in
        ok (Vpe_api.run env b b_body);
        let send_b = if b_gate then send_byte b ~other_sel:b_sel 'B' else ignore in
        ok (Vpe_api.resume env c);
        send_b ();
        send_c ();
        let v = Option.get (Kernel.find_vpe k ~vpe_id:c.Vpe_api.vpe_id) in
        pes := (c.Vpe_api.pe_id, b.Vpe_api.pe_id, v.Kdata.v_pe);
        let c_exit = ok (Vpe_api.wait env c) in
        exits := (c_exit, ok (Vpe_api.wait env b));
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  let c_first, b_pe, c_then = !pes in
  check_int "B took C's freed PE" c_first b_pe;
  check_bool "C resumed on another PE" true (c_then >= 0 && c_then <> c_first);
  (!exits, mem)

let test_migrated_wait_keeps_to_its_pe () =
  let (c_exit, b_exit), _ = isolation ~b_gate:true () in
  check_int "C received 'C'" (Char.code 'C') c_exit;
  check_int "B's ring still holds 'B'" (Char.code 'B') b_exit;
  let (c_exit, _), _ = isolation ~b_gate:false () in
  check_int "C received 'C' before its watchdog" (Char.code 'C') c_exit

(* --- activation towards a parked VPE ------------------------------------ *)

(* A send gate activated while its destination is parked off its PE:
   the kernel parks the sender's endpoint instead of aiming it at a PE
   the destination no longer holds ([h_activate]), and the resume
   rebinds it. Child C publishes a gate and is parked; B takes C's old
   PE; S, holding C's gate but never having used it, sends one byte,
   which activates the gate; then C is resumed. The byte must reach C
   exactly once, on the PE C was resumed on, and S's send must return
   only after the resume. *)

let s_sel = 3002

let send_to_parked () =
  let engine, _, sys = logged_system ~with_sched:true () in
  let k = sys.Bootstrap.kernel in
  let received = ref [] and sent = ref (-1) and placed = ref (-1, -1, -1) in
  let c_body (cenv : M3.Env.t) =
    let rg = ok (Gate.create_recv cenv ~slot_order:6 ~slot_count:8) in
    ignore
      (ok
         (Gate.create_send ~sel:child_sel cenv rg ~label:0L
            ~credits:(Endpoint.Credits 2)));
    let note (msg : Endpoint.message) =
      received :=
        (M3_hw.Pe.id cenv.pe, Bytes.get_uint8 msg.payload 0) :: !received;
      Gate.ack cenv rg ~slot:msg.slot
    in
    note (Gate.recv cenv rg);
    (* Anything arriving in the next 100k cycles is a duplicate. *)
    for _ = 1 to 100 do
      Option.iter note (Gate.fetch cenv rg);
      Process.wait 1_000
    done;
    0
  in
  let s_body (senv : M3.Env.t) =
    ok (Gate.send senv (Gate.send_gate_of_sel s_sel) (Bytes.make 1 'P') ());
    sent := Engine.now engine;
    0
  in
  let exit =
    Bootstrap.launch sys ~name:"parent" (fun env ->
        let gp = M3_hw.Core_type.General_purpose in
        let c = ok (Vpe_api.create env ~name:"C" ~core:gp) in
        ok (Vpe_api.run env c c_body);
        let sel = M3.Env.alloc_sel env in
        ok
          (Syscalls.obtain_published env ~vpe_sel:c.Vpe_api.vpe_sel ~own_sel:sel
             ~other_sel:child_sel);
        let s = ok (Vpe_api.create env ~name:"S" ~core:gp) in
        ok (Vpe_api.delegate env s ~own_sel:sel ~other_sel:s_sel);
        ok (Vpe_api.suspend env c);
        ok (Vpe_api.await_parked env c);
        let b = ok (Vpe_api.create env ~name:"B" ~core:gp) in
        ok
          (Vpe_api.run env b (fun _ ->
               Process.wait 300_000;
               0));
        ok (Vpe_api.run env s s_body);
        (* S activates its gate and blocks on the parked endpoint. *)
        Process.wait 50_000;
        let resumed_at = Engine.now engine in
        ok (Vpe_api.resume env c);
        let exits = List.map (fun v -> ok (Vpe_api.wait env v)) [ c; s; b ] in
        let v = Option.get (Kernel.find_vpe k ~vpe_id:c.Vpe_api.vpe_id) in
        placed := (c.Vpe_api.pe_id, v.Kdata.v_pe, resumed_at);
        List.fold_left ( + ) 0 exits)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  let c_first, c_then, resumed_at = !placed in
  check_bool "C resumed on another PE" true (c_then >= 0 && c_then <> c_first);
  (match !received with
  | [ (pe, byte) ] ->
    check_int "the byte arrived on C's new PE" c_then pe;
    check_int "the byte is S's" (Char.code 'P') byte
  | l -> Alcotest.failf "C received %d messages, not one" (List.length l));
  check_bool "S's send was held until the resume" true (!sent > resumed_at)

(* --- the state machine, without a simulation ---------------------------- *)

(* The kernel's inputs to one VPE's scheduling state, applied as its
   syscall handlers and sweep apply them. [Quiesce] starts the
   blocking capture of a suspending VPE and [Capture] ends it; while a
   capture is in flight the sweep does nothing else, so only a kill can
   come in between. [Place] pops the next queued VPE onto a PE that
   came free. *)
type input =
  | Suspend of int
  | Resume of int
  | Quiesce of int
  | Capture of int * bool (* the capture succeeds, or fails *)
  | Place
  | Kill of int

let show = function
  | Suspend v -> Printf.sprintf "suspend %d" v
  | Resume v -> Printf.sprintf "resume %d" v
  | Quiesce v -> Printf.sprintf "quiesce %d" v
  | Capture (v, ok) -> Printf.sprintf "capture %d %s" v (if ok then "ok" else "failed")
  | Place -> "place"
  | Kill v -> Printf.sprintf "kill %d" v

let gp = M3_hw.Core_type.General_purpose
let cores = M3_hw.Core_type.[ General_purpose; Fft_accelerator ]

(* What the test knows without asking [Sched]: the dead VPEs, the
   suspensions it started and the resumes that overtook them, the
   capture in flight, and the images it handed over and has not got
   back. An image is its VPE's id times 1000 plus a serial. *)
type model = {
  sched : int Sched.t;
  vpes : int list;
  mutable dead : int list;
  mutable suspending : int list;
  mutable overtaken : int list;
  mutable capturing : int option;
  mutable live : int list;
  mutable serial : int;
}

let owner img = img / 1000
let remove x l = List.filter (( <> ) x) l

let fail path fmt =
  Printf.ksprintf
    (fun msg ->
      Alcotest.failf "%s, after: %s" msg (String.concat "; " (List.map show path)))
    fmt

(* The checks after every step: each VPE is in exactly one state (a
   queued one in exactly one run queue, any other in none; suspending
   exactly when the test started a suspension), a dead VPE has no
   state, queue entry or image left, and every image handed over is
   held exactly once, parked or queued. *)
let check m path =
  let queued =
    List.concat_map
      (fun core -> List.map (fun e -> (core, e)) (Sched.queue m.sched ~core))
      cores
  in
  List.iter
    (fun v ->
      let state = Sched.state m.sched ~vpe:v in
      let entries = List.filter (fun (_, (w, _)) -> w = v) queued in
      (match (state, entries) with
      | Sched.Queued core, [ (c, _) ] when c = core -> ()
      | Sched.Queued _, l ->
        fail path "vpe%d is queued, but in %d run queues" v (List.length l)
      | _, [] -> ()
      | _, _ :: _ -> fail path "vpe%d is in a run queue, but not queued" v);
      let suspending =
        match state with Sched.Suspending _ -> true | _ -> false
      in
      if suspending <> List.mem v m.suspending then
        fail path "vpe%d suspending is %b, the test's view %b" v suspending
          (not suspending);
      if
        List.mem v m.dead
        && (state <> Sched.Placed || entries <> []
           || List.exists (fun i -> owner i = v) m.live)
      then fail path "dead vpe%d left a state, queue entry or image" v)
    m.vpes;
  let held =
    List.filter_map
      (fun v ->
        match Sched.state m.sched ~vpe:v with
        | Sched.Parked (_, img) -> Some img
        | _ -> None)
      m.vpes
    @ List.map (fun (_, (_, img)) -> img) queued
  in
  if List.sort compare held <> List.sort compare m.live then
    fail path "images held [%s], handed over [%s]"
      (String.concat "," (List.map string_of_int held))
      (String.concat "," (List.map string_of_int m.live))

let apply m path input =
  let alive v = not (List.mem v m.dead) and idle = m.capturing = None in
  let path = path @ [ input ] in
  (match input with
  | Suspend v when alive v && idle ->
    if Sched.suspend m.sched ~vpe:v then m.suspending <- v :: m.suspending
  | Resume v when alive v && idle ->
    if List.mem v m.suspending then m.overtaken <- v :: remove v m.overtaken;
    Sched.resume m.sched ~vpe:v
  | Quiesce v when alive v && idle -> (
    match Sched.state m.sched ~vpe:v with
    | Sched.Suspending _ -> m.capturing <- Some v
    | _ -> ())
  | Capture (v, ok) when m.capturing = Some v ->
    m.capturing <- None;
    if alive v && ok then begin
      m.serial <- m.serial + 1;
      let img = (v * 1000) + m.serial in
      m.live <- img :: m.live;
      Sched.captured m.sched ~vpe:v ~core:gp img;
      match (Sched.state m.sched ~vpe:v, List.mem v m.overtaken) with
      | Sched.Queued _, true | Sched.Parked _, false -> ()
      | _, true ->
        fail path "a resume overtook vpe%d's suspension, but it was not requeued" v
      | _, false -> fail path "vpe%d was captured, but not parked" v
    end;
    Sched.settle m.sched ~vpe:v;
    m.suspending <- remove v m.suspending;
    m.overtaken <- remove v m.overtaken
  | Place when idle -> (
    match Sched.take m.sched ~core:gp with
    | Some (v, img) ->
      if owner img <> v then fail path "vpe%d was placed with vpe%d's image" v (owner img);
      m.live <- remove img m.live
    | None -> ())
  | Kill v when alive v ->
    List.iter
      (fun img ->
        if owner img <> v then
          fail path "killing vpe%d handed back vpe%d's image" v (owner img);
        m.live <- remove img m.live)
      (Sched.kill m.sched ~vpe:v);
    m.dead <- v :: m.dead;
    m.suspending <- remove v m.suspending;
    m.overtaken <- remove v m.overtaken
  | _ -> ());
  check m path;
  path

let replay vpes inputs =
  let m =
    {
      sched = Sched.create ();
      vpes;
      dead = [];
      suspending = [];
      overtaken = [];
      capturing = None;
      live = [];
      serial = 0;
    }
  in
  ignore (List.fold_left (apply m) [] inputs);
  m

(* The test's view and [Sched]'s, without image serials: two input
   sequences that reach the same key behave the same from there on. *)
let key m =
  let vpe v =
    Printf.sprintf "%d:%s%s%s%s" v
      (match Sched.state m.sched ~vpe:v with
      | Sched.Placed -> "P"
      | Sched.Suspending Sched.Park -> "S"
      | Sched.Suspending Sched.Requeue -> "R"
      | Sched.Parked _ -> "K"
      | Sched.Queued _ -> "Q")
      (if List.mem v m.dead then "d" else "")
      (if List.mem v m.suspending then "s" else "")
      (if List.mem v m.overtaken then "o" else "")
  in
  String.concat " "
    (List.map vpe m.vpes
    @ [
        "q=" ^ String.concat "," (List.map (fun (v, _) -> string_of_int v) (Sched.queue m.sched ~core:gp));
        (match m.capturing with Some v -> "c" ^ string_of_int v | None -> "");
      ])

(* Breadth-first over every state the inputs reach from a fresh
   scheduler, applying every input in every state, so every order of
   the inputs, of any length, runs through these transitions. Returns
   the number of states and transitions. *)
let explore vpes =
  let inputs =
    List.concat_map
      (fun v ->
        [ Suspend v; Resume v; Quiesce v; Capture (v, true); Capture (v, false); Kill v ])
      vpes
    @ [ Place ]
  in
  let seen = Hashtbl.create 256 and frontier = Queue.create () in
  Hashtbl.add seen (key (replay vpes [])) ();
  Queue.push [] frontier;
  let transitions = ref 0 in
  while not (Queue.is_empty frontier) do
    let path = Queue.pop frontier in
    List.iter
      (fun input ->
        incr transitions;
        let path = path @ [ input ] in
        let k = key (replay vpes path) in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          Queue.push path frontier
        end)
      inputs
  done;
  (Hashtbl.length seen, !transitions)

let test_core_round_trip () =
  let m = replay [ 1 ] [ Suspend 1; Quiesce 1; Capture (1, true) ] in
  check_int "parked" 1 (Sched.parked m.sched);
  check_bool "a parked VPE cannot be suspended" false (Sched.suspendable m.sched ~vpe:1);
  let m = replay [ 1 ] [ Suspend 1; Quiesce 1; Capture (1, true); Resume 1; Place ] in
  check_bool "placed again" true (Sched.state m.sched ~vpe:1 = Sched.Placed);
  check_int "no image held" 0 (List.length m.live)

let test_core_overtake () =
  let m = replay [ 1 ] [ Suspend 1; Resume 1; Quiesce 1; Capture (1, true) ] in
  check_int "nothing parked" 0 (Sched.parked m.sched);
  check_int "queued for placement" 1 (List.length (Sched.queue m.sched ~core:gp))

let test_core_kill_queued () =
  let queue_up v = [ Suspend v; Resume v; Quiesce v; Capture (v, true) ] in
  let m = replay [ 1; 2 ] (queue_up 1 @ queue_up 2 @ [ Kill 1 ]) in
  check_bool "vpe2 alone is left in the queue" true
    (List.map fst (Sched.queue m.sched ~core:gp) = [ 2 ])

let exhaustive vpes () =
  let states, transitions = explore vpes in
  Printf.printf "sched.core exhaustive, %d VPE(s): %d states, %d transitions\n"
    (List.length vpes) states transitions;
  check_bool "explored past the start" true (states > 1)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sched.roundtrip",
      [
        tc "suspend/resume is bit-identical" test_round_trip_is_bit_identical;
        tc "suspended run is deterministic" test_suspended_run_is_deterministic;
      ] );
    ( "sched.off",
      [
        tc "no-scheduler run is byte-identical"
          test_no_scheduler_is_byte_identical;
        tc "unused scheduler changes nothing"
          test_unused_scheduler_changes_nothing;
        tc "await_parked without a scheduler is refused"
          test_await_parked_without_scheduler;
      ] );
    ( "sched.reclaim",
      [
        tc "suspend/resume leaks nothing" test_suspend_resume_leaks_nothing;
        tc "abort of a parked VPE tears down" test_abort_of_suspended_vpe;
      ] );
    ( "sched.isolation",
      [
        tc "migrated timed wait keeps to its new PE"
          test_migrated_wait_keeps_to_its_pe;
        tc "a gate activated towards a parked VPE delivers once, after the move"
          send_to_parked;
      ] );
    ( "sched.core",
      [
        tc "suspend, capture, resume and place" test_core_round_trip;
        tc "a resume that overtakes a suspension requeues it" test_core_overtake;
        tc "a kill takes a queued VPE out of its run queue" test_core_kill_queued;
        tc "every order of the inputs, one VPE" (exhaustive [ 1 ]);
        tc "every order of the inputs, two VPEs of one class" (exhaustive [ 1; 2 ]);
      ] );
  ]
