(* Crash-containment sweep: kill one PE at several points of a
   workload's lifetime and check that the system degrades the way the
   design promises — the kernel's heartbeat prober detects the dead
   PE, the victim VPE is aborted with its capability tree and endpoint
   bookkeeping fully reclaimed, survivors observe E_vpe_dead /
   E_pipe_broken instead of hanging, the failed PE is quarantined, a
   supervised restart finishes the job on a spare PE, and the
   simulation drains to completion. *)

module Plan = M3_fault.Plan
module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Platform = M3_hw.Platform
module Core_type = M3_hw.Core_type
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module Env = M3.Env
module Errno = M3.Errno
module Kdata = M3.Kdata
module Kernel = M3.Kernel
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api

let ok = Errno.ok_exn

type cell = {
  c_after : int;  (* victim dies on its PE's [after]-th DTU command *)
  c_cycles : int;
  c_exit : int;  (* main VPE's exit code; 0 = workload recovered *)
  c_crashes : int;  (* pe_crash faults the plan injected *)
  c_heartbeats : int;  (* prober sweeps observed *)
  c_aborts : int;  (* vpe.abort events *)
  c_restarts : int;  (* vpe.restart events *)
  c_failures : string list;  (* empty = cell passed *)
}

type t = {
  r_role : string;
  r_cells : cell list;
}

(* Crash points along the victim's life: during setup (first syscalls),
   after the channels exist, and deep inside the data loop. *)
let crash_points = [ 4; 12; 28 ]
let quick_points = [ 12 ]

(* Big enough that the victim's data loop spans every crash point —
   each 4 KiB chunk costs the victim at least one DTU command, so the
   deepest crash point (command 28) still lands mid-loop. *)
let file_size = 128 * 1024
let buf_size = 4096
let ring_size = 16 * 1024

let file_seed =
  [
    { M3.M3fs.sd_path = "/crash.dat"; sd_size = file_size;
      sd_blocks_per_extent = 256; sd_dir = false };
  ]

(* --- roles ----------------------------------------------------------- *)

(* Deterministic PE assignment (lowest free PE wins): kernel = 0;
   with fs: m3fs = 1, main = 2, victim child = 3, restart lands on 4;
   without fs: main = 1, victim child = 2, restart lands on 3. *)

(* A filesystem client dying mid-read: m3fs must reap its session
   (releasing what the open held), and the supervised retry must read
   the whole file from a spare PE. *)
let fsclient_main env =
  let read_all cenv =
    Runner.mounted cenv;
    let buf = Env.alloc_spm cenv ~size:buf_size in
    let file = ok (Vfs.open_ cenv "/crash.dat" ~flags:Fs_proto.o_read) in
    let rec drain got =
      match ok (File.read cenv file ~local:buf ~len:buf_size) with
      | 0 -> got
      | n -> drain (got + n)
    in
    let got = drain 0 in
    ok (File.close cenv file);
    if got = file_size then 0 else 2
  in
  match
    Vpe_api.run_supervised env ~name:"fsclient"
      ~core:Core_type.General_purpose read_all
  with
  | Ok 0 -> 0
  | Ok code -> code
  | Error _ -> 1

(* A pipe writer dying mid-transfer: the reader must wake up with
   E_pipe_broken (not EOF, not a hang), learn the cause via vpe_wait,
   and a freshly built pipeline must then run to completion. *)
let pipewriter_main env =
  let writer_body cenv =
    let w = ok (Pipe.connect_writer cenv ~ring_size) in
    let buf = Env.alloc_spm cenv ~size:buf_size in
    for _ = 1 to file_size / buf_size do
      ok (Pipe.write cenv w ~local:buf ~len:buf_size)
    done;
    ok (Pipe.close_writer cenv w);
    0
  in
  let run_pipeline ~name =
    let reader = ok (Pipe.create_reader env ~ring_size) in
    let vpe =
      ok (Vpe_api.create env ~name ~core:Core_type.General_purpose)
    in
    ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
    ok (Vpe_api.run env vpe writer_body);
    let buf = Env.alloc_spm env ~size:buf_size in
    let rec drain got =
      match Pipe.read env reader ~local:buf ~len:buf_size with
      | Ok 0 -> Ok got
      | Ok n -> drain (got + n)
      | Error e -> Error e
    in
    (drain 0, vpe)
  in
  let first, vpe = run_pipeline ~name:"writer" in
  let broken =
    match first with Error Errno.E_pipe_broken -> true | _ -> false
  in
  let dead =
    match Vpe_api.wait env vpe with
    | Error Errno.E_vpe_dead -> true
    | _ -> false
  in
  ignore (M3.Syscalls.revoke env ~sel:vpe.Vpe_api.vpe_sel);
  ignore (M3.Syscalls.revoke env ~sel:vpe.Vpe_api.mem_sel);
  let recovered =
    match run_pipeline ~name:"writer" with
    | Ok got, vpe2 when got = file_size -> (
      match Vpe_api.wait env vpe2 with Ok 0 -> true | _ -> false)
    | _ -> false
  in
  if broken && dead && recovered then 0 else 1

(* A worker whose parent is parked in vpe_wait: the deferred reply
   must come back as E_vpe_dead, and the supervised retry succeed.
   The loop is long enough (each noop is one DTU command) that every
   crash point lands inside the worker's lifetime. *)
let waited_main env =
  match
    Vpe_api.run_supervised env ~name:"worker" ~core:Core_type.General_purpose
      (fun cenv ->
        for _ = 1 to 60 do
          ok (M3.Syscalls.noop cenv)
        done;
        0)
  with
  | Ok 0 -> 0
  | Ok code -> code
  | Error _ -> 1

let roles =
  [
    ("fsclient", `Fs, 3, fsclient_main);
    ("pipewriter", `No_fs, 2, pipewriter_main);
    ("waited", `No_fs, 2, waited_main);
  ]

let names = List.map (fun (n, _, _, _) -> n) roles

(* --- one cell -------------------------------------------------------- *)

let count_events () =
  let crashes = ref 0 and aborts = ref 0 in
  let restarts = ref 0 and heartbeats = ref 0 in
  let sink =
    {
      Obs.sink_name = "crash-sweep";
      sink_emit =
        (fun ~at:_ ev ->
          match ev with
          | Event.Fault_pe_crash _ -> incr crashes
          | Event.Vpe_abort _ -> incr aborts
          | Event.Vpe_restart _ -> incr restarts
          | Event.Kernel_heartbeat _ -> incr heartbeats
          | _ -> ());
    }
  in
  (sink, crashes, aborts, restarts, heartbeats)

let run_cell ~role ~fs ~victim_pe ~main ~after =
  let engine = Engine.create () in
  (* Crashes only, no drops: a failure here is attributable to the
     crash path alone. *)
  let plan =
    Plan.create ~crashes:[ (victim_pe, after) ]
      ~seed:(0xC4A5 + (after * 37) + String.length role)
      ()
  in
  let sink, crashes, aborts, restarts, heartbeats = count_events () in
  let obs = Obs.of_engine engine in
  Obs.attach obs sink;
  let no_fs = fs = `No_fs in
  let fs_config ~dram =
    let base = M3.M3fs.default_config ~dram in
    { base with seed = file_seed }
  in
  let sys =
    M3.Bootstrap.start ~fs:fs_config ~no_fs ~obs ~faults:plan engine
  in
  let exit = M3.Bootstrap.launch sys ~name:"main" main in
  let cycles = Engine.run engine in
  let code =
    match Process.Ivar.peek exit with Some c -> c | None -> min_int
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if code <> 0 then
    if code = min_int then fail "main VPE never exited (hang)"
    else fail "main VPE exited %d" code;
  if Plan.crashes_injected plan <> 1 then
    fail "expected exactly 1 injected crash, got %d"
      (Plan.crashes_injected plan);
  if !crashes <> 1 then
    fail "expected 1 fault.pe_crash event, got %d" !crashes;
  if !heartbeats = 0 then fail "prober never swept";
  if !aborts < 1 then fail "no vpe.abort observed";
  if not (Platform.is_quarantined sys.M3.Bootstrap.platform victim_pe) then
    fail "pe%d not quarantined" victim_pe;
  (* Full reclamation: every dead VPE — crashed or voluntarily exited —
     must hold zero capabilities and zero endpoint bookkeeping. *)
  for id = 1 to 32 do
    match Kernel.find_vpe sys.M3.Bootstrap.kernel ~vpe_id:id with
    | Some v when v.Kdata.v_state = Kdata.V_dead ->
      let caps = Kdata.count_caps v in
      if caps <> 0 then fail "dead vpe%d still holds %d caps" id caps;
      let eps = Kernel.ep_entries sys.M3.Bootstrap.kernel ~vpe_id:id in
      if eps <> 0 then fail "dead vpe%d still has %d endpoint entries" id eps
    | Some _ | None -> ()
  done;
  (if not no_fs then begin
     (* The crashed client's session was reaped; only the successful
        retry's session remains. And the read-only client must not
        have perturbed the image. *)
     (match
        M3.M3fs.open_sessions ~engine:sys.M3.Bootstrap.engine
          ~srv_name:"m3fs"
      with
     | Some n when n <= 1 -> ()
     | Some n -> fail "m3fs still holds %d sessions" n
     | None -> fail "m3fs never initialized");
     match
       M3.M3fs.image_of ~engine:sys.M3.Bootstrap.engine ~srv_name:"m3fs"
     with
     | None -> fail "m3fs image unavailable"
     | Some img -> (
       match M3.Fs_image.lookup img "/crash.dat" with
       | Error e -> fail "/crash.dat lost: %s" (Errno.to_string e)
       | Ok (ino, _) ->
         let size = M3.Fs_image.file_size img ~ino in
         if size <> file_size then
           fail "/crash.dat resized: %d, want %d" size file_size)
   end);
  {
    c_after = after;
    c_cycles = cycles;
    c_exit = code;
    c_crashes = Plan.crashes_injected plan;
    c_heartbeats = !heartbeats;
    c_aborts = !aborts;
    c_restarts = !restarts;
    c_failures = List.rev !failures;
  }

let run ?(quick = false) role =
  match List.find_opt (fun (n, _, _, _) -> n = role) roles with
  | None ->
    invalid_arg
      (Printf.sprintf "Crash.run: unknown role %s (have: %s)" role
         (String.concat ", " names))
  | Some (_, fs, victim_pe, main) ->
    let points = if quick then quick_points else crash_points in
    let cells =
      List.map (fun after -> run_cell ~role ~fs ~victim_pe ~main ~after) points
    in
    { r_role = role; r_cells = cells }

let all_pass t = List.for_all (fun c -> c.c_failures = []) t.r_cells

let print ppf t =
  Format.fprintf ppf
    "Crash sweep: %s (kill the PE at several lifetime points)@." t.r_role;
  Format.fprintf ppf "  %6s %12s %5s %8s %11s %7s %9s  %s@." "after" "cycles"
    "exit" "crashes" "heartbeats" "aborts" "restarts" "verdict";
  List.iter
    (fun c ->
      Format.fprintf ppf "  %6d %12s %5d %8d %11d %7d %9d  %s@." c.c_after
        (Runner.fmt_k c.c_cycles) c.c_exit c.c_crashes c.c_heartbeats
        c.c_aborts c.c_restarts
        (if c.c_failures = [] then "ok"
         else String.concat "; " c.c_failures))
    t.r_cells;
  Format.fprintf ppf
    "  expectation: detect, contain, restart — every cell drains and recovers@."
