module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Stats = M3_sim.Stats
module Account = M3_sim.Account
module Endpoint = M3_dtu.Endpoint
module Obs = M3_obs.Obs
module Env = M3.Env
module Errno = M3.Errno
module Gate = M3.Gate
module Syscalls = M3.Syscalls
module Vpe_api = M3.Vpe_api
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module Cost_model = M3_hw.Cost_model
module Fft = M3_hw.Fft

let ok = Errno.ok_exn
let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* --- layout ----------------------------------------------------------- *)

(* Handoff selectors live above Pipe's 1000/1001 so a pool and a pipe
   can coexist in one VPE. *)
let handoff_req_sel = 2000 (* dispatcher publishes; the client obtains *)
let handoff_comp_sel = 2001 (* the client delegates to the dispatcher *)
let handoff_worker_sel = 2002 (* each worker publishes; dispatcher obtains *)

(* Requests are 17 bytes + the 32-byte DTU header -> 64-byte slots. *)
let req_order = 6
let req_slots = 32
let req_credits = Endpoint.Credits 32

(* Admission verdicts are 9 bytes (+ header); the ring is deep because
   verdicts can pile up while an open-loop client sleeps between
   arrivals. *)
let resp_order = 6
let resp_slots = 64

(* Batches and worker replies: up to 13 items of 17 bytes fit an order
   8 slot with header, count and generation bytes ([Dispatch] sends at
   most 8). *)
let batch_order = 8
let batch_slots = 4
let batch_credits = Endpoint.Credits 2

(* One outstanding reply per worker seat, 8 seats max by default. *)
let wreply_slots = 16

(* Completion notices: up to 5 done items (17 bytes each) in an order
   7 slot; the dispatcher holds [comp_credits] notices in flight and
   the client's replies (into the ack gate) refund them. *)
let notice_order = 7
let comp_slots = 16
let comp_credits = 8
let ack_order = 5
let ack_slots = 16

let disp_poll = 500 (* dispatcher poll quantum under a fault plan *)
let client_poll = 500
let tail_deadline = 20_000_000 (* client bail-out under a fault plan *)

(* --- configuration ---------------------------------------------------- *)

type config = {
  name : string;
  workers : int;
  min_workers : int;
      (* elastic floor: < [workers] lets the dispatcher park idle
         workers off their PEs (kernel scheduler required) and wake
         them again on queue depth. [= workers] is a static pool. *)
  queue_limit : int;
  fs_services : string list;
  files : int;
  watchdog : int;
  gateway : Gateway.config option;
      (* front tier: per-client token buckets and per-seat circuit
         breakers. [None] keeps the request path bit-identical to a
         pre-gateway pool. *)
  app : (int -> int) option;
      (* host callback behind [Wire.App]: receives the request argument
         and returns the cycles to charge. Its host-side side effects
         witness every execution, which is what the exactly-once
         regression tests need. *)
  kv : (Env.t -> seq:int -> int -> Errno.t) option;
      (* handler behind [Wire.Kv]: runs in the worker VPE against its
         own mounts with the request's sequence number (the put
         idempotency token) and packed argument. [None] answers
         [E_inv_args] and the request path stays bit-identical to a
         kv-less pool. *)
}

let default_config ?(name = "pool") ?min_workers ~workers () =
  {
    name;
    workers;
    min_workers = (match min_workers with Some m -> m | None -> workers);
    queue_limit = 1_000_000;
    fs_services = [];
    files = 0;
    watchdog = 150_000;
    gateway = None;
    app = None;
    kv = None;
  }

include Counters

let service_latency st =
  Array.fold_left Stats.merge (Stats.create ()) st.p_worker_service

(* --- worker ------------------------------------------------------------ *)

let file_path cfg i =
  if cfg.files <= 0 then "/s0" else Printf.sprintf "/s%d" (i mod cfg.files)

let worker_body cfg ~widx (cenv : Env.t) =
  if cfg.fs_services <> [] then
    ok (Vfs.mount_sharded cenv ~path:"/" ~services:cfg.fs_services);
  let rgate =
    ok (Gate.create_recv cenv ~slot_order:batch_order ~slot_count:batch_slots)
  in
  let _published =
    ok
      (Gate.create_send ~sel:handoff_worker_sel cenv rgate
         ~label:(Int64.of_int widx) ~credits:batch_credits)
  in
  let scratch = ref None in
  let scratch_addr () =
    match !scratch with
    | Some a -> a
    | None ->
      let a = Env.alloc_spm cenv ~size:4096 in
      scratch := Some a;
      a
  in
  let serve_one (it : Wire.request) =
    match it.Wire.rk with
    | Wire.Echo cycles ->
      Env.charge cenv Account.App cycles;
      Errno.E_ok
    | Wire.Fs_stat i -> (
      match Vfs.stat cenv (file_path cfg i) with
      | Ok _ -> Errno.E_ok
      | Error e -> e)
    | Wire.Fs_read i -> (
      match Vfs.open_ cenv (file_path cfg i) ~flags:Fs_proto.o_read with
      | Error e -> e
      | Ok f ->
        let res = File.read cenv f ~local:(scratch_addr ()) ~len:4096 in
        ignore (File.close cenv f);
        (match res with Ok _ -> Errno.E_ok | Error e -> e))
    | Wire.Fft points ->
      (* The arithmetic really runs (host-side, free); the simulated
         cost is the software-FFT cycle model. *)
      let buf = Bytes.make (points * Fft.bytes_per_point) '\000' in
      ignore (Fft.transform_bytes buf);
      Env.charge cenv Account.App (Cost_model.fft_cycles ~accel:false ~points);
      Errno.E_ok
    | Wire.App arg -> (
      match cfg.app with
      | None -> Errno.E_inv_args
      | Some f ->
        Env.charge cenv Account.App (f arg);
        Errno.E_ok)
    | Wire.Kv arg -> (
      match cfg.kv with
      | None -> Errno.E_inv_args
      | Some f -> f cenv ~seq:it.Wire.seq arg)
  in
  let rec loop () =
    let msg = Gate.recv cenv rgate in
    let gen, items = Wire.decode_batch msg.Endpoint.payload in
    match items with
    | [] ->
      ignore
        (Gate.reply cenv rgate ~slot:msg.Endpoint.slot
           (Wire.encode_worker_reply ~worker:widx ~gen []));
      0
    | items ->
      (* fold, not map: service must run in list order so cycles
         accumulate deterministically *)
      let dones =
        List.rev
          (List.fold_left
             (fun acc (it : Wire.request) ->
               let t0 = Engine.now cenv.engine in
               let err = serve_one it in
               {
                 Wire.d_seq = it.seq;
                 d_err = err;
                 d_cycles = Engine.now cenv.engine - t0;
               }
               :: acc)
             [] items)
      in
      ignore
        (Gate.reply cenv rgate ~slot:msg.Endpoint.slot
           (Wire.encode_worker_reply ~worker:widx ~gen dones));
      loop ()
  in
  loop ()

(* --- dispatcher -------------------------------------------------------- *)

(* A thin driver around [Dispatch]: it owns the gates and the worker
   VPEs, decodes messages, and performs the effects the core asks for. *)

type worker = { vpe : Vpe_api.t; sgate : Gate.send_gate; mutable reaped : bool }

let dispatcher cfg stats (cenv : Env.t) =
  let obs = M3_noc.Fabric.obs cenv.fabric in
  let recv_gate order count = ok (Gate.create_recv cenv ~slot_order:order ~slot_count:count) in
  let req = recv_gate req_order req_slots in
  let wreply = recv_gate batch_order wreply_slots in
  let ackg = recv_gate ack_order ack_slots in
  let comp = Gate.send_gate_of_sel handoff_comp_sel in
  let workers = Array.make cfg.workers None in
  let worker seat = Option.get workers.(seat) in
  let spawn seat =
    let name = Printf.sprintf "%s.w%d" cfg.name seat in
    let* vpe = Vpe_api.create cenv ~name ~core:M3_hw.Core_type.General_purpose in
    let* () = Vpe_api.run cenv vpe (worker_body cfg ~widx:seat) in
    let sel = Env.alloc_sel cenv in
    let* () =
      Syscalls.obtain_published cenv ~vpe_sel:vpe.Vpe_api.vpe_sel ~own_sel:sel
        ~other_sel:handoff_worker_sel
    in
    Ok { vpe; sgate = Gate.send_gate_of_sel sel; reaped = false }
  in
  let respawn ~seat ~boot =
    (match workers.(seat) with
    | Some w when w.reaped ->
      (* drop our gate into the dead generation so the dispatcher's
         selector space does not leak across upgrades *)
      ignore (Syscalls.revoke cenv ~sel:w.sgate.Gate.sg_user.Env.eu_sel);
      stats.p_retired_vpes <- w.vpe.Vpe_api.vpe_id :: stats.p_retired_vpes
    | Some w -> ignore (Syscalls.revoke cenv ~sel:w.vpe.Vpe_api.vpe_sel)
    | None -> ());
    workers.(seat) <- (if boot then Result.to_option (spawn seat) else None);
    Option.map (fun w -> w.vpe.Vpe_api.pe_id) workers.(seat)
  in
  let shutdown ~seat ~gen =
    let w = worker seat in
    ignore (Gate.send cenv w.sgate (Wire.encode_batch ~gen []) ~reply:(wreply, 0L) ());
    ignore (Vpe_api.wait cenv w.vpe);
    w.reaped <- true
  in
  let suspend ~seat ~settle =
    let w = worker seat in
    match Vpe_api.suspend cenv w.vpe with
    | Error _ -> false
    | Ok () ->
      (* a suspend only completes at the worker's next quiesce point *)
      if settle then ignore (Vpe_api.await_parked cenv w.vpe);
      true
  in
  let fx =
    {
      Dispatch.now = (fun () -> Engine.now cenv.engine);
      backlog = (fun () -> Gate.backlog cenv req);
      reply =
        (fun ~slot ~err ~seq -> ignore (Gate.reply cenv req ~slot (Wire.encode_admit ~err ~seq)));
      send_batch =
        (fun ~seat ~gen batch ->
          Result.is_ok
            (Gate.send cenv (worker seat).sgate (Wire.encode_batch ~gen batch)
               ~reply:(wreply, Int64.of_int seat) ()));
      notify =
        (fun items ->
          Result.is_ok
            (Gate.send cenv comp (Wire.encode_notice items) ~reply:(ackg, 0L) ()));
      respawn;
      shutdown;
      suspend;
      resume = (fun ~seat -> Result.is_ok (Vpe_api.resume cenv (worker seat).vpe));
      emit = (fun ev -> if Obs.enabled obs then Obs.emit obs ev);
    }
  in
  let core =
    Dispatch.create ~name:cfg.name ~pe:(M3_hw.Pe.id cenv.pe) ~workers:cfg.workers
      ~min_workers:cfg.min_workers ~queue_limit:cfg.queue_limit
      ~watchdog:cfg.watchdog ~gateway:cfg.gateway
      ~faults:(M3_fault.Plan.enabled (M3_noc.Fabric.faults cenv.fabric))
      stats fx
  in
  (* Publish the request gate only now: a client that got through
     [start] sends against a fully staffed pool, so worker boot time
     never pollutes measured latencies. *)
  let _published =
    ok (Gate.create_send ~sel:handoff_req_sel cenv req ~label:0L ~credits:req_credits)
  in
  (* One handler per inbox, in [Dispatch.inbox] order. *)
  let inboxes = [| req; wreply; ackg |] in
  let handlers =
    [|
      (fun (msg : Endpoint.message) ->
        Dispatch.request core ~slot:msg.slot (Wire.decode_client_msg msg.payload));
      (fun msg ->
        let seat, gen, dones = Wire.decode_worker_reply msg.payload in
        Gate.ack cenv wreply ~slot:msg.slot;
        Dispatch.reply core ~seat ~gen dones);
      (fun msg -> Gate.ack cenv ackg ~slot:msg.slot);
    |]
  in
  let fetch box =
    let i = match box with Dispatch.Requests -> 0 | Replies -> 1 | Acks -> 2 in
    match Gate.fetch cenv inboxes.(i) with
    | Some msg ->
      handlers.(i) msg;
      true
    | None -> false
  in
  let gates = Array.to_list inboxes in
  let rec loop () =
    match Dispatch.round core ~fetch with
    | Dispatch.Finished -> 0
    | Again -> loop ()
    | Poll ->
      Process.wait disp_poll;
      loop ()
    | Park ->
      let i, msg = Gate.recv_any cenv gates in
      handlers.(i) msg;
      loop ()
  in
  loop ()

(* --- client side -------------------------------------------------------- *)

type t = {
  t_cfg : config;
  t_stats : pool_stats;
  t_disp : Vpe_api.t;
  t_req : Gate.send_gate;
  t_resp : Gate.recv_gate;
  t_comp : Gate.recv_gate;
  t_drained : bool ref;
  t_upgraded : int ref; (* upgrade commits acknowledged so far *)
}

let config t = t.t_cfg
let stats t = t.t_stats
let upgrades_seen t = !(t.t_upgraded)

type per_client = {
  pc_sent : int;
  pc_completed : int;
  pc_throttled : int;
  pc_latency : Stats.t;
}

type client_result = {
  cr_sent : int;
  cr_admitted : int;
  cr_rejected : int;
  cr_throttled : int;
  cr_unavail : int;
  cr_completed : int;
  cr_failed : int;
  cr_latency : Stats.t;
  cr_first_send : int;
  cr_last_done : int;
  cr_completions : (int * int) list;
  cr_clients : (int * per_client) list;
}

let start env cfg =
  if cfg.workers < 1 then Error Errno.E_inv_args
  else begin
    let stats = Dispatch.make_stats ~workers:cfg.workers in
    let* disp =
      Vpe_api.create env ~name:(cfg.name ^ ".disp")
        ~core:M3_hw.Core_type.General_purpose
    in
    let* comp = Gate.create_recv env ~slot_order:notice_order ~slot_count:comp_slots in
    let* comp_sg =
      Gate.create_send env comp ~label:0L ~credits:(Endpoint.Credits comp_credits)
    in
    let* () =
      Syscalls.delegate env ~vpe_sel:disp.Vpe_api.vpe_sel
        ~own_sel:comp_sg.Gate.sg_user.Env.eu_sel ~other_sel:handoff_comp_sel
    in
    let* resp = Gate.create_recv env ~slot_order:resp_order ~slot_count:resp_slots in
    let* () = Vpe_api.run env disp (dispatcher cfg stats) in
    let sel = Env.alloc_sel env in
    let* () =
      Syscalls.obtain_published env ~vpe_sel:disp.Vpe_api.vpe_sel ~own_sel:sel
        ~other_sel:handoff_req_sel
    in
    Ok
      {
        t_cfg = cfg;
        t_stats = stats;
        t_disp = disp;
        t_req = Gate.send_gate_of_sel sel;
        t_resp = resp;
        t_comp = comp;
        t_drained = ref false;
        t_upgraded = ref 0;
      }
  end

(* Request lifecycle on the client: 0 unsent, 1 sent, 3 final.
   (Admit-ok replies carry no new information — only rejects and
   completions resolve a request.) *)
type pc_mut = {
  mutable m_sent : int;
  mutable m_completed : int;
  mutable m_throttled : int;
  m_latency : Stats.t;
}

type session = {
  s_n : int;
  s_send_cycle : int array;
  s_state : int array;
  s_client : int array; (* client id per seq, for per-client accounting *)
  s_clients : (int, pc_mut) Hashtbl.t;
  mutable s_sent : int;
  mutable s_rejected : int;
  mutable s_throttled : int;
  mutable s_unavail : int;
  mutable s_completed : int;
  mutable s_failed : int;
  mutable s_unresolved : int;
  s_latency : Stats.t;
  mutable s_first_send : int;
  mutable s_last_done : int;
  mutable s_completions : (int * int) list;
}

let make_session n =
  {
    s_n = n;
    s_send_cycle = Array.make (Stdlib.max n 1) 0;
    s_state = Array.make (Stdlib.max n 1) 0;
    s_client = Array.make (Stdlib.max n 1) 0;
    s_clients = Hashtbl.create 8;
    s_sent = 0;
    s_rejected = 0;
    s_throttled = 0;
    s_unavail = 0;
    s_completed = 0;
    s_failed = 0;
    s_unresolved = 0;
    s_latency = Stats.create ();
    s_first_send = 0;
    s_last_done = 0;
    s_completions = [];
  }

let client_slot sess client =
  match Hashtbl.find_opt sess.s_clients client with
  | Some m -> m
  | None ->
    let m =
      { m_sent = 0; m_completed = 0; m_throttled = 0; m_latency = Stats.create () }
    in
    Hashtbl.add sess.s_clients client m;
    m

let handle_resp env t sess (msg : Endpoint.message) =
  let err, seq = Wire.decode_admit msg.payload in
  Gate.ack env t.t_resp ~slot:msg.slot;
  if seq = Wire.drain_seq then t.t_drained := true
  else if seq = Wire.upgrade_seq then t.t_upgraded := !(t.t_upgraded) + 1
  else if seq >= 0 && seq < sess.s_n && sess.s_state.(seq) = 1 then
    if not (Errno.equal err Errno.E_ok) then begin
      sess.s_state.(seq) <- 3;
      sess.s_unresolved <- sess.s_unresolved - 1;
      if Errno.equal err Errno.E_throttled then begin
        sess.s_throttled <- sess.s_throttled + 1;
        let m = client_slot sess sess.s_client.(seq) in
        m.m_throttled <- m.m_throttled + 1
      end
      else if Errno.equal err Errno.E_unavailable then
        sess.s_unavail <- sess.s_unavail + 1
      else sess.s_rejected <- sess.s_rejected + 1
    end

let handle_comp env t sess (msg : Endpoint.message) =
  let items = Wire.decode_notice msg.payload in
  let now = Engine.now env.Env.engine in
  ignore (Gate.reply env t.t_comp ~slot:msg.slot (Bytes.create 0));
  List.iter
    (fun (d : Wire.done_item) ->
      let seq = d.d_seq in
      if seq >= 0 && seq < sess.s_n && sess.s_state.(seq) = 1 then begin
        sess.s_state.(seq) <- 3;
        sess.s_unresolved <- sess.s_unresolved - 1;
        if Errno.equal d.d_err Errno.E_ok then begin
          let lat = now - sess.s_send_cycle.(seq) in
          sess.s_completed <- sess.s_completed + 1;
          sess.s_last_done <- now;
          Stats.add sess.s_latency (float_of_int lat);
          sess.s_completions <- (now, lat) :: sess.s_completions;
          let m = client_slot sess sess.s_client.(seq) in
          m.m_completed <- m.m_completed + 1;
          Stats.add m.m_latency (float_of_int lat)
        end
        else sess.s_failed <- sess.s_failed + 1
      end)
    items

let drain_client env t sess =
  let rec resp () =
    match Gate.fetch env t.t_resp with
    | Some msg ->
      handle_resp env t sess msg;
      resp ()
    | None -> ()
  in
  let rec comp () =
    match Gate.fetch env t.t_comp with
    | Some msg ->
      handle_comp env t sess msg;
      comp ()
    | None -> ()
  in
  resp ();
  comp ()

(* Send with credit backpressure: admission verdicts refund request
   credits, so block on the verdict gate when they run out. *)
let send_bp env t sess payload =
  let rec go tries =
    match Gate.send env t.t_req payload ~reply:(t.t_resp, 0L) () with
    | Ok () -> Ok ()
    | Error Errno.E_no_credits when tries > 0 ->
      let msg = Gate.recv env t.t_resp in
      handle_resp env t sess msg;
      go (tries - 1)
    | Error e -> Error e
  in
  go 100_000

(* The client loop: while [pending ()], take in verdicts and
   completions, then let [step] act on them. Under a fault plan it
   polls every [client_poll] cycles and gives up after [tail_deadline]
   (a lost request must not hang the client); with [think] it polls
   too, since no message marks the end of a user's think time.
   Otherwise every state change arrives as a message, so it parks on
   the two gates. *)
let client_loop ?(think = false) env t sess ~pending ~step =
  match Env.watchdog ~bound:tail_deadline env.Env.fabric with
  | None when not think ->
    while pending () do
      let i, msg = Gate.recv_any env [ t.t_resp; t.t_comp ] in
      if i = 0 then handle_resp env t sess msg else handle_comp env t sess msg;
      step ()
    done
  | deadline ->
    let deadline = Option.value deadline ~default:max_int in
    while pending () && Engine.now env.Env.engine < deadline do
      drain_client env t sess;
      step ();
      if pending () then Process.wait client_poll
    done

(* Wait until every sent request is resolved. *)
let await_tail env t sess ~extra =
  client_loop env t sess
    ~pending:(fun () -> sess.s_unresolved > 0 || extra ())
    ~step:ignore

let result_of sess =
  let clients =
    List.sort compare
      (Hashtbl.fold
         (fun client m acc ->
           ( client,
             {
               pc_sent = m.m_sent;
               pc_completed = m.m_completed;
               pc_throttled = m.m_throttled;
               pc_latency = m.m_latency;
             } )
           :: acc)
         sess.s_clients [])
  in
  {
    cr_sent = sess.s_sent;
    cr_admitted = sess.s_completed + sess.s_failed + sess.s_unresolved;
    cr_rejected = sess.s_rejected;
    cr_throttled = sess.s_throttled;
    cr_unavail = sess.s_unavail;
    cr_completed = sess.s_completed;
    cr_failed = sess.s_failed;
    cr_latency = sess.s_latency;
    cr_first_send = sess.s_first_send;
    cr_last_done = sess.s_last_done;
    cr_completions = List.rev sess.s_completions;
    cr_clients = clients;
  }

let send_one env t sess ?(client = 0) (rq : Wire.request) =
  match send_bp env t sess (Wire.encode_request ~client rq) with
  | Ok () ->
    let now = Engine.now env.Env.engine in
    if sess.s_sent = 0 then sess.s_first_send <- now;
    sess.s_send_cycle.(rq.seq) <- now;
    sess.s_state.(rq.seq) <- 1;
    sess.s_client.(rq.seq) <- client;
    sess.s_sent <- sess.s_sent + 1;
    sess.s_unresolved <- sess.s_unresolved + 1;
    let m = client_slot sess client in
    m.m_sent <- m.m_sent + 1
  | Error _ ->
    (* count a lost send as a failure so accounting still closes *)
    sess.s_state.(rq.seq) <- 3;
    sess.s_failed <- sess.s_failed + 1

let upgrade_worker env t ~worker =
  Gate.send env t.t_req (Wire.encode_upgrade ~worker) ~reply:(t.t_resp, 0L) ()

let run_open ?(actions = []) env t ~schedule =
  let n = Array.length schedule in
  let sess = make_session n in
  (* Arrival times are relative to the start of the run, not to boot —
     the schedule is drawn before the simulation exists. *)
  let t0 = Engine.now env.Env.engine in
  (* Actions in arrival order, equal indices in list order, fired from
     a cursor; an index outside the schedule never fires. *)
  let pending =
    ref (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) actions)
  in
  let rec fire i =
    match !pending with
    | (at, act) :: rest when at <= i ->
      pending := rest;
      if at = i then act ();
      fire i
    | _ -> ()
  in
  for i = 0 to n - 1 do
    let a = schedule.(i) in
    fire i;
    drain_client env t sess;
    let now = Engine.now env.Env.engine in
    if now < t0 + a.Load.at then Process.wait (t0 + a.Load.at - now);
    send_one env t sess ~client:a.Load.client a.Load.req
  done;
  await_tail env t sess ~extra:(fun () -> false);
  result_of sess

let run_closed ?think env t ~clients ~total ~make =
  let clients = Stdlib.max 1 clients in
  let sess = make_session total in
  let next = ref 0 in
  let pending () = !next < total || sess.s_unresolved > 0 in
  let send_next () =
    send_one env t sess { Wire.seq = !next; rk = make !next };
    incr next
  in
  (match think with
  | None ->
    (* Think-less users send again the instant a slot frees. *)
    let pump () =
      while !next < total && sess.s_unresolved < clients do
        send_next ()
      done
    in
    pump ();
    client_loop env t sess ~pending ~step:pump
  | Some think ->
    (* [ready] holds the cycle each idle user's think ends, sorted
       ascending; every resolution (complete, fail or reject) returns
       its user to the thinking state. Think times are effectively
       quantized to [client_poll], which is fine: they are orders of
       magnitude larger. *)
    let t0 = Engine.now env.Env.engine in
    let ready = ref (List.init clients (fun _ -> t0)) in
    let insert at =
      let rec go = function
        | x :: tl when x <= at -> x :: go tl
        | rest -> at :: rest
      in
      ready := go !ready
    in
    let thinks = ref 0 in
    let resolved_seen = ref 0 in
    let note_resolutions () =
      let resolved = !next - sess.s_unresolved in
      let now = Engine.now env.Env.engine in
      for _ = !resolved_seen + 1 to resolved do
        insert (now + Stdlib.max 0 (think !thinks));
        incr thinks
      done;
      resolved_seen := resolved
    in
    let pump () =
      let now = Engine.now env.Env.engine in
      let rec go () =
        if !next < total && sess.s_unresolved < clients then
          match !ready with
          | at :: tl when at <= now ->
            ready := tl;
            send_next ();
            go ()
          | _ -> ()
      in
      go ()
    in
    pump ();
    client_loop ~think:true env t sess ~pending ~step:(fun () ->
        note_resolutions ();
        pump ()));
  result_of sess

let stop env t =
  let sess = make_session 0 in
  let* () = send_bp env t sess (Wire.encode_drain ()) in
  await_tail env t sess ~extra:(fun () -> not !(t.t_drained));
  if not !(t.t_drained) then Error Errno.E_timeout
  else
    let* code = Vpe_api.wait env t.t_disp in
    if code = 0 then Ok () else Error (Errno.E_dtu "dispatcher failed")
