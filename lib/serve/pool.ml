module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Stats = M3_sim.Stats
module Account = M3_sim.Account
module Endpoint = M3_dtu.Endpoint
module Obs = M3_obs.Obs
module Event = M3_obs.Event
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
   8 slot with header, count and generation bytes. The dispatcher
   coalesces up to [batch_max] requests per batch, and only when more
   than [batch_threshold] are queued: below it requests dispatch singly
   for latency. *)
let batch_order = 8
let batch_slots = 4
let batch_credits = Endpoint.Credits 2
let batch_max = 8
let batch_threshold = 2

(* Elastic pools grow when the backlog (queued + in-flight) exceeds
   [grow_depth] per active worker and park a worker that sat idle for
   [shrink_idle] cycles, at most one decision per [scale_cooldown]
   cycles. *)
let grow_depth = 2
let shrink_idle = 50_000
let scale_cooldown = 10_000
let max_restarts = 1 (* replacement workers per seat *)

(* One outstanding reply per worker seat, 8 seats max by default. *)
let wreply_slots = 16

(* Completion notices: up to [notice_max] done items (17 bytes each)
   in an order 7 slot; the dispatcher holds [comp_credits] notices in
   flight and the client's replies (into the ack gate) refund them. *)
let notice_order = 7
let notice_max = 5
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

type pool_stats = {
  mutable p_admitted : int;
  mutable p_rejected : int;
  mutable p_completed : int;
  mutable p_failed : int;
  mutable p_retried : int;
  mutable p_restarts : int;
  mutable p_restart_cycle : int;
  mutable p_batches : int;
  mutable p_batched : int;
  mutable p_max_depth : int;
  mutable p_scale_ups : int;
  mutable p_scale_downs : int;
  mutable p_throttled : int;
  mutable p_unavail : int;
  mutable p_deduped : int;
  mutable p_trips : int;
  mutable p_probes : int;
  mutable p_closes : int;
  mutable p_upgrades : int;
  mutable p_retired_vpes : int list;
  p_upgrade_cycles : Stats.t;
  p_worker_service : Stats.t array;
  p_disp_latency : Stats.t;
}

let make_stats ~workers =
  {
    p_admitted = 0;
    p_rejected = 0;
    p_completed = 0;
    p_failed = 0;
    p_retried = 0;
    p_restarts = 0;
    p_restart_cycle = -1;
    p_batches = 0;
    p_batched = 0;
    p_max_depth = 0;
    p_scale_ups = 0;
    p_scale_downs = 0;
    p_throttled = 0;
    p_unavail = 0;
    p_deduped = 0;
    p_trips = 0;
    p_probes = 0;
    p_closes = 0;
    p_upgrades = 0;
    p_retired_vpes = [];
    p_upgrade_cycles = Stats.create ();
    p_worker_service = Array.init workers (fun _ -> Stats.create ());
    p_disp_latency = Stats.create ();
  }

let service_latency st =
  Array.fold_left Stats.merge (Stats.create ()) st.p_worker_service

(* --- small deque ------------------------------------------------------- *)

(* FIFO with a push-front path for re-enqueued batches (a dead
   worker's requests go back to the head so retries do not also eat
   the tail latency of the whole queue). *)
module Dq = struct
  type 'a t = { mutable front : 'a list; q : 'a Queue.t }

  let create () = { front = []; q = Queue.create () }
  let push t x = Queue.push x t.q
  let push_front_list t xs = t.front <- xs @ t.front
  let length t = List.length t.front + Queue.length t.q

  let pop t =
    match t.front with
    | x :: tl ->
      t.front <- tl;
      Some x
    | [] -> Queue.take_opt t.q

  let take t k =
    let rec go k acc =
      if k = 0 then List.rev acc
      else match pop t with None -> List.rev acc | Some x -> go (k - 1) (x :: acc)
    in
    go k []

  (* Remove and return the first element matching [pred] (harvesting a
     late completion strikes its requeued copy out of the queue). *)
  let remove t pred =
    let found = ref None in
    let keep x =
      if !found = None && pred x then begin
        found := Some x;
        false
      end
      else true
    in
    t.front <- List.filter keep t.front;
    if !found = None then begin
      let kept = Queue.create () in
      Queue.iter (fun x -> if keep x then Queue.push x kept) t.q;
      Queue.clear t.q;
      Queue.transfer kept t.q
    end;
    !found
end

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

type wstate =
  | W_idle
  | W_busy of { batch : (Wire.request * int) list; since : int }
  | W_parked (* suspended off its PE by the kernel scheduler *)
  | W_dead

type wrk = {
  w_idx : int;
  mutable w_vpe : Vpe_api.t;
  mutable w_sgate : Gate.send_gate;
  mutable w_gen : int;
  mutable w_restarts : int;
  mutable w_state : wstate;
  mutable w_idle_since : int; (* cycle it last became idle *)
}

let dispatcher_body cfg stats (cenv : Env.t) =
  let plan_enabled = M3_fault.Plan.enabled (M3_noc.Fabric.faults cenv.fabric) in
  let obs = M3_noc.Fabric.obs cenv.fabric in
  let my_pe = M3_hw.Pe.id cenv.pe in
  let emit ev = if Obs.enabled obs then Obs.emit obs ev in
  let now () = Engine.now cenv.engine in
  let req = ok (Gate.create_recv cenv ~slot_order:req_order ~slot_count:req_slots) in
  let wreply =
    ok (Gate.create_recv cenv ~slot_order:batch_order ~slot_count:wreply_slots)
  in
  let ackg = ok (Gate.create_recv cenv ~slot_order:ack_order ~slot_count:ack_slots) in
  let comp = Gate.send_gate_of_sel handoff_comp_sel in
  let spawn_worker idx =
    let* vpe =
      Vpe_api.create cenv
        ~name:(Printf.sprintf "%s.w%d" cfg.name idx)
        ~core:M3_hw.Core_type.General_purpose
    in
    let* () = Vpe_api.run cenv vpe (worker_body cfg ~widx:idx) in
    let sel = Env.alloc_sel cenv in
    let* () =
      Syscalls.obtain_published cenv ~vpe_sel:vpe.Vpe_api.vpe_sel ~own_sel:sel
        ~other_sel:handoff_worker_sel
    in
    Ok (vpe, Gate.send_gate_of_sel sel)
  in
  let mk_worker i =
    let vpe, sg = ok (spawn_worker i) in
    { w_idx = i; w_vpe = vpe; w_sgate = sg; w_gen = 0; w_restarts = 0;
      w_state = W_idle; w_idle_since = now () }
  in
  let workers =
    let w0 = mk_worker 0 in
    let a = Array.make cfg.workers w0 in
    for i = 1 to cfg.workers - 1 do
      a.(i) <- mk_worker i
    done;
    a
  in
  (* Elastic pools start with only the floor active: seats above
     [min_workers] are parked right away (they quiesce at their first
     receive wait) and resumed on the queue-depth signal. Without a
     kernel scheduler the suspend fails and the pool degrades to
     static. *)
  if cfg.min_workers < cfg.workers then
    for i = cfg.min_workers to cfg.workers - 1 do
      let w = workers.(i) in
      match Vpe_api.suspend cenv w.w_vpe with
      | Ok () -> (
        (* Block until the park lands: a suspend only completes at the
           worker's next quiesce point, and clients must not race the
           capture traffic. *)
        match Vpe_api.await_parked cenv w.w_vpe with
        | Ok () -> w.w_state <- W_parked
        | Error _ -> w.w_state <- W_parked)
      | Error _ -> ()
    done;
  (* Publish the request gate only now: a client that got through
     [start] sends against a fully staffed pool, so worker boot time
     never pollutes measured latencies. *)
  let _published =
    ok (Gate.create_send ~sel:handoff_req_sel cenv req ~label:0L ~credits:req_credits)
  in
  (* --- gateway state -------------------------------------------------- *)
  let buckets =
    match cfg.gateway with
    | Some { Gateway.g_bucket = Some bc; _ } -> Some (Gateway.buckets bc)
    | _ -> None
  in
  let breaker_cfg =
    match cfg.gateway with
    | Some { Gateway.g_breaker = Some kc; _ } -> Some kc
    | _ -> None
  in
  let breakers =
    match breaker_cfg with
    | Some kc -> Some (Array.init cfg.workers (fun _ -> Gateway.breaker_state kc))
    | None -> None
  in
  let breaker_on = breakers <> None in
  let pending : (Wire.request * int) Dq.t = Dq.create () in
  let notices : Wire.done_item Dq.t = Dq.create () in
  (* Seqs whose completion was already processed: the dedup set that
     turns crash/trip recovery's at-least-once into exactly-once
     delivery (late replies are harvested, re-dispatched copies
     suppressed). *)
  let completed : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let inflight = ref 0 in
  let drain_slot = ref None in
  (* At most one planned upgrade in flight: (seat, reply slot, start). *)
  let upgrading : (int * int * int) option ref = ref None in
  let seat_upgrading w =
    match !upgrading with Some (i, _, _) -> i = w.w_idx | None -> false
  in
  (* The pool is unavailable when every live seat's breaker is Open
     with its cooldown still running — then fast-fail instead of
     queueing behind a watchdog wait. *)
  let breaker_denied () =
    match breakers with
    | None -> false
    | Some arr ->
      let avail = ref false in
      Array.iteri
        (fun i w ->
          if w.w_state <> W_dead && Gateway.would_allow arr.(i) ~now:(now ())
          then avail := true)
        workers;
      not !avail
  in
  let handle_req (msg : Endpoint.message) =
    match Wire.decode_client_msg msg.payload with
    | Wire.Drain -> drain_slot := Some msg.slot
    | Wire.Upgrade widx ->
      if widx < 0 || widx >= Array.length workers || !upgrading <> None then
        ignore
          (Gate.reply cenv req ~slot:msg.slot
             (Wire.encode_admit ~err:Errno.E_inv_args ~seq:Wire.upgrade_seq))
      else
        (* Deferred reply: the slot is answered once the new generation
           is serving, so the caller observes the commit point. *)
        upgrading := Some (widx, msg.slot, now ())
    | Wire.Request { client; req = rq } ->
      let throttled =
        match buckets with
        | Some b -> not (Gateway.take b ~client ~now:(now ()))
        | None -> false
      in
      if throttled then begin
        stats.p_throttled <- stats.p_throttled + 1;
        emit (Event.Gw_throttle { pe = my_pe; pool = cfg.name; client; seq = rq.seq });
        ignore
          (Gate.reply cenv req ~slot:msg.slot
             (Wire.encode_admit ~err:Errno.E_throttled ~seq:rq.seq))
      end
      else if breaker_denied () then begin
        stats.p_unavail <- stats.p_unavail + 1;
        ignore
          (Gate.reply cenv req ~slot:msg.slot
             (Wire.encode_admit ~err:Errno.E_unavailable ~seq:rq.seq))
      end
      else begin
        let depth = Dq.length pending + !inflight + Gate.backlog cenv req in
        if depth >= cfg.queue_limit then begin
          stats.p_rejected <- stats.p_rejected + 1;
          emit (Event.Serve_reject { pe = my_pe; pool = cfg.name; seq = rq.seq; depth });
          ignore
            (Gate.reply cenv req ~slot:msg.slot
               (Wire.encode_admit ~err:Errno.E_overload ~seq:rq.seq))
        end
        else begin
          stats.p_admitted <- stats.p_admitted + 1;
          if depth > stats.p_max_depth then stats.p_max_depth <- depth;
          emit (Event.Serve_admit { pe = my_pe; pool = cfg.name; seq = rq.seq; depth });
          Dq.push pending (rq, now ());
          ignore
            (Gate.reply cenv req ~slot:msg.slot
               (Wire.encode_admit ~err:Errno.E_ok ~seq:rq.seq))
        end
      end
  in
  let complete_done ~widx ?admitted_at (d : Wire.done_item) =
    Hashtbl.replace completed d.d_seq ();
    (match admitted_at with
    | Some at ->
      let lat = now () - at in
      Stats.add stats.p_disp_latency (float_of_int lat);
      emit
        (Event.Serve_done
           { pe = my_pe; pool = cfg.name; seq = d.d_seq; cycles = lat })
    | None -> ());
    Stats.add stats.p_worker_service.(widx) (float_of_int d.d_cycles);
    if Errno.equal d.d_err Errno.E_ok then
      stats.p_completed <- stats.p_completed + 1
    else stats.p_failed <- stats.p_failed + 1;
    Dq.push notices d
  in
  let breaker_trip w =
    stats.p_trips <- stats.p_trips + 1;
    emit
      (Event.Gw_break
         { pe = my_pe; pool = cfg.name; worker = w.w_idx; phase = "trip" })
  in
  let breaker_feedback w dones =
    match breakers with
    | None -> ()
    | Some arr ->
      let k = arr.(w.w_idx) in
      if
        List.for_all
          (fun (d : Wire.done_item) -> Errno.equal d.d_err Errno.E_ok)
          dones
      then begin
        if Gateway.on_success k then begin
          stats.p_closes <- stats.p_closes + 1;
          emit
            (Event.Gw_break
               { pe = my_pe; pool = cfg.name; worker = w.w_idx; phase = "close" })
        end
      end
      else if Gateway.on_error k ~now:(now ()) then breaker_trip w
  in
  let handle_wreply (msg : Endpoint.message) =
    let widx, gen, dones = Wire.decode_worker_reply msg.payload in
    Gate.ack cenv wreply ~slot:msg.slot;
    if widx >= 0 && widx < Array.length workers then begin
      let w = workers.(widx) in
      if gen = w.w_gen then
        match w.w_state with
        | W_busy { batch; _ } ->
          w.w_state <- W_idle;
          w.w_idle_since <- now ();
          inflight := !inflight - List.length batch;
          List.iter
            (fun (d : Wire.done_item) ->
              if Hashtbl.mem completed d.d_seq then
                (* the late reply of an earlier generation already
                   delivered this completion *)
                stats.p_deduped <- stats.p_deduped + 1
              else
                let admitted_at =
                  Option.map snd
                    (List.find_opt
                       (fun ((r : Wire.request), _) -> r.seq = d.d_seq)
                       batch)
                in
                complete_done ~widx ?admitted_at d)
            dones;
          breaker_feedback w dones
        | W_idle | W_parked | W_dead -> ()
      else
        (* A reply from a retired generation: the worker was declared
           slow or dead after these requests were front-requeued.
           Harvesting the completions — and striking the requeued
           copies from the queue — is what turns crash/trip recovery's
           at-least-once into exactly-once for work that did execute
           before the watchdog fired. *)
        List.iter
          (fun (d : Wire.done_item) ->
            if not (Hashtbl.mem completed d.d_seq) then begin
              stats.p_deduped <- stats.p_deduped + 1;
              let admitted_at =
                Option.map snd
                  (Dq.remove pending (fun ((r : Wire.request), _) ->
                       r.seq = d.d_seq))
              in
              complete_done ~widx ?admitted_at d
            end)
          dones
    end
  in
  let handle_ack (msg : Endpoint.message) = Gate.ack cenv ackg ~slot:msg.slot in
  let replace_worker w ~requeue =
    Dq.push_front_list pending requeue;
    stats.p_retried <- stats.p_retried + List.length requeue;
    ignore (Syscalls.revoke cenv ~sel:w.w_vpe.Vpe_api.vpe_sel);
    w.w_gen <- w.w_gen + 1;
    if w.w_restarts >= max_restarts then w.w_state <- W_dead
    else begin
      w.w_restarts <- w.w_restarts + 1;
      match spawn_worker w.w_idx with
      | Error _ -> w.w_state <- W_dead
      | Ok (vpe, sg) ->
        w.w_vpe <- vpe;
        w.w_sgate <- sg;
        w.w_state <- W_idle;
        w.w_idle_since <- now ();
        stats.p_restarts <- stats.p_restarts + 1;
        stats.p_restart_cycle <- now ();
        emit
          (Event.Serve_restart
             { pe = vpe.Vpe_api.pe_id; pool = cfg.name; worker = w.w_idx;
               attempt = w.w_restarts })
    end
  in
  let check_watchdogs progress =
    Array.iter
      (fun w ->
        match w.w_state with
        | W_busy { batch; since } when now () - since > cfg.watchdog ->
          inflight := !inflight - List.length batch;
          w.w_state <- W_idle;
          (match breakers with
          | Some arr ->
            (* Slow is not provably dead: trip the breaker and requeue,
               but keep the worker and its gate alive so a half-open
               probe can test it. The generation bump stale-ifies the
               reply it still owes us, which the harvest path then
               turns into completions instead of duplicates. *)
            let k = arr.(w.w_idx) in
            if Gateway.on_timeout k ~now:(now ()) then breaker_trip w;
            Dq.push_front_list pending batch;
            stats.p_retried <- stats.p_retried + List.length batch;
            w.w_gen <- w.w_gen + 1;
            w.w_idle_since <- now ();
            if Gateway.is_lethal k then begin
              (* the seat failed every probe it was given: give up on
                 the hardware and respawn on a fresh PE *)
              replace_worker w ~requeue:[];
              match breaker_cfg with
              | Some kc -> arr.(w.w_idx) <- Gateway.breaker_state kc
              | None -> ()
            end
          | None -> replace_worker w ~requeue:batch);
          progress := true
        | _ -> ())
      workers
  in
  (* Pick the first seat that is idle, not mid-upgrade, and whose
     breaker admits traffic. [Probe] marks the batch that must carry
     exactly one request — the half-open probe. *)
  let find_seat () =
    let rec go i =
      if i >= Array.length workers then None
      else
        let w = workers.(i) in
        if w.w_state <> W_idle || seat_upgrading w then go (i + 1)
        else
          match breakers with
          | None -> Some (w, false)
          | Some arr -> (
            match Gateway.admit arr.(i) ~now:(now ()) with
            | Gateway.Allow -> Some (w, false)
            | Gateway.Probe ->
              stats.p_probes <- stats.p_probes + 1;
              emit
                (Event.Gw_break
                   { pe = my_pe; pool = cfg.name; worker = i; phase = "probe" });
              Some (w, true)
            | Gateway.Deny -> go (i + 1))
    in
    go 0
  in
  (* --- elastic scaling ------------------------------------------------ *)
  let elastic = cfg.min_workers < cfg.workers in
  let last_scale = ref (-scale_cooldown) in
  let active_count () =
    Array.fold_left
      (fun a w -> match w.w_state with W_parked | W_dead -> a | _ -> a + 1)
      0 workers
  in
  (* Grow on backlog, shrink on sustained idleness. One decision per
     cooldown window so capture/restore costs cannot thrash. Waking is
     optimistic: the worker's send gate stays parked until the kernel
     places it, and the first batch rides the parked endpoint. *)
  let try_scale progress =
    if elastic && now () - !last_scale >= scale_cooldown then begin
      let active = active_count () in
      let backlog = Dq.length pending + !inflight in
      if backlog > grow_depth * Stdlib.max 1 active then begin
        let parked = ref None in
        Array.iter
          (fun w -> if !parked = None && w.w_state = W_parked then parked := Some w)
          workers;
        match !parked with
        | None -> ()
        | Some w -> (
          match Vpe_api.resume cenv w.w_vpe with
          | Ok () ->
            w.w_state <- W_idle;
            w.w_idle_since <- now ();
            stats.p_scale_ups <- stats.p_scale_ups + 1;
            last_scale := now ();
            emit
              (Event.Pool_scale
                 { pe = my_pe; pool = cfg.name; dir = 1; active = active + 1 });
            progress := true
          | Error _ -> w.w_state <- W_dead)
      end
      else if backlog = 0 && active > cfg.min_workers then begin
        (* park the highest-index aged-idle worker, so wakes refill in
           index order *)
        let victim = ref None in
        Array.iter
          (fun w ->
            match w.w_state with
            | W_idle
              when now () - w.w_idle_since >= shrink_idle
                   && not (seat_upgrading w) ->
              victim := Some w
            | _ -> ())
          workers;
        match !victim with
        | None -> ()
        | Some w -> (
          match Vpe_api.suspend cenv w.w_vpe with
          | Ok () ->
            w.w_state <- W_parked;
            stats.p_scale_downs <- stats.p_scale_downs + 1;
            last_scale := now ();
            emit
              (Event.Pool_scale
                 { pe = my_pe; pool = cfg.name; dir = -1; active = active - 1 })
          | Error _ -> () (* raced a placement change; retry next window *))
      end
    end
  in
  (* Take up to [k] not-yet-completed requests; requeued copies whose
     completion was harvested in the meantime are dropped here. *)
  let take_fresh k =
    let rec go k acc =
      if k = 0 then List.rev acc
      else
        match Dq.pop pending with
        | None -> List.rev acc
        | Some ((rq, _) as item) ->
          if Hashtbl.mem completed rq.Wire.seq then begin
            stats.p_deduped <- stats.p_deduped + 1;
            go k acc
          end
          else go (k - 1) (item :: acc)
    in
    go k []
  in
  let dispatch progress =
    let rec go () =
      if Dq.length pending > 0 then
        match find_seat () with
        | None -> ()
        | Some (w, probe) ->
          let depth = Dq.length pending in
          let bsz =
            if probe then 1 (* half-open: a single canary request *)
            else if depth > batch_threshold then
              Stdlib.min batch_max depth
            else 1
          in
          let batch = take_fresh bsz in
          (if batch = [] then () (* everything taken was a duplicate *)
           else
             let payload = Wire.encode_batch ~gen:w.w_gen (List.map fst batch) in
             match
               Gate.send cenv w.w_sgate payload
                 ~reply:(wreply, Int64.of_int w.w_idx) ()
             with
             | Ok () ->
               w.w_state <- W_busy { batch; since = now () };
               inflight := !inflight + List.length batch;
               stats.p_batches <- stats.p_batches + 1;
               stats.p_batched <- stats.p_batched + List.length batch;
               emit
                 (Event.Serve_batch
                    { pe = my_pe; pool = cfg.name; worker = w.w_idx;
                      size = List.length batch })
             | Error _ ->
               (* the send gate died with its worker; a half-open
                  breaker must trip back to Open or its probe slot
                  would leak *)
               (match breakers with
               | Some arr ->
                 if Gateway.on_error arr.(w.w_idx) ~now:(now ()) then
                   breaker_trip w
               | None -> ());
               replace_worker w ~requeue:batch);
          progress := true;
          go ()
    in
    go ()
  in
  (* Planned hot upgrade of one worker seat: stop admitting to it
     (find_seat skips it), let the in-flight batch drain, shut the old
     generation down cleanly (empty batch = shutdown, then reap the
     exit), boot the next generation on a fresh PE, and only then
     answer the deferred upgrade request — the commit point. Client
     requests keep flowing through the other seats the whole time, and
     requests bound for this seat simply wait in [pending]. *)
  let try_upgrade progress =
    match !upgrading with
    | None -> ()
    | Some (widx, slot, started) -> (
      let w = workers.(widx) in
      match w.w_state with
      | W_busy _ -> () (* still draining; the reply will wake us *)
      | W_parked ->
        (match Vpe_api.resume cenv w.w_vpe with
        | Ok () ->
          w.w_state <- W_idle;
          w.w_idle_since <- now ()
        | Error _ -> w.w_state <- W_dead);
        progress := true
      | W_dead ->
        ignore
          (Gate.reply cenv req ~slot
             (Wire.encode_admit ~err:Errno.E_vpe_gone ~seq:Wire.upgrade_seq));
        upgrading := None;
        progress := true
      | W_idle ->
        let old_vpe = w.w_vpe.Vpe_api.vpe_id in
        let old_sel = w.w_sgate.Gate.sg_user.Env.eu_sel in
        ignore
          (Gate.send cenv w.w_sgate
             (Wire.encode_batch ~gen:w.w_gen [])
             ~reply:(wreply, 0L) ());
        ignore (Vpe_api.wait cenv w.w_vpe);
        (* drop our gate into the dead generation so the dispatcher's
           selector space does not leak across upgrades *)
        ignore (Syscalls.revoke cenv ~sel:old_sel);
        stats.p_retired_vpes <- old_vpe :: stats.p_retired_vpes;
        w.w_gen <- w.w_gen + 1;
        (match spawn_worker widx with
        | Error _ ->
          w.w_state <- W_dead;
          ignore
            (Gate.reply cenv req ~slot
               (Wire.encode_admit ~err:Errno.E_vpe_gone ~seq:Wire.upgrade_seq))
        | Ok (vpe, sg) ->
          w.w_vpe <- vpe;
          w.w_sgate <- sg;
          w.w_state <- W_idle;
          w.w_idle_since <- now ();
          (match (breakers, breaker_cfg) with
          | Some arr, Some kc -> arr.(widx) <- Gateway.breaker_state kc
          | _ -> ());
          let cycles = now () - started in
          stats.p_upgrades <- stats.p_upgrades + 1;
          Stats.add stats.p_upgrade_cycles (float_of_int cycles);
          emit
            (Event.Gw_upgrade
               { pe = my_pe; pool = cfg.name;
                 target = Printf.sprintf "worker%d" widx; cycles });
          ignore
            (Gate.reply cenv req ~slot
               (Wire.encode_admit ~err:Errno.E_ok ~seq:Wire.upgrade_seq)));
        upgrading := None;
        progress := true)
  in
  let flush_notices progress =
    let rec go () =
      if Dq.length notices > 0 then begin
        let items = Dq.take notices notice_max in
        match Gate.send cenv comp (Wire.encode_notice items) ~reply:(ackg, 0L) () with
        | Ok () ->
          progress := true;
          go ()
        | Error _ ->
          (* out of notice credits (client has not replied yet) or a
             transient: try again next round *)
          Dq.push_front_list notices items
      end
    in
    go ()
  in
  let try_finish () =
    match !drain_slot with
    | Some slot
      when Dq.length pending = 0 && !inflight = 0 && Dq.length notices = 0
           && !upgrading = None ->
      ignore
        (Gate.reply cenv req ~slot
           (Wire.encode_admit ~err:Errno.E_ok ~seq:Wire.drain_seq));
      drain_slot := None;
      (* Wake parked workers first: the shutdown batch below would
         otherwise block forever on their parked send gates. *)
      Array.iter
        (fun w ->
          if w.w_state = W_parked then begin
            ignore (Vpe_api.resume cenv w.w_vpe);
            w.w_state <- W_idle
          end)
        workers;
      Array.iter
        (fun w ->
          match w.w_state with
          | W_dead -> ()
          | _ ->
            ignore
              (Gate.send cenv w.w_sgate
                 (Wire.encode_batch ~gen:w.w_gen [])
                 ~reply:(wreply, 0L) ());
            ignore (Vpe_api.wait cenv w.w_vpe))
        workers;
      true
    | _ -> false
  in
  let drain_gate g handler progress =
    let rec go () =
      match Gate.fetch cenv g with
      | Some msg ->
        handler msg;
        progress := true;
        go ()
      | None -> ()
    in
    go ()
  in
  let gates = [ req; wreply; ackg ] in
  let rec loop () =
    let progress = ref false in
    drain_gate req handle_req progress;
    drain_gate wreply handle_wreply progress;
    drain_gate ackg handle_ack progress;
    if plan_enabled || breaker_on then check_watchdogs progress;
    try_scale progress;
    try_upgrade progress;
    dispatch progress;
    flush_notices progress;
    if try_finish () then 0
    else if !progress then loop ()
    else if plan_enabled || elastic || breaker_on then begin
      (* a crashed worker never answers (watchdog), and scale/breaker
         decisions run on a clock: poll instead of parking on the
         gates. A bucket-only gateway deliberately does NOT arm
         polling — throttling is decided at message arrival, so its
         idle behavior stays bit-identical to a gateway-less pool. *)
      Process.wait disp_poll;
      loop ()
    end
    else begin
      let i, msg = Gate.recv_any cenv gates in
      (match i with
      | 0 -> handle_req msg
      | 1 -> handle_wreply msg
      | _ -> handle_ack msg);
      loop ()
    end
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
    let stats = make_stats ~workers:cfg.workers in
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
    let* () = Vpe_api.run env disp (dispatcher_body cfg stats) in
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
