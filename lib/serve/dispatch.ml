module Stats = M3_sim.Stats
module Event = M3_obs.Event
module Errno = M3.Errno
open Counters

(* --- policy ------------------------------------------------------------- *)

(* Up to [batch_max] requests per batch, and only when more than
   [batch_threshold] are queued: below it requests go singly, for
   latency. *)
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
let notice_max = 5 (* done items per completion notice *)

type stats = pool_stats

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

(* --- queues --------------------------------------------------------------- *)

(* The pending and notice queues are FIFO, except that a dead worker's
   requests go back to the head, so retries do not also eat the tail
   latency of the whole queue. *)
let push_front q xs =
  let head = Queue.of_seq (List.to_seq xs) in
  Queue.transfer q head;
  Queue.transfer head q

let take q k =
  let rec go k acc =
    if k = 0 then List.rev acc
    else match Queue.take_opt q with None -> List.rev acc | Some x -> go (k - 1) (x :: acc)
  in
  go k []

(* Strike the queued copy of [seq] and return its admission cycle, or
   -1 if no copy waits. *)
let strike q seq =
  let at = ref (-1) and kept = Queue.create () in
  Queue.iter
    (fun (((r : Wire.request), a) as item) ->
      if !at < 0 && r.seq = seq then at := a else Queue.push item kept)
    q;
  Queue.clear q;
  Queue.transfer kept q;
  !at

(* --- state -------------------------------------------------------------- *)

type state =
  | Idle
  | Busy of { batch : (Wire.request * int) list; since : int }
  | Parked
  | Dead

type seat = {
  idx : int;
  mutable gen : int;
  mutable restarts : int;
  mutable state : state;
  mutable idle_since : int;
  breaker : Gateway.breaker_state option;
}

type fx = {
  now : unit -> int;
  backlog : unit -> int;
  reply : slot:int -> err:Errno.t -> seq:int -> unit;
  send_batch : seat:int -> gen:int -> Wire.request list -> bool;
  notify : Wire.done_item list -> bool;
  respawn : seat:int -> boot:bool -> int option;
  shutdown : seat:int -> gen:int -> unit;
  suspend : seat:int -> settle:bool -> bool;
  resume : seat:int -> bool;
  emit : Event.t -> unit;
}

type upgrade = { u_seat : int; u_slot : int; u_started : int }

type t = {
  fx : fx;
  name : string;
  pe : int;
  queue_limit : int;
  watchdog : int;
  min_workers : int;
  elastic : bool;
  watchdogs : bool; (* a fault plan or breakers: a batch may never come back *)
  polls : bool; (* some decision runs on the clock rather than on a message *)
  seats : seat array;
  buckets : Gateway.buckets option;
  stats : stats;
  pending : (Wire.request * int) Queue.t; (* with the admission cycle *)
  notices : Wire.done_item Queue.t;
  completed : (int, unit) Hashtbl.t; (* seqs already delivered *)
  mutable inflight : int;
  mutable drain_slot : int option;
  mutable upgrading : upgrade option; (* at most one at a time *)
  mutable last_scale : int;
}

let now t = t.fx.now ()

(* Seats above the floor park before the pool opens, so clients never
   race the capture traffic. Without a kernel scheduler the suspend
   fails and the pool stays static. A bucket-only gateway does not
   poll: throttling is decided at message arrival, so its idle
   behaviour is a gateway-less pool's. *)
let create ~name ~pe ~workers ~min_workers ~queue_limit ~watchdog ~gateway
    ~faults stats fx =
  let breaker_cfg, buckets =
    match gateway with
    | Some { Gateway.g_breaker; g_bucket } -> (g_breaker, Option.map Gateway.buckets g_bucket)
    | None -> (None, None)
  in
  let boot idx =
    (* a pool that cannot staff every seat never opens *)
    if fx.respawn ~seat:idx ~boot:true = None then
      failwith (Printf.sprintf "%s: worker %d did not boot" name idx);
    { idx; gen = 0; restarts = 0; state = Idle; idle_since = fx.now ();
      breaker = Option.map Gateway.breaker_state breaker_cfg }
  in
  let seats = Array.init workers boot in
  for i = min_workers to workers - 1 do
    if fx.suspend ~seat:i ~settle:true then seats.(i).state <- Parked
  done;
  let elastic = min_workers < workers in
  let watchdogs = faults || breaker_cfg <> None in
  { fx; name; pe; queue_limit; watchdog; min_workers; elastic; watchdogs;
    polls = watchdogs || elastic; seats; buckets; stats;
    pending = Queue.create (); notices = Queue.create ();
    completed = Hashtbl.create 256; inflight = 0; drain_slot = None;
    upgrading = None; last_scale = -scale_cooldown }

let upgrading t s = match t.upgrading with Some u -> u.u_seat = s.idx | None -> false

let idle t s =
  s.state <- Idle;
  s.idle_since <- now t

(* --- breakers ----------------------------------------------------------- *)

(* Count and announce a transition: [Open] is a trip, [Half_open] a
   probe, [Closed] a close. *)
let breaker_moved t s phase =
  let st = t.stats in
  (match phase with
  | Gateway.Open -> st.p_trips <- st.p_trips + 1
  | Gateway.Half_open -> st.p_probes <- st.p_probes + 1
  | Gateway.Closed -> st.p_closes <- st.p_closes + 1);
  t.fx.emit
    (Event.Gw_break
       { pe = t.pe; pool = t.name; worker = s.idx; phase = Gateway.phase_name phase })

let breaker_error t s =
  match s.breaker with
  | Some k -> if Gateway.on_error k ~now:(now t) then breaker_moved t s Gateway.Open
  | None -> ()

(* Every live seat's breaker is Open with its cooldown still running:
   fast-fail rather than queue behind a watchdog wait. *)
let unavailable t =
  Option.is_some t.seats.(0).breaker
  && Array.for_all
       (fun s ->
         s.state = Dead
         || match s.breaker with Some k -> not (Gateway.would_allow k ~now:(now t)) | None -> false)
       t.seats

(* --- admission ---------------------------------------------------------- *)

let admit t ~slot ~client (rq : Wire.request) =
  let st = t.stats in
  if match t.buckets with Some b -> not (Gateway.take b ~client ~now:(now t)) | None -> false
  then begin
    st.p_throttled <- st.p_throttled + 1;
    t.fx.emit (Event.Gw_throttle { pe = t.pe; pool = t.name; client; seq = rq.seq });
    t.fx.reply ~slot ~err:Errno.E_throttled ~seq:rq.seq
  end
  else if unavailable t then begin
    st.p_unavail <- st.p_unavail + 1;
    t.fx.reply ~slot ~err:Errno.E_unavailable ~seq:rq.seq
  end
  else
    let depth = Queue.length t.pending + t.inflight + t.fx.backlog () in
    if depth >= t.queue_limit then begin
      st.p_rejected <- st.p_rejected + 1;
      t.fx.emit (Event.Serve_reject { pe = t.pe; pool = t.name; seq = rq.seq; depth });
      t.fx.reply ~slot ~err:Errno.E_overload ~seq:rq.seq
    end
    else begin
      st.p_admitted <- st.p_admitted + 1;
      if depth > st.p_max_depth then st.p_max_depth <- depth;
      t.fx.emit (Event.Serve_admit { pe = t.pe; pool = t.name; seq = rq.seq; depth });
      Queue.push (rq, now t) t.pending;
      t.fx.reply ~slot ~err:Errno.E_ok ~seq:rq.seq
    end

let request t ~slot = function
  | Wire.Drain -> t.drain_slot <- Some slot
  | Wire.Upgrade i ->
    if i < 0 || i >= Array.length t.seats || t.upgrading <> None then
      t.fx.reply ~slot ~err:Errno.E_inv_args ~seq:Wire.upgrade_seq
    else
      (* answered once the new generation serves: the commit point *)
      t.upgrading <- Some { u_seat = i; u_slot = slot; u_started = now t }
  | Wire.Request { client; req } -> admit t ~slot ~client req

(* --- completions -------------------------------------------------------- *)

let rec admitted_in batch seq =
  match batch with
  | [] -> -1
  | ((r : Wire.request), at) :: rest -> if r.seq = seq then at else admitted_in rest seq

(* One completion path for live and retired generations. A live reply
   answers the seat's [batch]. A retired generation's reply comes after
   its batch was requeued: harvesting it — delivering each item not yet
   delivered and striking its requeued copy — turns recovery's
   at-least-once into exactly-once for work that did execute.
   [p_deduped] counts live duplicates and harvests. *)
let rec settle t s ~live batch = function
  | [] -> ()
  | (d : Wire.done_item) :: rest ->
    let st = t.stats in
    if Hashtbl.mem t.completed d.d_seq then begin
      if live then st.p_deduped <- st.p_deduped + 1
    end
    else begin
      if not live then st.p_deduped <- st.p_deduped + 1;
      let admitted = if live then admitted_in batch d.d_seq else strike t.pending d.d_seq in
      Hashtbl.replace t.completed d.d_seq ();
      if admitted >= 0 then begin
        let lat = now t - admitted in
        Stats.add st.p_disp_latency (float_of_int lat);
        t.fx.emit (Event.Serve_done { pe = t.pe; pool = t.name; seq = d.d_seq; cycles = lat })
      end;
      Stats.add st.p_worker_service.(s.idx) (float_of_int d.d_cycles);
      if Errno.equal d.d_err Errno.E_ok then st.p_completed <- st.p_completed + 1
      else st.p_failed <- st.p_failed + 1;
      Queue.push d t.notices
    end;
    settle t s ~live batch rest

let reply t ~seat ~gen dones =
  if seat >= 0 && seat < Array.length t.seats then
    let s = t.seats.(seat) in
    if gen <> s.gen then settle t s ~live:false [] dones
    else
      match s.state with
      | Busy { batch; _ } -> (
        idle t s;
        t.inflight <- t.inflight - List.length batch;
        settle t s ~live:true batch dones;
        match s.breaker with
        | Some k when List.for_all (fun (d : Wire.done_item) -> Errno.equal d.d_err Errno.E_ok) dones
          ->
          if Gateway.on_success k then breaker_moved t s Gateway.Closed
        | _ -> breaker_error t s)
      | Idle | Parked | Dead -> ()

(* --- seat life cycle ---------------------------------------------------- *)

let requeue t batch =
  push_front t.pending batch;
  t.stats.p_retried <- t.stats.p_retried + List.length batch

(* The one path for crash replacement and upgrade: retire the seat's
   generation, whose replies are harvested from now on, and if [boot]
   start the next one on a fresh PE. *)
let respawn t s ~boot =
  s.gen <- Wire.next_gen s.gen;
  let pe = t.fx.respawn ~seat:s.idx ~boot in
  if pe = None then s.state <- Dead else idle t s;
  pe

(* A crashed or unreachable worker is replaced, once per seat. *)
let replace t s =
  let boot = s.restarts < max_restarts in
  if boot then s.restarts <- s.restarts + 1;
  match respawn t s ~boot with
  | Some pe ->
    t.stats.p_restarts <- t.stats.p_restarts + 1;
    t.stats.p_restart_cycle <- now t;
    t.fx.emit (Event.Serve_restart { pe; pool = t.name; worker = s.idx; attempt = s.restarts })
  | None -> ()

let resume t s =
  let woke = t.fx.resume ~seat:s.idx in
  if woke then idle t s else s.state <- Dead;
  woke

let shutdown t s = t.fx.shutdown ~seat:s.idx ~gen:s.gen

(* --- one round ----------------------------------------------------------- *)

let watchdogs t =
  Array.fold_left
    (fun progress s ->
      match s.state with
      | Busy { batch; since } when now t - since > t.watchdog ->
        t.inflight <- t.inflight - List.length batch;
        requeue t batch;
        (match s.breaker with
        | None -> replace t s
        | Some k ->
          (* Slow is not provably dead: trip the breaker but keep the
             worker, so a half-open probe can test it; the generation
             bump retires the reply it still owes. *)
          if Gateway.on_timeout k ~now:(now t) then breaker_moved t s Gateway.Open;
          s.gen <- Wire.next_gen s.gen;
          idle t s);
        true
      | _ -> progress)
    false t.seats

(* Grow on backlog, shrink on sustained idleness, at most once per
   cooldown window so capture/restore costs cannot thrash. Waking is
   optimistic: the worker's send gate stays parked until the kernel
   places it, and the first batch rides the parked endpoint. *)
let scale t =
  if not (t.elastic && now t - t.last_scale >= scale_cooldown) then false
  else begin
    let st = t.stats in
    let active =
      Array.fold_left (fun a s -> match s.state with Parked | Dead -> a | _ -> a + 1) 0 t.seats
    in
    let backlog = Queue.length t.pending + t.inflight in
    let scaled dir =
      t.last_scale <- now t;
      t.fx.emit (Event.Pool_scale { pe = t.pe; pool = t.name; dir; active = active + dir })
    in
    if backlog > grow_depth * Stdlib.max 1 active then
      match Array.find_opt (fun s -> s.state = Parked) t.seats with
      | None -> false
      | Some s ->
        let woke = resume t s in
        if woke then begin
          st.p_scale_ups <- st.p_scale_ups + 1;
          scaled 1
        end;
        woke
    else begin
      (* park the highest-index aged-idle worker, so wakes refill in
         index order; a failed suspend raced a placement change *)
      let aged s = s.state = Idle && now t - s.idle_since >= shrink_idle && not (upgrading t s) in
      (if backlog = 0 && active > t.min_workers then
         match List.find_opt aged (List.rev (Array.to_list t.seats)) with
         | None -> ()
         | Some s ->
           if t.fx.suspend ~seat:s.idx ~settle:false then begin
             s.state <- Parked;
             st.p_scale_downs <- st.p_scale_downs + 1;
             scaled (-1)
           end);
      false
    end
  end

(* A planned upgrade of one seat: dispatch skips it, its batch drains,
   the old generation shuts down, the next boots on a fresh PE, and
   only then is the request answered — the commit point. Other seats
   serve throughout; requests for this one wait in the queue. *)
let upgrade t =
  match t.upgrading with
  | None -> false
  | Some { u_seat; u_slot; u_started } ->
    let s = t.seats.(u_seat) in
    let answer err =
      t.fx.reply ~slot:u_slot ~err ~seq:Wire.upgrade_seq;
      t.upgrading <- None
    in
    match s.state with
    | Busy _ -> false (* still draining; the reply will wake us *)
    | Parked ->
      ignore (resume t s);
      true
    | Dead ->
      answer Errno.E_vpe_gone;
      true
    | Idle ->
      shutdown t s;
      (match respawn t s ~boot:true with
      | None -> answer Errno.E_vpe_gone
      | Some _ ->
        Option.iter Gateway.reset s.breaker;
        let cycles = now t - u_started in
        t.stats.p_upgrades <- t.stats.p_upgrades + 1;
        Stats.add t.stats.p_upgrade_cycles (float_of_int cycles);
        t.fx.emit
          (Event.Gw_upgrade
             { pe = t.pe; pool = t.name; target = Printf.sprintf "worker%d" u_seat; cycles });
        answer Errno.E_ok);
      true

(* Up to [k] requests not completed yet: a requeued copy whose
   completion was harvested meanwhile is dropped here. *)
let rec take_fresh t k acc =
  if k = 0 then List.rev acc
  else
    match Queue.take_opt t.pending with
    | None -> List.rev acc
    | Some ((rq, _) as item) ->
      if Hashtbl.mem t.completed rq.Wire.seq then begin
        t.stats.p_deduped <- t.stats.p_deduped + 1;
        take_fresh t k acc
      end
      else take_fresh t (k - 1) (item :: acc)

(* [probe]: an open breaker's single canary request, announced only
   with a request to carry: a probe that went out empty would leave
   the breaker half-open, and the seat denied, for good. *)
let send t s ~probe =
  let depth = Queue.length t.pending in
  let size = if probe || depth <= batch_threshold then 1 else Stdlib.min batch_max depth in
  match take_fresh t size [] with
  | [] -> () (* everything taken was a duplicate *)
  | batch ->
    (match s.breaker with
    | Some k when probe ->
      Gateway.on_probe k ~now:(now t);
      breaker_moved t s Gateway.Half_open
    | _ -> ());
    if t.fx.send_batch ~seat:s.idx ~gen:s.gen (List.map fst batch) then begin
      let n = List.length batch and st = t.stats in
      s.state <- Busy { batch; since = now t };
      t.inflight <- t.inflight + n;
      st.p_batches <- st.p_batches + 1;
      st.p_batched <- st.p_batched + n;
      t.fx.emit (Event.Serve_batch { pe = t.pe; pool = t.name; worker = s.idx; size = n })
    end
    else begin
      (* the worker is gone, or owes replies for all its credits; a
         half-open breaker must trip back to Open or its probe slot
         would leak *)
      breaker_error t s;
      requeue t batch;
      replace t s
    end

(* While requests wait, fill the first seat that is idle, not
   mid-upgrade and admitted by its breaker, then look again from seat
   0. *)
let rec dispatch t i progress =
  if Queue.length t.pending = 0 || i >= Array.length t.seats then progress
  else
    let s = t.seats.(i) in
    let verdict =
      match (s.state, s.breaker) with
      | Idle, _ when upgrading t s -> Gateway.Deny
      | Idle, Some k -> Gateway.admit k ~now:(now t)
      | Idle, None -> Gateway.Allow
      | (Busy _ | Parked | Dead), _ -> Gateway.Deny
    in
    match verdict with
    | Gateway.Deny -> dispatch t (i + 1) progress
    | Gateway.Allow | Gateway.Probe ->
      send t s ~probe:(verdict = Gateway.Probe);
      dispatch t 0 true

(* A refused notice waits for the client's acks to refund credits. *)
let rec flush_notices t progress =
  if Queue.length t.notices = 0 then progress
  else
    let items = take t.notices notice_max in
    if t.fx.notify items then flush_notices t true
    else begin
      push_front t.notices items;
      progress
    end

(* Drained: answer the drain marker, wake the parked workers (a
   shutdown batch would block on a parked send gate), shut every
   worker down. *)
let finish t =
  match t.drain_slot with
  | Some slot
    when Queue.length t.pending = 0 && t.inflight = 0 && Queue.length t.notices = 0
         && t.upgrading = None ->
    t.fx.reply ~slot ~err:Errno.E_ok ~seq:Wire.drain_seq;
    t.drain_slot <- None;
    Array.iter (fun s -> if s.state = Parked then ignore (resume t s)) t.seats;
    Array.iter (fun s -> if s.state <> Dead then shutdown t s) t.seats;
    true
  | _ -> false

type inbox = Requests | Replies | Acks
type outcome = Finished | Again | Poll | Park

let rec drain fetch box progress = if fetch box then drain fetch box true else progress

let round t ~fetch =
  let progress = drain fetch Requests false in
  let progress = drain fetch Replies progress in
  let progress = drain fetch Acks progress in
  let progress = (t.watchdogs && watchdogs t) || progress in
  let progress = scale t || progress in
  let progress = upgrade t || progress in
  let progress = dispatch t 0 progress in
  let progress = flush_notices t progress in
  if finish t then Finished else if progress then Again else if t.polls then Poll else Park

let inflight t = t.inflight
let state t i = t.seats.(i).state
let queued t = List.of_seq (Seq.map (fun ((r : Wire.request), _) -> r.seq) (Queue.to_seq t.pending))
