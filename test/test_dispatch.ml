(* The dispatcher core on its own: fake effects, no simulation.

   - Unit cases: exactly-once delivery across a trip and a harvest, the
     harvest striking the requeued copy, a harvested request never
     being sent again, a probe waiting for a request to carry, nothing
     sent to a retired generation, the half-open probe, scale
     cooldown, upgrade drain, and generations past the wire's one
     byte.
   - An exhaustive small-scope check: two seats, four requests and
     exactly one crash, watchdog trip (with and without breakers) or
     upgrade, delivered in every order, with the invariants checked
     after every round. *)

module D = M3_serve.Dispatch
module Wire = M3_serve.Wire
module Gateway = M3_serve.Gateway
module Errno = M3.Errno
module Event = M3_obs.Event

let watchdog = 1_000
let batch_credits = 2 (* per worker, as the pool's send gates have *)

(* --- the world around the core ----------------------------------------- *)

type batch = { b_seat : int; b_worker : int; b_gen : int; b_seqs : int list }

(* Workers answer a batch only when the test delivers its reply, in
   send order per worker. Credits work as the DTU's do: a worker's
   replies refund its batch credits, the client's acks refund notice
   credits. With [trace], every effect and every delivery takes one
   cycle and effects are logged; without it time moves only when a
   test says so and nothing is logged, so that delivery orders that
   reach the same state leave the same world. *)
type world = {
  trace : bool;
  seats : int;
  stats : D.stats;
  mutable clock : int;
  requests : (int * Wire.client_msg) Queue.t;
  replies : (int * int * Wire.done_item list) Queue.t;
  mutable acks : int; (* in the ack inbox *)
  mutable acks_owed : int; (* notices the client has not acked yet *)
  mutable notice_credits : int;
  mutable slot : int;
  workers : int array; (* seat -> its worker, -1 if none *)
  mutable next_worker : int;
  credits : (int, int) Hashtbl.t; (* worker -> batch credits left *)
  mutable crashed : int list; (* workers whose batches vanish *)
  mutable owed : batch list; (* sent, reply not delivered; oldest first *)
  mutable sent : batch list; (* newest first *)
  mutable admitted : int list; (* sorted *)
  mutable notified : int list; (* seqs in completion notices, sorted *)
  mutable failing : int list; (* seqs the workers answer with an error *)
  mutable respawn_fails : bool;
  mutable log : string list; (* effects, newest first *)
  mutable events : (int * Event.t) list; (* with their cycle, newest first *)
  phases : string array; (* each seat's last breaker transition *)
  mutable upgraded : Errno.t list;
  mutable drained : bool;
  mutable violations : string list;
}

let violation w fmt = Printf.ksprintf (fun s -> w.violations <- s :: w.violations) fmt
let note w fmt = Printf.ksprintf (fun s -> if w.trace then w.log <- s :: w.log) fmt
let tick w = if w.trace then w.clock <- w.clock + 1
let insert x l = List.merge compare [ x ] l

let fx w =
  {
    D.now = (fun () -> w.clock);
    backlog = (fun () -> Queue.length w.requests);
    reply =
      (fun ~slot:_ ~err ~seq ->
        tick w;
        if seq = Wire.drain_seq then w.drained <- true
        else if seq = Wire.upgrade_seq then w.upgraded <- err :: w.upgraded
        else if Errno.equal err Errno.E_ok then w.admitted <- insert seq w.admitted);
    send_batch =
      (fun ~seat ~gen reqs ->
        tick w;
        let worker = w.workers.(seat) in
        let seqs = List.map (fun (r : Wire.request) -> r.seq) reqs in
        if worker < 0 then violation w "batch sent to seat %d, which has no worker" seat;
        let left = Option.value ~default:0 (Hashtbl.find_opt w.credits worker) in
        if left = 0 then false (* the DTU refuses a send without credits *)
        else begin
          Hashtbl.replace w.credits worker (left - 1);
          if List.exists (fun b -> b.b_seat = seat && b.b_gen = gen) w.owed then
            violation w "seat %d: batch carries generation %d, which a batch still owes" seat gen;
          List.iter
            (fun seq ->
              if List.mem seq w.notified then violation w "seq %d sent after its completion" seq)
            seqs;
          let b = { b_seat = seat; b_worker = worker; b_gen = gen; b_seqs = seqs } in
          note w "send seat%d gen%d [%s]" seat gen
            (String.concat "," (List.map string_of_int seqs));
          if w.trace then w.sent <- b :: w.sent;
          (* owed by worker, then in send order *)
          if not (List.mem worker w.crashed) then
            w.owed <- List.stable_sort (fun a b -> compare a.b_worker b.b_worker) (w.owed @ [ b ]);
          true
        end);
    notify =
      (fun items ->
        tick w;
        if w.notice_credits = 0 then false
        else begin
          w.notice_credits <- w.notice_credits - 1;
          w.acks_owed <- w.acks_owed + 1;
          List.iter
            (fun (d : Wire.done_item) ->
              if List.mem d.d_seq w.notified then violation w "seq %d completed twice" d.d_seq;
              w.notified <- insert d.d_seq w.notified)
            items;
          true
        end);
    respawn =
      (fun ~seat ~boot ->
        tick w;
        note w "respawn seat%d" seat;
        if boot && not w.respawn_fails then begin
          let worker = w.next_worker in
          w.next_worker <- worker + 1;
          w.workers.(seat) <- worker;
          Hashtbl.replace w.credits worker batch_credits;
          Some (100 + worker)
        end
        else begin
          w.workers.(seat) <- -1;
          None
        end);
    shutdown =
      (fun ~seat ~gen ->
        tick w;
        note w "shutdown seat%d gen%d" seat gen);
    suspend =
      (fun ~seat ~settle:_ ->
        tick w;
        note w "suspend seat%d" seat;
        true);
    resume =
      (fun ~seat ->
        tick w;
        note w "resume seat%d" seat;
        true);
    emit =
      (fun ev ->
        (match ev with Event.Gw_break { worker; phase; _ } -> w.phases.(worker) <- phase | _ -> ());
        if w.trace then w.events <- (w.clock, ev) :: w.events);
  }

let make ?(trace = true) ?(seats = 2) ?(min_workers = seats) ?(faults = false) ?gateway
    ?(notice_credits = 8) () =
  let w =
    {
      trace; seats; stats = D.make_stats ~workers:seats; clock = 0;
      requests = Queue.create (); replies = Queue.create (); acks = 0;
      acks_owed = 0; notice_credits; slot = 0; workers = Array.make seats (-1);
      next_worker = 0; credits = Hashtbl.create 8; crashed = []; owed = [];
      sent = []; admitted = []; notified = []; failing = [];
      respawn_fails = false; log = []; events = []; phases = Array.make seats "close";
      upgraded = [];
      drained = false; violations = [];
    }
  in
  let t =
    D.create ~name:"t" ~pe:0 ~workers:seats ~min_workers ~queue_limit:1_000 ~watchdog
      ~gateway ~faults w.stats (fx w)
  in
  (w, t)

let fetch w t = function
  | D.Requests -> (
    match Queue.take_opt w.requests with
    | Some (slot, msg) ->
      D.request t ~slot msg;
      true
    | None -> false)
  | D.Replies -> (
    match Queue.take_opt w.replies with
    | Some (seat, gen, dones) ->
      D.reply t ~seat ~gen dones;
      true
    | None -> false)
  | D.Acks ->
    w.acks > 0
    && begin
         w.acks <- w.acks - 1;
         true
       end

(* --- deliveries ---------------------------------------------------------- *)

let arrive w msg =
  tick w;
  w.slot <- w.slot + 1;
  Queue.push (w.slot, msg) w.requests

let request seq = Wire.Request { client = 0; req = { Wire.seq; rk = Wire.Echo 1 } }

(* The reply to [b], through the wire as a worker sends it: the
   generation keeps one byte. *)
let answer w b =
  tick w;
  w.owed <- List.filter (fun o -> o != b) w.owed;
  Hashtbl.replace w.credits b.b_worker (Hashtbl.find w.credits b.b_worker + 1);
  let dones =
    List.map
      (fun seq ->
        let d_err = if List.mem seq w.failing then Errno.E_inv_args else Errno.E_ok in
        { Wire.d_seq = seq; d_err; d_cycles = 1 })
      b.b_seqs
  in
  let seat, gen, dones =
    Wire.decode_worker_reply (Wire.encode_worker_reply ~worker:b.b_seat ~gen:b.b_gen dones)
  in
  Queue.push (seat, gen, dones) w.replies

let ack w =
  tick w;
  w.acks_owed <- w.acks_owed - 1;
  w.acks <- w.acks + 1;
  w.notice_credits <- w.notice_credits + 1

(* Every batch in flight is past the watchdog. *)
let expire w = w.clock <- w.clock + watchdog + 1

(* --- invariants ---------------------------------------------------------- *)

let busy_sizes w t =
  List.fold_left
    (fun n i -> match D.state t i with D.Busy { batch; _ } -> n + List.length batch | _ -> n)
    0
    (List.init w.seats Fun.id)

(* [strict]: with a single fault, a completed request is never left
   queued — its harvest struck the copy. *)
let check ?(strict = false) w t =
  if D.inflight t <> busy_sizes w t then
    violation w "inflight %d, busy batches hold %d" (D.inflight t) (busy_sizes w t);
  Hashtbl.iter (fun k c -> if c < 0 then violation w "worker %d credits %d" k c) w.credits;
  if w.notice_credits < 0 then violation w "notice credits %d" w.notice_credits;
  Array.iteri
    (fun i phase ->
      match D.state t i with
      | D.Busy _ -> ()
      | _ -> if phase = "probe" then violation w "seat %d is half-open with no probe out" i)
    w.phases;
  if strict then
    List.iter
      (fun seq -> if List.mem seq w.notified then violation w "completed seq %d still queued" seq)
      (D.queued t)

(* Run rounds the way the driver does, until one makes no progress. *)
let rounds ?strict w t =
  let rec go k =
    let o = D.round t ~fetch:(fetch w t) in
    check ?strict w t;
    if o = D.Again && k < 100 then go (k + 1) else o
  in
  go 0

(* Let time pass in [step]-cycle polls until [until] holds. *)
let idle ?(step = 1) ?(limit = 1_000) w t until =
  let rec go k =
    if not (until ()) then
      if k >= limit then Alcotest.fail "idle: condition never held"
      else begin
        w.clock <- w.clock + step;
        ignore (rounds w t);
        go (k + 1)
      end
  in
  go 0

let owed_of w seat = List.filter (fun b -> b.b_seat = seat) w.owed
let oldest w seat = List.hd (owed_of w seat)
let no_violations w = Alcotest.(check (list string)) "no violations" [] (List.rev w.violations)
let times x l = List.length (List.filter (( = ) x) l)
let sends_of w seq = List.length (List.filter (fun b -> List.mem seq b.b_seqs) w.sent)

let breaker_events w phase =
  List.length
    (List.filter (function _, Event.Gw_break { phase = p; _ } -> p = phase | _ -> false) w.events)

let breakers ?(cooldown = 5) () = Gateway.config ~breaker:(Gateway.breaker ~cooldown ()) ()

(* --- unit cases ------------------------------------------------------------ *)

(* A trip requeues the batch and a probe re-sends it; the tripped
   batch's late reply is then harvested, and the probe's live reply is
   a duplicate: one completion. *)
let test_exactly_once_across_trip () =
  let w, t = make ~seats:1 ~gateway:(breakers ~cooldown:3 ()) () in
  arrive w (request 0);
  ignore (rounds w t);
  let tripped = oldest w 0 in
  expire w;
  ignore (rounds w t);
  Alcotest.(check int) "tripped" 1 w.stats.p_trips;
  idle w t (fun () -> List.length (owed_of w 0) = 2);
  Alcotest.(check int) "one probe" 1 w.stats.p_probes;
  answer w tripped;
  ignore (rounds w t);
  answer w (oldest w 0);
  ignore (rounds w t);
  Alcotest.(check (list int)) "delivered once" [ 0 ] w.notified;
  Alcotest.(check int) "a harvest and a live duplicate" 2 w.stats.p_deduped;
  Alcotest.(check int) "the probe closed the breaker" 1 w.stats.p_closes;
  no_violations w

(* The tripped batch's reply arrives while its copy still waits out
   the breaker's cooldown: the harvest delivers it and strikes the
   copy, with the latency measured from the original admission. *)
let test_harvest_strikes_copy () =
  let w, t = make ~seats:1 ~gateway:(breakers ~cooldown:100 ()) () in
  arrive w (request 0);
  ignore (rounds w t);
  expire w;
  ignore (rounds w t);
  Alcotest.(check (list int)) "requeued" [ 0 ] (D.queued t);
  answer w (oldest w 0);
  ignore (rounds w t);
  Alcotest.(check (list int)) "copy struck" [] (D.queued t);
  Alcotest.(check (list int)) "delivered" [ 0 ] w.notified;
  Alcotest.(check int) "latency measured" 1 (M3_sim.Stats.count w.stats.p_disp_latency);
  Alcotest.(check int) "sent once" 1 (sends_of w 0);
  no_violations w

(* A request harvested while its re-sent copy is in flight, and whose
   copy a second trip then requeues, is dropped, not sent a third
   time. *)
let test_harvested_copy_not_resent () =
  let w, t = make ~gateway:(breakers ~cooldown:100 ()) () in
  arrive w (request 0);
  ignore (rounds w t);
  let first = oldest w 0 in
  expire w;
  ignore (rounds w t);
  Alcotest.(check int) "re-sent to the other seat" 1 (List.length (owed_of w 1));
  answer w first;
  ignore (rounds w t);
  Alcotest.(check (list int)) "harvested" [ 0 ] w.notified;
  expire w;
  ignore (rounds w t);
  Alcotest.(check int) "second trip" 2 w.stats.p_trips;
  Alcotest.(check int) "sent twice, never again" 2 (sends_of w 0);
  Alcotest.(check (list int)) "nothing queued" [] (D.queued t);
  answer w (oldest w 1);
  ignore (rounds w t);
  Alcotest.(check (list int)) "still delivered once" [ 0 ] w.notified;
  no_violations w

(* A probe goes out only with a request to carry. When a second trip
   requeues nothing but a harvested copy, the cooled-down breaker stays
   open instead of turning half-open with nothing out, and the next
   request is its probe. *)
let test_probe_waits_for_a_request () =
  let w, t = make ~gateway:(breakers ~cooldown:3 ()) () in
  arrive w (request 0);
  ignore (rounds w t);
  let first = oldest w 0 in
  expire w;
  ignore (rounds w t);
  answer w first;
  ignore (rounds w t);
  expire w;
  ignore (rounds w t);
  Alcotest.(check int) "both seats tripped" 2 w.stats.p_trips;
  Alcotest.(check (list int)) "the harvested copy was dropped" [] (D.queued t);
  Alcotest.(check int) "no probe without a request" 0 w.stats.p_probes;
  arrive w (request 1);
  ignore (rounds w t);
  Alcotest.(check (pair int (list int))) "seat 0 probes with the new request" (0, [ 1 ])
    (let b = List.hd w.sent in
     (b.b_seat, b.b_seqs));
  answer w (oldest w 0);
  ignore (rounds w t);
  Alcotest.(check int) "the probe closed seat 0's breaker" 1 (breaker_events w "close");
  Alcotest.(check (list int)) "each delivered once" [ 0; 1 ] (List.sort compare w.notified);
  no_violations w

(* A replaced worker's generation is retired: its late reply is
   harvested without freeing the seat, whose batches all carry the new
   generation and go to the new worker. A seat whose respawn fails
   gets nothing. *)
let test_nothing_sent_to_retired_generation () =
  let w, t = make ~seats:1 ~faults:true () in
  arrive w (request 0);
  ignore (rounds w t);
  let old = oldest w 0 in
  expire w;
  ignore (rounds w t);
  Alcotest.(check int) "replaced" 1 w.stats.p_restarts;
  answer w old;
  ignore (rounds w t);
  Alcotest.(check bool) "the seat still waits for the new worker" true
    (match D.state t 0 with D.Busy _ -> true | _ -> false);
  arrive w (request 1);
  ignore (rounds w t);
  Alcotest.(check (list int)) "queued behind the live batch" [ 1 ] (D.queued t);
  answer w (oldest w 0);
  ignore (rounds w t);
  answer w (oldest w 0);
  ignore (rounds w t);
  let after = List.filter (fun b -> b != old) w.sent in
  Alcotest.(check bool) "later batches: new generation, new worker" true
    (List.for_all (fun b -> b.b_gen = 1 && b.b_worker = 1) after);
  Alcotest.(check (list int)) "each delivered once" [ 0; 1 ] (List.sort compare w.notified);
  let w, t = make ~faults:true () in
  w.respawn_fails <- true;
  arrive w (request 0);
  ignore (rounds w t);
  expire w;
  ignore (rounds w t);
  Alcotest.(check bool) "seat 0 is dead" true (D.state t 0 = D.Dead);
  List.iter (fun s -> arrive w (request s)) [ 1; 2; 3 ];
  ignore (rounds w t);
  while w.owed <> [] do
    answer w (List.hd w.owed);
    ignore (rounds w t)
  done;
  Alcotest.(check int) "only seat 1 served after the failure" 1
    (List.length (List.filter (fun b -> b.b_seat = 0) w.sent));
  Alcotest.(check (list int)) "all delivered" [ 0; 1; 2; 3 ] (List.sort compare w.notified);
  no_violations w

(* After its cooldown a tripped breaker lets exactly one request
   through although four wait; a good reply closes it and batching
   resumes, a bad one trips it again. *)
let test_half_open_probe () =
  let run ~fail =
    let w, t = make ~seats:1 ~gateway:(breakers ~cooldown:50 ()) () in
    arrive w (request 0);
    ignore (rounds w t);
    List.iter (fun s -> arrive w (request s)) [ 1; 2; 3 ];
    ignore (rounds w t);
    expire w;
    ignore (rounds w t);
    Alcotest.(check (list int)) "all four wait" [ 0; 1; 2; 3 ] (D.queued t);
    idle w t (fun () -> w.stats.p_probes = 1);
    Alcotest.(check (list int)) "the probe carries one request" [ 0 ] (List.hd w.sent).b_seqs;
    if fail then w.failing <- [ 0 ];
    answer w (List.nth (owed_of w 0) 1);
    ignore (rounds w t);
    (w, t)
  in
  let w, _ = run ~fail:false in
  Alcotest.(check int) "closed" 1 (breaker_events w "close");
  Alcotest.(check (list int)) "then a batch" [ 1; 2; 3 ] (List.hd w.sent).b_seqs;
  no_violations w;
  let w, t = run ~fail:true in
  Alcotest.(check int) "tripped again" 2 (breaker_events w "trip");
  Alcotest.(check int) "no close" 0 (breaker_events w "close");
  Alcotest.(check (list int)) "the rest wait" [ 1; 2; 3 ] (D.queued t);
  no_violations w

(* Each scale decision comes at least [scale_cooldown] cycles after
   the previous one, and as soon as the cooldown allows. *)
let test_scale_cooldown () =
  let w, t = make ~min_workers:1 () in
  Alcotest.(check bool) "seat 1 starts parked" true (D.state t 1 = D.Parked);
  List.iter (fun s -> arrive w (request s)) [ 0; 1; 2 ];
  ignore (rounds w t);
  Alcotest.(check int) "grew on backlog" 1 w.stats.p_scale_ups;
  while w.owed <> [] do
    answer w (List.hd w.owed);
    ignore (rounds w t)
  done;
  idle ~step:100 ~limit:2_000 w t (fun () -> w.stats.p_scale_downs = 1);
  List.iter (fun s -> arrive w (request s)) [ 3; 4; 5; 6 ];
  ignore (rounds w t);
  Alcotest.(check int) "no growth inside the cooldown" 1 w.stats.p_scale_ups;
  idle ~step:100 ~limit:2_000 w t (fun () -> w.stats.p_scale_ups = 2);
  let decisions =
    List.filter_map
      (function at, Event.Pool_scale { dir; _ } -> Some (dir, at) | _ -> None)
      (List.rev w.events)
  in
  Alcotest.(check (list int)) "grow, shrink, grow" [ 1; -1; 1 ] (List.map fst decisions);
  (match List.map snd decisions with
  | [ grow; shrink; regrow ] ->
    Alcotest.(check bool) "the shrink waited out the cooldown" true
      (shrink - grow >= D.scale_cooldown);
    Alcotest.(check bool)
      (Printf.sprintf "the regrow came %d cycles after the shrink, within one poll of the cooldown"
         (regrow - shrink))
      true
      (regrow - shrink >= D.scale_cooldown && regrow - shrink < D.scale_cooldown + 100 + 10)
  | _ -> Alcotest.fail "three decisions");
  no_violations w

(* An upgrade waits for the seat's batch, sends nothing to the seat
   meanwhile, then shuts the old generation down, boots the next and
   only then answers. *)
let test_upgrade_drains_then_commits () =
  let w, t = make () in
  arrive w (request 0);
  ignore (rounds w t);
  arrive w (Wire.Upgrade 0);
  ignore (rounds w t);
  arrive w (request 1);
  arrive w (request 2);
  ignore (rounds w t);
  Alcotest.(check (list string)) "no shutdown while the batch is out" []
    (List.filter (fun l -> String.starts_with ~prefix:"shutdown" l) w.log);
  Alcotest.(check int) "not answered yet" 0 (List.length w.upgraded);
  answer w (oldest w 0);
  ignore (rounds w t);
  Alcotest.(check bool) "committed" true (w.upgraded = [ Errno.E_ok ]);
  Alcotest.(check int) "counted" 1 w.stats.p_upgrades;
  let order =
    List.filter
      (fun l ->
        String.starts_with ~prefix:"shutdown" l || String.starts_with ~prefix:"respawn seat0" l)
      (List.rev w.log)
  in
  Alcotest.(check (list string)) "boot, shut down, boot"
    [ "respawn seat0"; "shutdown seat0 gen0"; "respawn seat0" ] order;
  Alcotest.(check (list (pair int (list int))))
    "seat 0: its first batch, then the next generation's"
    [ (0, [ 0 ]); (1, [ 2 ]) ]
    (List.filter_map
       (fun b -> if b.b_seat = 0 then Some (b.b_gen, b.b_seqs) else None)
       (List.rev w.sent));
  Alcotest.(check int) "the waiting requests went to seat 1" 1
    (List.length (List.filter (fun b -> b.b_seat = 1) w.sent));
  no_violations w

(* Generations advance in the wire's width: 300 upgrades, one request
   each, all delivered, none taken for a retired generation's. *)
let test_generation_wraps () =
  let w, t = make ~seats:1 () in
  for i = 0 to 299 do
    arrive w (request i);
    ignore (rounds w t);
    arrive w (Wire.Upgrade 0);
    ignore (rounds w t);
    answer w (oldest w 0);
    ignore (rounds w t);
    while w.acks_owed > 0 do
      ack w;
      ignore (rounds w t)
    done
  done;
  Alcotest.(check int) "all committed" 300 w.stats.p_upgrades;
  Alcotest.(check int) "all delivered" 300 (List.length w.notified);
  Alcotest.(check int) "no reply mistaken for a retired one" 0 w.stats.p_deduped;
  no_violations w

(* --- exhaustive small scope ------------------------------------------------ *)

type fault = Crash | Trip | Upgrade

type scenario = {
  sc_name : string;
  sc_faults : bool;
  sc_breakers : bool;
  sc_fault : fault;
  sc_requests : int;
  sc_times : int; (* how often the fault strikes *)
}

type move = Arrive | Answer of int (* worker *) | Ack | Fault | Cool

type run = { w : world; t : D.t; mutable arrived : int; mutable fired : int; mutable cooled : int }

let cooldown = 3

let start sc =
  let gateway = if sc.sc_breakers then Some (breakers ~cooldown ()) else None in
  let w, t = make ~trace:false ~faults:sc.sc_faults ?gateway ~notice_credits:1 () in
  { w; t; arrived = 0; fired = 0; cooled = 0 }

let busy t i = match D.state t i with D.Busy _ -> true | _ -> false

let moves sc r =
  let w = r.w in
  (* the drain marker goes last, after the fault *)
  let n = sc.sc_requests in
  let arrive = if r.arrived < n || (r.arrived = n && r.fired = sc.sc_times) then [ Arrive ] else [] in
  let answers =
    List.sort_uniq compare (List.map (fun b -> b.b_worker) w.owed)
    |> List.map (fun k -> Answer k)
  in
  let ack = if w.acks_owed > 0 then [ Ack ] else [] in
  let fault =
    if r.fired = sc.sc_times || r.arrived > sc.sc_requests then []
    else
      match sc.sc_fault with
      | Crash -> if busy r.t 0 then [ Fault ] else []
      | Trip -> if busy r.t 0 || busy r.t 1 then [ Fault ] else []
      | Upgrade -> [ Fault ]
  in
  (* time passes only at a fault and, once after each, for the
     breakers' cooldown *)
  let cool = if sc.sc_breakers && r.cooled < r.fired then [ Cool ] else [] in
  arrive @ answers @ ack @ fault @ cool

let apply sc r m =
  let w = r.w in
  (match m with
  | Arrive ->
    arrive w (if r.arrived < sc.sc_requests then request r.arrived else Wire.Drain);
    r.arrived <- r.arrived + 1
  | Answer k -> answer w (List.find (fun b -> b.b_worker = k) w.owed)
  | Ack -> ack w
  | Fault -> (
    r.fired <- r.fired + 1;
    match sc.sc_fault with
    | Crash ->
      let k = w.workers.(0) in
      w.crashed <- k :: w.crashed;
      w.owed <- List.filter (fun b -> b.b_worker <> k) w.owed;
      expire w
    | Trip -> expire w
    | Upgrade -> arrive w (Wire.Upgrade 0))
  | Cool ->
    r.cooled <- r.cooled + 1;
    w.clock <- w.clock + cooldown);
  ignore (rounds ~strict:(sc.sc_times = 1) w r.t)

(* Nothing left to deliver: time passes until the pool drains. *)
let conclude sc r =
  let w = r.w in
  let rec wait k =
    if (not w.drained) && k < 200 then begin
      w.clock <- w.clock + 1;
      ignore (rounds ~strict:(sc.sc_times = 1) w r.t);
      wait (k + 1)
    end
  in
  wait 0;
  if not w.drained then violation w "%s: never drained" sc.sc_name;
  List.iter
    (fun seq ->
      if times seq w.notified <> 1 then
        violation w "%s: admitted seq %d delivered %d times" sc.sc_name seq (times seq w.notified))
    w.admitted;
  if sc.sc_fault = Upgrade && w.upgraded <> [ Errno.E_ok ] then
    violation w "%s: the upgrade did not commit" sc.sc_name

let move_name = function
  | Arrive -> "arrive"
  | Answer k -> Printf.sprintf "reply%d" k
  | Ack -> "ack"
  | Fault -> "fault"
  | Cool -> "cool"

(* Depth first over every delivery order. A state is snapshotted with
   [Marshal] (the core's effect closures point into its world, so the
   copy is self-contained) and each move but the last continues from
   a copy; a state already explored is not explored again, but its
   schedules still count. *)
let explore sc =
  let seen = Hashtbl.create 4096 in
  let states = ref 0 in
  let rec count path r =
    let snap = Marshal.to_string r [ Marshal.Closures ] in
    let key = Digest.string snap in
    match Hashtbl.find_opt seen key with
    | Some n -> n
    | None ->
      incr states;
      let n =
        match moves sc r with
        | [] when r.fired < sc.sc_times -> 0 (* done before the faults could strike *)
        | [] ->
          conclude sc r;
          if r.w.violations <> [] then
            Alcotest.failf "%s, after %s: %s" sc.sc_name
              (String.concat " " (List.rev_map move_name path))
              (String.concat "; " (List.rev r.w.violations));
          1
        | ms ->
          let last = List.length ms - 1 in
          List.fold_left
            (fun acc (i, m) ->
              let r = if i = last then r else (Marshal.from_string snap 0 : run) in
              apply sc r m;
              if r.w.violations <> [] then
                Alcotest.failf "%s, after %s: %s" sc.sc_name
                  (String.concat " " (List.rev_map move_name (m :: path)))
                  (String.concat "; " (List.rev r.w.violations));
              acc + count (m :: path) r)
            0
            (List.mapi (fun i m -> (i, m)) ms)
      in
      Hashtbl.replace seen key n;
      n
  in
  let schedules = count [] (start sc) in
  (schedules, !states)

(* Four requests where that stays under a second; a trip retires
   both busy seats at once and leaves two stale replies to interleave,
   so the trip scopes take three. A harvested request is requeued
   again only by a second trip, which one request shows. *)
let scenarios =
  let sc ?(faults = false) ?(breakers = false) ?(times = 1) name fault requests =
    { sc_name = name; sc_faults = faults; sc_breakers = breakers; sc_fault = fault;
      sc_requests = requests; sc_times = times }
  in
  [
    sc ~faults:true "crash" Crash 4;
    sc ~faults:true "trip" Trip 3;
    sc ~breakers:true "trip with breakers" Trip 3;
    sc "upgrade" Upgrade 4;
    sc ~breakers:true ~times:2 "two trips with breakers" Trip 1;
  ]

let test_exhaustive () =
  let t0 = Sys.time () in
  let counts = List.map (fun sc -> (sc.sc_name, explore sc)) scenarios in
  let total = List.fold_left (fun a (_, (n, _)) -> a + n) 0 counts in
  Printf.printf "serve.dispatch exhaustive: %d schedules (%s) in %.2f s\n" total
    (String.concat ", "
       (List.map (fun (n, (c, s)) -> Printf.sprintf "%s %d over %d states" n c s) counts))
    (Sys.time () -. t0);
  List.iter
    (fun (n, (c, _)) -> Alcotest.(check bool) (n ^ " explored more than one order") true (c > 1))
    counts

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "serve.dispatch",
      [
        tc "exactly-once across a trip and a harvest" test_exactly_once_across_trip;
        tc "a harvest strikes the requeued copy" test_harvest_strikes_copy;
        tc "a harvested request is not sent again" test_harvested_copy_not_resent;
        tc "a probe waits for a request to carry" test_probe_waits_for_a_request;
        tc "nothing is sent to a retired generation" test_nothing_sent_to_retired_generation;
        tc "a half-open breaker sends one probe" test_half_open_probe;
        tc "scale decisions respect the cooldown" test_scale_cooldown;
        tc "an upgrade drains, then commits" test_upgrade_drains_then_commits;
        tc "generations wrap in the wire's width" test_generation_wraps;
        tc "every delivery order, small scope" test_exhaustive;
      ] );
  ]
