(* Discrete-event engine, optionally partitioned for conservative
   parallel simulation on OCaml 5 domains.

   A partitioned engine holds one sub-engine (heap + clock) per
   partition. Within a partition events run exactly as in the classic
   single-heap engine; across partitions, events are routed through
   per-partition inbound queues and committed at window boundaries.
   The window length is the engine's lookahead — the minimum latency
   of any cross-partition interaction (the NoC hop latency, on this
   platform) — so every event a partition can generate for a peer
   falls strictly beyond the window currently executing, and all
   partitions can run a window concurrently without ever seeing an
   event in their past.

   Determinism: a partition executes its own heap in (key, push-order)
   sequence regardless of how partitions are mapped onto domains, and
   inbound queues are drained in (time, source partition, source
   sequence) order, so a seeded run commits the identical event
   schedule at 1, 2 or 4 domains. *)

type inbound = {
  ib_time : int;
  ib_src : int; (* sending partition *)
  ib_seq : int; (* sender-local sequence number *)
  ib_fn : unit -> unit;
}

type partition = {
  idx : int;
  queue : (unit -> unit) Heap.t;
  mutable pnow : int;
  mutable pprocessed : int;
  inbox_lock : Mutex.t;
  mutable inbox : inbound list; (* unordered; sorted at window drain *)
  mutable out_seq : int; (* next ib_seq minted by this partition *)
}

type t = {
  id : int;
  parts : partition array;
  domains : int;
  mutable lookahead : int;
  mutable hooks : (unit -> unit) list; (* newest first *)
  mutable running : bool;
  fail_lock : Mutex.t;
  mutable failure : exn option; (* first event exception of a parallel run *)
}

(* Engine ids key registries that outlive a single simulation (the
   m3fs server tables); engines are created from concurrently running
   domains ([Domainpool]), so minting must be atomic — a
   duplicated id would silently alias two simulations' registry
   entries. *)
let next_id = Atomic.make 0

(* The partition whose events the calling domain is currently
   executing. Domain-local so that concurrent domains — sub-engines of
   one partitioned run, or independent engines on a domain pool —
   never observe each other's context. *)
let context : (t * partition) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_ctx () = !(Domain.DLS.get context)

let with_ctx t part f =
  let cell = Domain.DLS.get context in
  let saved = !cell in
  cell := Some (t, part);
  Fun.protect ~finally:(fun () -> cell := saved) f

let create ?(partitions = 1) ?(domains = 1) () =
  if partitions <= 0 then invalid_arg "Engine.create: need >= 1 partition";
  if domains <= 0 then invalid_arg "Engine.create: need >= 1 domain";
  {
    id = Atomic.fetch_and_add next_id 1;
    parts =
      Array.init partitions (fun idx ->
          {
            idx;
            queue = Heap.create ();
            pnow = 0;
            pprocessed = 0;
            inbox_lock = Mutex.create ();
            inbox = [];
            out_seq = 0;
          });
    domains = min domains partitions;
    lookahead = 1;
    hooks = [];
    running = false;
    fail_lock = Mutex.create ();
    failure = None;
  }

let id t = t.id

let partitions t = Array.length t.parts

let domains t = t.domains

let lookahead t = t.lookahead

let set_lookahead t n =
  if n < 1 then invalid_arg "Engine.set_lookahead: need >= 1";
  t.lookahead <- n

let at_barrier t f = t.hooks <- f :: t.hooks

let run_hooks t = List.iter (fun f -> f ()) (List.rev t.hooks)

(* The partition the caller belongs to: the one it is executing when
   inside an event, partition 0 otherwise (setup code before [run]).
   With one partition this is always partition 0 — the classic
   engine. *)
let home t =
  match current_ctx () with
  | Some (t', p) when t' == t -> p
  | _ -> t.parts.(0)

let current_partition t = (home t).idx

let now t = (home t).pnow

let schedule_at t ~time f =
  let p = home t in
  if time < p.pnow then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time p.pnow);
  Heap.push p.queue ~key:time f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let p = home t in
  Heap.push p.queue ~key:(p.pnow + delay) f

let with_partition t i f =
  if i < 0 || i >= Array.length t.parts then
    invalid_arg "Engine.with_partition: no such partition";
  with_ctx t t.parts.(i) f

let schedule_on t ~partition ~time f =
  if partition < 0 || partition >= Array.length t.parts then
    invalid_arg "Engine.schedule_on: no such partition";
  let dst = t.parts.(partition) in
  match current_ctx () with
  | Some (t', src) when t' == t && src.idx <> partition && t.running ->
    (* Cross-partition, mid-run: the destination may already be deep
       inside the window the sender is still executing, so the event
       must land beyond the current window — which the lookahead
       guarantees exactly when the caller respects it. *)
    if time < src.pnow + t.lookahead then
      invalid_arg
        (Printf.sprintf
           "Engine.schedule_on: time %d violates lookahead %d (now %d)" time
           t.lookahead src.pnow);
    let ib =
      { ib_time = time; ib_src = src.idx; ib_seq = src.out_seq; ib_fn = f }
    in
    src.out_seq <- src.out_seq + 1;
    Mutex.protect dst.inbox_lock (fun () -> dst.inbox <- ib :: dst.inbox)
  | _ ->
    (* Same partition, or single-threaded setup: plain scheduling. *)
    with_ctx t dst (fun () -> schedule_at t ~time f)

(* --- execution --------------------------------------------------------- *)

let record_failure t e =
  Mutex.protect t.fail_lock (fun () ->
      match t.failure with
      | None -> t.failure <- Some e
      | Some _ -> ())

let take_failure t =
  match t.failure with
  | None -> ()
  | Some e ->
    t.failure <- None;
    raise e

(* Commit inbound events into their heaps, in (time, src, seq) order so
   the heap's FIFO tie-break makes the schedule independent of arrival
   interleaving. Runs on the coordinating domain between windows. *)
let drain_inboxes t =
  Array.iter
    (fun p ->
      let inbound =
        Mutex.protect p.inbox_lock (fun () ->
            let l = p.inbox in
            p.inbox <- [];
            l)
      in
      match inbound with
      | [] -> ()
      | l ->
        let l =
          List.sort
            (fun a b ->
              if a.ib_time <> b.ib_time then compare a.ib_time b.ib_time
              else if a.ib_src <> b.ib_src then compare a.ib_src b.ib_src
              else compare a.ib_seq b.ib_seq)
            l
        in
        List.iter (fun ib -> Heap.push p.queue ~key:ib.ib_time ib.ib_fn) l)
    t.parts

(* Earliest uncommitted event across all partitions (inboxes already
   drained), or [max_int] when the engine ran dry. *)
let horizon t =
  Array.fold_left
    (fun acc p ->
      match Heap.min_key p.queue with Some k -> min acc k | None -> acc)
    max_int t.parts

(* Run one partition's events with keys in [.., stop): its own window.
   Exceptions are recorded, not propagated — a parallel run must reach
   its barrier so peers do not block forever. *)
let exec_window t p ~stop =
  with_ctx t p (fun () ->
      let continue = ref true in
      while !continue do
        match Heap.min_key p.queue with
        | Some k when k < stop -> (
          match Heap.pop p.queue with
          | Some (time, f) -> (
            p.pnow <- time;
            p.pprocessed <- p.pprocessed + 1;
            try f () with e -> record_failure t e)
          | None -> assert false)
        | Some _ | None -> continue := false
      done)

(* Window end for a horizon [h]: one lookahead ahead, clipped to the
   run limit (inclusive). *)
let window_stop t ~horizon:h ~limit =
  let stop = h + max 1 t.lookahead in
  if limit < max_int && stop > limit + 1 then limit + 1 else stop

let run_windows_seq t ~limit =
  let continue = ref true in
  while !continue do
    drain_inboxes t;
    let h = horizon t in
    if h = max_int || h > limit then continue := false
    else begin
      let stop = window_stop t ~horizon:h ~limit in
      Array.iter (fun p -> exec_window t p ~stop) t.parts;
      run_hooks t;
      take_failure t
    end
  done

let run_windows_par t ~limit =
  let d = t.domains in
  let count = Array.length t.parts in
  let lock = Mutex.create () in
  let start = Condition.create () in
  let finished = Condition.create () in
  (* 0 = idle, > 0 = run a window up to that stop, -1 = terminate. *)
  let order = ref 0 in
  let gen = ref 0 in
  let done_count = ref 0 in
  let exec_share w ~stop =
    let i = ref w in
    while !i < count do
      exec_window t t.parts.(!i) ~stop;
      i := !i + d
    done
  in
  let worker w () =
    let my_gen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock lock;
      while !gen = !my_gen do
        Condition.wait start lock
      done;
      my_gen := !gen;
      let stop = !order in
      Mutex.unlock lock;
      if stop < 0 then continue := false
      else exec_share w ~stop;
      Mutex.lock lock;
      incr done_count;
      Condition.signal finished;
      Mutex.unlock lock
    done
  in
  let doms = Array.init (d - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  let release stop =
    Mutex.lock lock;
    done_count := 0;
    order := stop;
    incr gen;
    Condition.broadcast start;
    Mutex.unlock lock
  in
  let await () =
    Mutex.lock lock;
    while !done_count < d - 1 do
      Condition.wait finished lock
    done;
    Mutex.unlock lock
  in
  Fun.protect
    ~finally:(fun () ->
      release (-1);
      Array.iter Domain.join doms)
    (fun () ->
      let continue = ref true in
      while !continue do
        drain_inboxes t;
        let h = horizon t in
        if h = max_int || h > limit then continue := false
        else begin
          let stop = window_stop t ~horizon:h ~limit in
          release stop;
          exec_share 0 ~stop;
          await ();
          run_hooks t;
          take_failure t
        end
      done)

let run_partitioned t ~limit =
  if t.domains <= 1 then run_windows_seq t ~limit
  else run_windows_par t ~limit

let enter_run t f =
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) f

let step_single p =
  match Heap.pop p.queue with
  | None -> false
  | Some (time, f) ->
    p.pnow <- time;
    p.pprocessed <- p.pprocessed + 1;
    f ();
    true

let run t =
  enter_run t (fun () ->
      if Array.length t.parts = 1 then begin
        (* Classic single-heap engine: the exact pre-partitioning event
           loop, no windows, no barriers. *)
        let p = t.parts.(0) in
        with_ctx t p (fun () -> while step_single p do () done);
        run_hooks t;
        p.pnow
      end
      else begin
        run_partitioned t ~limit:max_int;
        Array.fold_left (fun acc p -> max acc p.pnow) 0 t.parts
      end)

let run_until t ~time =
  enter_run t (fun () ->
      if Array.length t.parts = 1 then begin
        let p = t.parts.(0) in
        with_ctx t p (fun () ->
            let continue = ref true in
            while !continue do
              match Heap.min_key p.queue with
              | Some key when key <= time -> ignore (step_single p)
              | Some _ | None -> continue := false
            done);
        run_hooks t
      end
      else run_partitioned t ~limit:time;
      Array.iter (fun p -> if p.pnow < time then p.pnow <- time) t.parts)

let pending t =
  Array.fold_left
    (fun acc p ->
      acc + Heap.length p.queue
      + Mutex.protect p.inbox_lock (fun () -> List.length p.inbox))
    0 t.parts

let processed t =
  Array.fold_left (fun acc p -> acc + p.pprocessed) 0 t.parts
