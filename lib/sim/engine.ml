type local = ..

type t = {
  queue : (unit -> unit) Heap.t;
  mutable now : int;
  mutable processed : int;
  mutable running : bool;
  (* The last cycle the current run may reach: [max_int] under [run],
     its [time] under [run_until]. *)
  mutable limit : int;
  mutable locals : local list;
}

let create () =
  {
    queue = Heap.create ~dummy:ignore ();
    now = 0;
    processed = 0;
    running = false;
    limit = max_int;
    locals = [];
  }

let local t find create =
  match List.find_map find t.locals with
  | Some v -> v
  | None -> (
    let l = create () in
    t.locals <- l :: t.locals;
    match find l with
    | Some v -> v
    | None -> invalid_arg "Engine.local: [find] rejects what [create] made")

let now t = t.now

let schedule_at t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time t.now);
  Heap.push t.queue ~key:time f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  Heap.push t.queue ~key:(t.now + delay) f

let enter_run t ~limit f =
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  t.limit <- limit;
  Fun.protect ~finally:(fun () -> t.running <- false) f

(* Runs the earliest event; the queue must not be empty. *)
let step t =
  t.now <- Heap.min_key t.queue;
  let f = Heap.pop t.queue in
  t.processed <- t.processed + 1;
  f ()

(* An event at [now + delay] that nothing queued precedes is the one
   the run would pop next, so taking its step in place leaves the
   clock, [processed] and the order of every other event as they were.
   A queued event at the same cycle runs first (FIFO): the key must be
   strictly greater. *)
let advance t ~delay =
  if delay < 0 then invalid_arg "Engine.advance: negative delay";
  let time = t.now + delay in
  t.running && time <= t.limit
  && (Heap.is_empty t.queue || Heap.min_key t.queue > time)
  && begin
    t.now <- time;
    t.processed <- t.processed + 1;
    true
  end

let run t =
  enter_run t ~limit:max_int (fun () ->
      while not (Heap.is_empty t.queue) do
        step t
      done;
      t.now)

let run_until t ~time =
  enter_run t ~limit:time (fun () ->
      while (not (Heap.is_empty t.queue)) && Heap.min_key t.queue <= time do
        step t
      done;
      if t.now < time then t.now <- time)

let pending t = Heap.length t.queue

let processed t = t.processed
