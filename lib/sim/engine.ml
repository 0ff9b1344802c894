type t = {
  id : int;
  queue : (unit -> unit) Heap.t;
  mutable now : int;
  mutable processed : int;
  mutable running : bool;
}

(* Engine ids key registries that outlive a single simulation (the
   m3fs server tables): a duplicated id would silently alias two
   simulations' registry entries. *)
let next_id = ref 0

let create () =
  let id = !next_id in
  incr next_id;
  { id; queue = Heap.create (); now = 0; processed = 0; running = false }

let id t = t.id

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

let enter_run t f =
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) f

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.now <- time;
    t.processed <- t.processed + 1;
    f ();
    true

let run t =
  enter_run t (fun () ->
      while step t do () done;
      t.now)

let run_until t ~time =
  enter_run t (fun () ->
      let continue = ref true in
      while !continue do
        match Heap.min_key t.queue with
        | Some key when key <= time -> ignore (step t)
        | Some _ | None -> continue := false
      done;
      if t.now < time then t.now <- time)

let pending t = Heap.length t.queue

let processed t = t.processed
