type sink = {
  sink_name : string;
  sink_emit : at:int -> Event.t -> unit;
}

type t = {
  clock : unit -> int;
  mutable sinks : sink list;
  mutable enabled : bool;
  mutable next_msg : int;
  is_null : bool;
}

let null =
  { clock = (fun () -> 0); sinks = []; enabled = false; next_msg = 1;
    is_null = true }

let create ~clock =
  { clock; sinks = []; enabled = false; next_msg = 1; is_null = false }

let of_engine engine = create ~clock:(fun () -> M3_sim.Engine.now engine)

let enabled t = t.enabled

let attach t sink =
  if t.is_null then
    invalid_arg "Obs.attach: cannot attach a sink to the shared null bus";
  t.sinks <- t.sinks @ [ sink ];
  t.enabled <- true

let detach_all t =
  t.sinks <- [];
  t.enabled <- false

let next_msg t =
  if not t.enabled then 0
  else begin
    let m = t.next_msg in
    t.next_msg <- m + 1;
    m
  end

let emit_at t ~at ev =
  if t.enabled then List.iter (fun s -> s.sink_emit ~at ev) t.sinks

let emit t ev = if t.enabled then emit_at t ~at:(t.clock ()) ev

module Memory = struct
  type mem = {
    mutable rev_events : (int * Event.t) list;
    mutable count : int;
  }

  let create () = { rev_events = []; count = 0 }

  let sink m =
    {
      sink_name = "memory";
      sink_emit =
        (fun ~at ev ->
          m.rev_events <- (at, ev) :: m.rev_events;
          m.count <- m.count + 1);
    }

  let count m = m.count
  let events m = List.rev m.rev_events

  let to_string m =
    let buf = Buffer.create (64 * m.count) in
    List.iter
      (fun (at, ev) ->
        Buffer.add_string buf (Printf.sprintf "%d %s\n" at (Event.to_string ev)))
      (events m);
    Buffer.contents buf
end
