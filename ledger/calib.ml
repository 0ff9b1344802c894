(* Host-speed reference.

   On a shared host the speed of this kind of code drifts by tens of
   percent over minutes, which would swamp any change a later commit
   makes to the simulator's speed. Before each unit the ledger times
   this fixed work in a fresh child process, and reports host time at
   the speed of a reference host: the unit's user CPU time scaled by
   the compute part of the reference, its system time by the
   page-fault part. The work mimics what the simulator does — a
   discrete-event loop of closures over a binary heap and a live heap
   of some tens of MiB, dependent loads across a buffer far larger than
   the caches, fresh memory faulted in — but uses none of the library's
   code, so no change to the library can speed it up. *)

type t = {
  compute : float;  (** host s of the event loop and the memory walk *)
  fault : float;  (** host s to fault in and zero 128 MiB *)
}

(* The reference host: roughly this work's times on a 2-vCPU Xeon container
   at a calm moment. *)
let reference = { compute = 0.3; fault = 0.07 }

type node = { mutable next : node; payload : Bytes.t; mutable hits : int }
type ev = { at : int; run : unit -> unit }

let event_loop () =
  let n = 200_000 in
  let rec dummy = { next = dummy; payload = Bytes.empty; hits = 0 } in
  let nodes =
    Array.init n (fun i ->
        { next = dummy; payload = Bytes.make 48 (Char.chr (i land 0xff)); hits = 0 })
  in
  Array.iteri (fun i nd -> nd.next <- nodes.(((i * 7919) + 1) mod n)) nodes;
  let heap = Array.make (1 lsl 14) { at = 0; run = ignore } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).at > e.at do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      if l >= !size then stop := true
      else begin
        let c =
          if l + 1 < !size && heap.(l + 1).at < heap.(l).at then l + 1 else l
        in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else stop := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  let events = ref 0 in
  let rec fire now k () =
    incr events;
    let nd = nodes.(k * 104729 mod n) in
    nd.hits <- nd.hits + 1;
    nd.next.hits <- nd.next.hits + Bytes.length nd.next.payload;
    let pending = List.init 4 (fun j -> (k + j, now)) in
    if !events < 100_000 then begin
      let at = now + 1 + List.length pending + (k land 63) in
      push { at; run = fire at (k + 1) }
    end
  in
  for k = 0 to 4095 do
    push { at = k land 127; run = fire (k land 127) (k * 31) }
  done;
  while !size > 0 do
    (pop ()).run ()
  done

(* Dependent loads at pseudo-random offsets: memory latency. *)
let walk b =
  let n = Bytes.length b in
  let acc = ref 0 and i = ref 12345 in
  for _ = 1 to 1_000_000 do
    let c = Char.code (Bytes.unsafe_get b !i) in
    acc := !acc + c;
    i := ((!i * 1103515245) + 12345 + c) land (n - 1)
  done;
  ignore (Sys.opaque_identity !acc)

let timed f =
  let t0 = Meter.now () in
  let v = f () in
  (v, Meter.now () -. t0)

let measure () =
  match
    Isolate.run (fun () ->
        let (), loop = timed event_loop in
        let b, fault = timed (fun () -> Bytes.make (128 * 1024 * 1024) 'r') in
        let (), mem = timed (fun () -> walk b) in
        { compute = loop +. mem; fault })
  with
  | Ok (r, _) -> r
  | Error msg -> failwith ("host-speed reference: " ^ msg)
