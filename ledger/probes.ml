(* Layer probes for traced runs: the host cost of single operations of
   the memory store and the event engine, timed in isolation. *)

module Store = M3_mem.Store
module Engine = M3_sim.Engine
module Process = M3_sim.Process

let repeat = 5

(* Median over [repeat] timings of [f], in host seconds per call of
   [f]. *)
let time f =
  Meter.median
    (List.init repeat (fun _ ->
         let t0 = Meter.now () in
         f ();
         Meter.now () -. t0))

(* [Store.create] of a default-platform DRAM, each on a collected heap
   so every call pays for fresh pages. *)
let store_create_ms () =
  let size = M3_hw.Platform.default_config.M3_hw.Platform.dram_size in
  Meter.median
    (List.init repeat (fun _ ->
         Gc.full_major ();
         let t0 = Meter.now () in
         let s = Store.create ~name:"probe" ~size in
         let dt = Meter.now () -. t0 in
         ignore (Sys.opaque_identity s);
         dt *. 1e3))

let per_op_ns ~n f = time (fun () -> for _ = 1 to n do f () done) /. float_of_int n *. 1e9

let blit_4k_ns () =
  let a = Store.create ~name:"a" ~size:65536 and b = Store.create ~name:"b" ~size:65536 in
  per_op_ns ~n:50_000 (fun () ->
      Store.blit ~src:a ~src_addr:0 ~dst:b ~dst_addr:4096 ~len:4096)

let read_bytes_4k_ns () =
  let a = Store.create ~name:"a" ~size:65536 in
  per_op_ns ~n:50_000 (fun () ->
      ignore (Sys.opaque_identity (Store.read_bytes a ~addr:0 ~len:4096)))

(* One no-op event, scheduled and run: 1000 self-rescheduling chains
   of 1000 events each. *)
let event_ns () =
  let chains = 1000 and length = 1000 in
  let dt =
    time (fun () ->
        let e = Engine.create () in
        for c = 1 to chains do
          let rec step k () =
            if k > 0 then Engine.schedule e ~delay:(1 + (c land 7)) (step (k - 1))
          in
          Engine.schedule e ~delay:0 (step length)
        done;
        ignore (Engine.run e))
  in
  dt /. float_of_int (chains * length) *. 1e9

(* One process switch: two processes ping-ponging through [wait]. *)
let switch_ns () =
  let n = 200_000 in
  let dt =
    time (fun () ->
        let e = Engine.create () in
        for _ = 1 to 2 do
          ignore
            (Process.spawn e ~name:"ping" (fun () ->
                 for _ = 1 to n do
                   Process.wait 1
                 done))
        done;
        ignore (Engine.run e))
  in
  dt /. float_of_int (2 * n) *. 1e9

let all () =
  [
    ("mem.store_create_ms", store_create_ms (), "ms");
    ("mem.blit_4k_ns", blit_4k_ns (), "ns");
    ("mem.read_bytes_4k_ns", read_bytes_4k_ns (), "ns");
    ("sim.event_ns", event_ns (), "ns");
    ("sim.switch_ns", switch_ns (), "ns");
  ]
