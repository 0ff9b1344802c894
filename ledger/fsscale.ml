(* fs-scale: the Fig. 6 setup — parallel instances of find and untar
   replays on one kernel, against one and against four m3fs shards —
   driven through [Fig6.run_multi]. Time goes to kernel and m3fs
   ringbuffer queueing, DTU messages and NoC transfers: find is
   metadata round trips, untar bulk data. The mount cache is off, as
   in the paper's setup. *)

module Engine = M3_sim.Engine
module Env = M3.Env
module Workloads = M3_trace.Workloads

(* Each instance replays its trace several times, so that the replays
   and not the boot dominate a cell: find walks its tree again, untar
   extracts again over its previous output, which it truncates. Fresh
   prefixes per round would not fit: [run_multi] sizes the filesystem
   for one copy of each instance's inputs and outputs. Each replay
   takes a 4 KiB transfer buffer from the 64 KiB scratchpad for good,
   which caps the rounds one VPE can run. *)
type size = { instances : int; rounds : int; shards : int list }

let full = { instances = 16; rounds = 12; shards = [ 1; 4 ] }
let tiny = { instances = 2; rounds = 1; shards = [ 1; 2 ] }

let benches =
  [
    ("find", fun ~seed -> Workloads.find ~seed);
    ("untar", fun ~seed -> Workloads.untar ~seed);
  ]

let[@inline never] cell ctx ~size ~bench ~gen ~shards =
  let label = Printf.sprintf "%s/%d" bench shards in
  let rounds = size.rounds in
  let specs =
    Ctx.input ctx (fun () ->
        Array.init size.instances (fun k ->
            Workloads.prefixed ~prefix:(Printf.sprintf "/i%d" k)
              (gen ~seed:((ctx.Ctx.seed * 1000) + k))))
  in
  let seeds_of k = specs.(k).Workloads.sp_seeds in
  let engine = ref None and fabric = ref None in
  let entered = ref nan and ev0 = ref 0 in
  let first = ref max_int and last = ref 0 in
  let body ~instance (env : Env.t) ~measured =
    let e = env.Env.engine in
    if Float.is_nan !entered then begin
      entered := Meter.now ();
      ev0 := Engine.processed e;
      engine := Some e;
      fabric := Some env.Env.fabric
    end;
    Ctx.span ctx ~engine:e ~tid:env.Env.uid "app.body" (fun () ->
        measured (fun () ->
            first := min !first (Engine.now e);
            for r = 0 to rounds - 1 do
              Ctx.attempt ctx 1;
              match
                Ctx.op ctx env ~rid:((instance * rounds) + r) ("replay." ^ bench)
                  (fun () ->
                    M3_trace.Replay_m3.run env specs.(instance).Workloads.sp_trace)
              with
              | Ok () -> ()
              | Error e ->
                Ctx.fail ctx
                  (Printf.sprintf "%s: instance %d round %d: %s" label instance r
                     (M3.Errno.to_string e))
            done;
            last := max !last (Engine.now e)))
  in
  let observe o =
    Option.iter (fun m -> M3_obs.Obs.attach o (M3_obs.Metrics.sink m)) ctx.Ctx.metrics
  in
  let t0 = Meter.now () in
  (match
     Span.within ctx.Ctx.spans ~name:"fs.run_multi" ~tid:0
       ~clock:(fun () -> Option.fold ~none:0 ~some:Engine.now !engine)
       (fun () ->
         M3_harness.Fig6.run_multi ~shards ~observe ~emit_queue:(Ctx.traced ctx)
           ~instances:size.instances ~pes_per_instance:1 ~seeds_of ~body ())
   with
  | _avg -> ()
  | exception e -> Ctx.error ctx (label ^ ": " ^ Printexc.to_string e));
  let t_end = Meter.now () in
  match (!engine, !fabric) with
  | None, _ | _, None -> Ctx.error ctx (label ^ ": no instance started")
  | Some engine, Some fab ->
    Ctx.record_boot ctx ~label ~t0 ~entered:!entered ~ev0:!ev0 ~t_end ~engine;
    let makespan = !last - !first in
    Ctx.add ctx "sim_mcycles" (float_of_int makespan /. 1e6);
    Ctx.note_int ctx (label ^ ".makespan") makespan;
    Ctx.fabric_counters ctx fab ~makespan:(Engine.now engine)

let run ctx =
  let size = if ctx.Ctx.tiny then tiny else full in
  List.iter
    (fun (bench, gen) ->
      List.iter (fun shards -> cell ctx ~size ~bench ~gen ~shards) size.shards)
    benches;
  Ctx.set ctx "fs.replay_p50_cyc" (Meter.pct ctx.Ctx.ops 50.0)
