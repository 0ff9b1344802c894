(* One measured unit of a workload: the systems it booted, where the
   host time went, what it simulated, and whether its outputs checked
   out. Workloads drive simulated systems through {!system} (or, for
   harness entry points that boot their own, through {!record_boot}),
   and wrap their calls into libm3 and the service layers with {!op}
   and {!span}. *)

module Engine = M3_sim.Engine
module Stats = M3_sim.Stats
module Platform = M3_hw.Platform
module Metrics = M3_obs.Metrics
module Obs = M3_obs.Obs

type t = {
  seed : int;
  tiny : bool;
  mutable spans : Span.t option;  (** the run's recorder; [None] when untraced *)
  mutable metrics : Metrics.t option;
      (** this unit's obs sink when traced; dropped by {!finish} *)
  mutable setup : float;
      (** host s: input generation, plus per system construction start
          to the app's first instruction *)
  mutable boot_ms : float list;  (** per system [Bootstrap.start] *)
  mutable engine_boot_ms : float list;  (** per system [Engine.run] to app entry *)
  mutable systems : int;
  mutable events : int;
  mutable body_host : float;  (** host s from app entry to end of run *)
  mutable body_events : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  digest : Buffer.t;
  sim : (string, float) Hashtbl.t;
      (** simulated outputs from public accessors; hashed into the digest *)
  layer : (string, float) Hashtbl.t;  (** obs-derived, traced units only *)
  ops : Stats.t;  (** simulated cycles per client operation *)
}

let create ~seed ~tiny ~spans =
  {
    seed;
    tiny;
    spans;
    metrics = Option.map (fun _ -> Metrics.create ()) spans;
    setup = 0.0;
    boot_ms = [];
    engine_boot_ms = [];
    systems = 0;
    events = 0;
    body_host = 0.0;
    body_events = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    digest = Buffer.create 4096;
    sim = Hashtbl.create 32;
    layer = Hashtbl.create 16;
    ops = Stats.create ();
  }

let traced t = t.spans <> None
let error t msg = t.errors <- msg :: t.errors
let check t cond msg = if not cond then error t msg
let attempt t n = t.attempted <- t.attempted + n

let fail t msg =
  t.failed <- t.failed + 1;
  error t msg

let note t key v =
  Buffer.add_string t.digest key;
  Buffer.add_char t.digest '=';
  Buffer.add_string t.digest v;
  Buffer.add_char t.digest ';'

let note_int t key v = note t key (string_of_int v)
let set t name v = Hashtbl.replace t.sim name v

let add t name v =
  Hashtbl.replace t.sim name
    (v +. Option.value (Hashtbl.find_opt t.sim name) ~default:0.0)

let max_ t name v =
  match Hashtbl.find_opt t.sim name with
  | Some old when old >= v -> ()
  | _ -> Hashtbl.replace t.sim name v

let get t name = Option.value (Hashtbl.find_opt t.sim name) ~default:0.0

(* Input generation counts as set-up: the benchmark pays it per unit. *)
let input t f =
  let t0 = Meter.now () in
  let v = f () in
  t.setup <- t.setup +. (Meter.now () -. t0);
  v

let span t ~engine ?(tid = 0) ?rid name f =
  Span.within t.spans ~name ~tid ?rid ~clock:(fun () -> Engine.now engine) f

(* A client operation: a span when traced, and always one sample of
   its simulated duration. *)
let op t (env : M3.Env.t) ?rid name f =
  let engine = env.M3.Env.engine in
  let s0 = Engine.now engine in
  let v = span t ~engine ~tid:env.M3.Env.uid ?rid name f in
  Stats.add t.ops (float_of_int (Engine.now engine - s0));
  v

(* Exceptions must not escape an app body: libm3 only turns [Errno]
   errors into an exit code, anything else would leave the VPE
   unexited. *)
let guarded t label f =
  match f () with
  | code -> code
  | exception (M3_sim.Process.Killed as e) -> raise e
  | exception e ->
    error t (label ^ ": " ^ Printexc.to_string e);
    1

(* Host-side bookkeeping of one finished system. [entered] is the host
   time of the app's first instruction and [ev0] the engine's event
   count at that moment. *)
let record_boot t ~label ~t0 ~entered ~ev0 ~t_end ~engine =
  t.systems <- t.systems + 1;
  t.events <- t.events + Engine.processed engine;
  if Float.is_nan entered then error t (label ^ ": app never started")
  else begin
    t.setup <- t.setup +. (entered -. t0);
    t.body_host <- t.body_host +. (t_end -. entered);
    t.body_events <- t.body_events + (Engine.processed engine - ev0)
  end

(* Busiest directed NoC link over the run, as a share of [makespan]. *)
let max_link_util fab ~makespan =
  let topo = M3_noc.Fabric.topology fab in
  let n = M3_noc.Topology.node_count topo in
  let cols = M3_noc.Topology.cols topo and rows = M3_noc.Topology.rows topo in
  let best = ref 0 in
  for src = 0 to n - 1 do
    let x, y = M3_noc.Topology.coords topo src in
    List.iter
      (fun (x', y') ->
        if x' >= 0 && x' < cols && y' >= 0 && y' < rows then begin
          let dst = M3_noc.Topology.node_at topo ~x:x' ~y:y' in
          if dst >= 0 && dst < n then
            best := max !best (M3_noc.Fabric.link_busy_cycles fab ~src ~dst)
        end)
      [ (x + 1, y); (x - 1, y); (x, y + 1); (x, y - 1) ]
  done;
  float_of_int !best /. float_of_int (max 1 makespan)

let fabric_counters t fab ~makespan =
  add t "noc.kib" (float_of_int (M3_noc.Fabric.bytes_sent fab) /. 1024.0);
  max_ t "noc.max_link_util" (max_link_util fab ~makespan)

let system_counters t (sys : M3.Bootstrap.t) ~makespan =
  let dtus = List.map M3_hw.Pe.dtu (Platform.pes sys.M3.Bootstrap.platform) in
  let sum f = float_of_int (List.fold_left (fun a d -> a + f d) 0 dtus) in
  add t "kernel.syscalls"
    (float_of_int (M3.Kernel.syscalls_handled sys.M3.Bootstrap.kernel));
  add t "dtu.msgs" (sum M3_dtu.Dtu.msgs_sent);
  add t "dtu.mem_kib"
    (sum (fun d -> M3_dtu.Dtu.mem_bytes_read d + M3_dtu.Dtu.mem_bytes_written d)
    /. 1024.0);
  add t "dtu.retransmits" (sum M3_dtu.Dtu.retransmits);
  fabric_counters t (Platform.fabric sys.M3.Bootstrap.platform) ~makespan

let obs_for t engine =
  Option.map
    (fun m ->
      let o = Obs.of_engine engine in
      Obs.attach o (Metrics.sink m);
      o)
    t.metrics

(* [system t ~label main] boots a fresh system, runs [main] as its one
   client VPE, checks it exited 0 and folds its counters into the unit.
   [main] receives the m3fs service names. *)
let system t ~label ?platform_config ?fs ?fs_instances ?no_fs main =
  let t0 = Meter.now () in
  let engine = Engine.create () in
  let obs = obs_for t engine in
  let emit_queue = traced t in
  let fs ~dram =
    let base =
      match fs with Some f -> f ~dram | None -> M3.M3fs.default_config ~dram
    in
    { base with M3.M3fs.emit_queue }
  in
  let sys =
    span t ~engine "bootstrap.start" (fun () ->
        M3.Bootstrap.start ?platform_config ~fs ?fs_instances ?no_fs ?obs engine)
  in
  t.boot_ms <- ((Meter.now () -. t0) *. 1e3) :: t.boot_ms;
  let services = sys.M3.Bootstrap.fs_services in
  let entered = ref nan and ev0 = ref 0 in
  let exit =
    M3.Bootstrap.launch sys ~name:label (fun env ->
        entered := Meter.now ();
        ev0 := Engine.processed engine;
        span t ~engine ~tid:env.M3.Env.uid "app.body" (fun () ->
            guarded t label (fun () -> main ~services env)))
  in
  let t_run = Meter.now () in
  let makespan = span t ~engine "engine.run" (fun () -> Engine.run engine) in
  let t_end = Meter.now () in
  if not (Float.is_nan !entered) then
    t.engine_boot_ms <- ((!entered -. t_run) *. 1e3) :: t.engine_boot_ms;
  record_boot t ~label ~t0 ~entered:!entered ~ev0:!ev0 ~t_end ~engine;
  (match M3_sim.Process.Ivar.peek exit with
  | Some 0 -> ()
  | Some code -> error t (Printf.sprintf "%s: exited %d" label code)
  | None -> error t (label ^ ": never exited"));
  system_counters t sys ~makespan;
  note_int t (label ^ ".makespan") makespan;
  span t ~engine "teardown" (fun () -> M3.M3fs.forget ~engine)

let merged stats = List.fold_left Stats.merge (Stats.create ()) stats
let pct = Meter.pct

(* Fold the obs sink into the per-layer table and return the unit's
   digest over every simulated output it recorded. Workloads that do
   not set the latency and throughput metrics themselves get them from
   their client operations. *)
let finish t =
  Option.iter
    (fun m ->
      let l = Hashtbl.replace t.layer in
      let syscalls = Metrics.syscalls m in
      l "kernel.syscall_p99_cyc" (pct (merged (List.map snd syscalls)) 99.0);
      l "noc.queue_p99_cyc"
        (pct (merged (List.map (fun (_, _, q) -> q) (Metrics.links m))) 99.0);
      l "m3fs.op_p99_cyc" (pct (merged (List.map snd (Metrics.fs_ops m))) 99.0);
      l "m3fs.queue_p95" (pct (merged (List.map snd (Metrics.fs_queues m))) 95.0);
      (* Systems booted inside a harness entry point expose no kernel or
         DTU handle; their counts come from the event stream. *)
      if not (Hashtbl.mem t.sim "kernel.syscalls") then begin
        l "kernel.syscalls"
          (float_of_int
             (List.fold_left (fun a (_, st) -> a + Stats.count st) 0 syscalls));
        l "dtu.msgs" (float_of_int (Metrics.dtu_sent_msgs m));
        l "dtu.mem_kib"
          (float_of_int (Metrics.mem_read_bytes m + Metrics.mem_written_bytes m)
          /. 1024.0);
        l "dtu.retransmits" (float_of_int (Metrics.dtu_retries m))
      end)
    t.metrics;
  t.metrics <- None;
  let default name v = if not (Hashtbl.mem t.sim name) then set t name v in
  default "p50_cyc" (pct t.ops 50.0);
  default "p99_cyc" (pct t.ops 99.0);
  default "capacity_rpmc" (float_of_int (Stats.count t.ops) /. get t "sim_mcycles");
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sim []
  |> List.sort compare
  |> List.iter (fun (k, v) -> note t k (Printf.sprintf "%.17g" v));
  note_int t "events" t.events;
  Digest.to_hex (Digest.string (Buffer.contents t.digest))
