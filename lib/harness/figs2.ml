module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Rng = M3_sim.Rng
module Stats = M3_sim.Stats
module Plan = M3_fault.Plan
module Pool = M3_serve.Pool
module Load = M3_serve.Load
module Wire = M3_serve.Wire
module Gateway = M3_serve.Gateway
module Store = M3_kv.Kv_store
module Kv_load = M3_kv.Kv_load

type capacity_point = {
  c_shards : int;
  c_mix : string;
  c_offered : float;
  c_throughput : float;
  c_p50 : float;
  c_p99 : float;
  c_completed : int;
  c_failed : int;
  c_cache_hits : int;
  c_cache_misses : int;
  c_cache_invals : int;
  c_kept : int;
  c_dup_skips : int;
}

type flash_out = {
  f_crowd : int;
  f_base_p99 : float;
  f_survivor_p99 : float;
  f_throttled : int;
  f_crowd_throttled : int;
  f_scale_ups : int;
  f_scale_downs : int;
  f_completed : int;
  f_failed : int;
}

type knee_out = {
  n_clients : int;
  n_offered : float;
  n_closed_p99 : float;
  n_open_p99 : float;
  n_closed_completed : int;
  n_open_completed : int;
  n_closed_failed : int;
  n_open_failed : int;
}

type kcrash_out = {
  x_victim_pe : int;
  x_crashes : int;
  x_restarts : int;
  x_retried : int;
  x_applied : int;
  x_double_applied : int;
  x_dup_skips : int;
  x_completed : int;
  x_failed : int;
}

type t = {
  s2_quick : bool;
  s2_requests : int;
  s2_keys : int;
  s2_theta : float;
  s2_capacity : capacity_point list;
  s2_flash : flash_out;
  s2_knee : knee_out;
  s2_crash : kcrash_out;
}

(* --- knobs ------------------------------------------------------------- *)

let capacity_workers = 4
let capacity_shards = [ 1; 2; 4 ]
let theta = 0.9
let keys_full = 128
let keys_quick = 64
let requests_full = 600
let requests_quick = 240

(* A warm get is a few hundred cycles; a put pays m3fs round trips.
   The gap targets the 1-shard write-heavy cell's fs bottleneck while
   the 4-shard cells stay comfortable — the spread is the figure. *)
let capacity_gap = 1_500.0

(* Records are sized so header + value is exactly one fs block:
   extents are block-granular, so a sub-block record could never
   survive an invalidation ([Fs_cache.inval_ino] keeps only extents
   lying wholly inside the committed size) and the kept column of the
   figure would be trivially zero. Block-aligned records are the
   classic KV layout anyway. *)
let store_config ~keys =
  {
    Store.default_config with
    Store.keys;
    buckets = 4;
    value_len = 1024 - 32;
  }

(* --- one simulated cell -------------------------------------------------

   Same frame as {!Figs.run_sim}: fresh engine, bootstrap with m3fs
   shards, launch the driving client, insist it exited 0. KV cells
   always boot a filesystem (the store's state lives there) but with
   an empty seed — the store makes its own bucket directories. *)

(* The driving client juggles more endpoints than figS's ever did —
   up to four shard sessions plus the pool's gates — so kv cells boot
   PEs with 16 DTU endpoints (a platform parameter; the default 8
   covers only reserved slots plus a couple of multiplexed ones). *)
let kv_ep_count = 32

let run_sim ?plan ?pe_count ?(sched = false) ~fs_instances ~label main =
  let engine = Engine.create () in
  let fs_config ~dram =
    { (M3.M3fs.default_config ~dram) with M3.M3fs.seed = [] }
  in
  let obs =
    match !Runner.observer with
    | None -> None
    | Some attach ->
      let o = M3_obs.Obs.of_engine engine in
      attach o;
      Some o
  in
  let platform_config =
    let base = { M3_hw.Platform.default_config with ep_count = kv_ep_count } in
    Some
      (match pe_count with
      | Some pe_count -> { base with M3_hw.Platform.pe_count }
      | None -> base)
  in
  let sched = if sched then Some (M3_sched.Sched.create ()) else None in
  let sys =
    M3.Bootstrap.start ?platform_config ~fs:fs_config ~fs_instances
      ?faults:plan ?obs ?sched engine
  in
  let exit = M3.Bootstrap.launch sys ~name:"client" (main sys) in
  ignore (Engine.run engine);
  M3.M3fs.forget ~engine;
  match Process.Ivar.peek exit with
  | Some 0 -> sys
  | Some code -> failwith (Printf.sprintf "figS2 %s: client exited %d" label code)
  | None -> failwith (Printf.sprintf "figS2 %s: client never exited" label)

(* Boot, mount, prepare the store, start a kv pool, let [drive] play
   load, and collect what the client, the dispatcher and the workers'
   mount caches saw. Worker environments are captured from the kv
   handler (one entry per VPE uid) so the harness can read their cache
   counters after the run. *)
let run_kv ?plan ?pe_count ?sched ~fs_instances ~label ~store ~cfg ~drive () =
  let out = ref None in
  let seen : (int, M3.Env.t) Hashtbl.t = Hashtbl.create 8 in
  let handler =
    let inner = Store.pool_exec store in
    fun env ~seq arg ->
      if not (Hashtbl.mem seen env.M3.Env.uid) then
        Hashtbl.replace seen env.M3.Env.uid env;
      inner env ~seq arg
  in
  let _sys =
    run_sim ?plan ?pe_count ?sched ~fs_instances ~label (fun sys env ->
        match
          M3.Vfs.mount_sharded env ~path:"/"
            ~services:sys.M3.Bootstrap.fs_services
        with
        | Error _ -> 1
        | Ok () -> (
          match Store.prepare env store with
          | Error _ -> 1
          | Ok () -> (
            let cfg =
              {
                cfg with
                Pool.fs_services = sys.M3.Bootstrap.fs_services;
                kv = Some handler;
              }
            in
            match Pool.start env cfg with
            | Error _ -> 1
            | Ok pool -> (
              let cr = drive env pool in
              match Pool.stop env pool with
              | Ok () ->
                out := Some (cr, Pool.stats pool);
                0
              | Error _ -> 1))))
  in
  let hits, misses, invals, kept =
    Hashtbl.fold
      (fun _ env (h, m, i, k) ->
        let h', m', i' = M3.Vfs.cache_totals env in
        (h + h', m + m', i + i', k + M3.Vfs.cache_kept env))
      seen (0, 0, 0, 0)
  in
  match !out with
  | Some (cr, st) -> (cr, st, (hits, misses, invals, kept))
  | None -> failwith (Printf.sprintf "figS2 %s: no result" label)

let pct st p = Stats.percentile st p

(* --- capacity: skewed key mix over 1/2/4 shards ------------------------ *)

let mix_name ~reads ~writes = Printf.sprintf "%d/%d" reads writes

let capacity_cell ~keys ~requests ~seed ~shards ~reads ~writes =
  let store = Store.create ~config:(store_config ~keys) ~name:"kv" () in
  let rng = Rng.create ~seed in
  let schedule =
    Load.poisson ~rng ~mean_gap:capacity_gap ~count:requests
      ~mix:(Kv_load.op_mix ~reads ~writes) ()
  in
  let schedule =
    Kv_load.assign_keys ~rng ~sample:(Kv_load.zipf_keys ~n:keys ~theta) schedule
  in
  let cfg = Pool.default_config ~name:"kvcap" ~workers:capacity_workers () in
  let label = Printf.sprintf "capacity s%d %s" shards (mix_name ~reads ~writes) in
  let cr, _st, (hits, misses, invals, kept) =
    run_kv ~fs_instances:shards ~label ~store ~cfg
      ~drive:(fun env pool -> Pool.run_open env pool ~schedule)
      ()
  in
  let makespan = max 1 (cr.Pool.cr_last_done - cr.Pool.cr_first_send) in
  {
    c_shards = shards;
    c_mix = mix_name ~reads ~writes;
    c_offered = Load.offered_rate schedule;
    c_throughput = float_of_int cr.Pool.cr_completed /. float_of_int makespan;
    c_p50 = pct cr.Pool.cr_latency 50.0;
    c_p99 = pct cr.Pool.cr_latency 99.0;
    c_completed = cr.Pool.cr_completed;
    c_failed = cr.Pool.cr_failed;
    c_cache_hits = hits;
    c_cache_misses = misses;
    c_cache_invals = invals;
    c_kept = kept;
    c_dup_skips = Store.dup_skips store;
  }

(* --- flash crowd: gateway sheds, elastic pool absorbs ------------------ *)

let flash_base_clients = 3
let flash_crowd_base = 100
let flash_crowd_n = 5
let flash_floor = 2
let flash_max = 4

(* kernel + 2 fs shards + client + dispatcher + 4 worker seats *)
let flash_pe_count = 9
let flash_bucket_refill = 30_000
let flash_p99_factor = 2.0

let flash_cfg () =
  {
    (Pool.default_config ~name:"kvflash" ~min_workers:flash_floor
       ~workers:flash_max ()) with
    Pool.grow_depth = 2;
    scale_cooldown = 10_000;
    gateway =
      Some (Gateway.config ~bucket:(Gateway.bucket ~refill:flash_bucket_refill ()) ());
  }

let survivor_p99 cr =
  let merged =
    List.fold_left
      (fun acc (c, pc) ->
        if c >= flash_crowd_base then acc else Stats.merge acc pc.Pool.pc_latency)
      (Stats.create ()) cr.Pool.cr_clients
  in
  pct merged 99.0

let flash_cell ~keys ~requests ~seed =
  let clients rng = 1 + Load.uniform_clients ~n:flash_base_clients rng in
  let mean_gap = 2.0 *. capacity_gap in
  let schedule_of s ~with_flash =
    let rng = Rng.create ~seed:s in
    let base =
      if with_flash then
        Load.flash ~clients ~rng ~mean_gap ~count:requests
          ~mix:Kv_load.read_heavy
          ~flash_at:(int_of_float (mean_gap *. float_of_int requests) / 3)
          ~flash_len:(int_of_float (mean_gap *. float_of_int requests) / 4)
          ~flash_factor:8.0 ~crowd_base:flash_crowd_base ~crowd_n:flash_crowd_n
          ()
      else
        Load.poisson ~clients ~rng ~mean_gap ~count:requests
          ~mix:Kv_load.read_heavy ()
    in
    Kv_load.assign_keys ~rng ~sample:(Kv_load.zipf_keys ~n:keys ~theta) base
  in
  let run ~label ~schedule =
    let store = Store.create ~config:(store_config ~keys) ~name:"kv" () in
    run_kv ~pe_count:flash_pe_count ~sched:true ~fs_instances:2 ~label ~store
      ~cfg:(flash_cfg ()) ~drive:(fun env pool -> Pool.run_open env pool ~schedule)
      ()
  in
  let base_cr, _, _ =
    run ~label:"flash-base" ~schedule:(schedule_of seed ~with_flash:false)
  in
  let cr, st, _ =
    run ~label:"flash" ~schedule:(schedule_of seed ~with_flash:true)
  in
  let crowd_throttled =
    List.fold_left
      (fun acc (c, pc) ->
        if c >= flash_crowd_base then acc + pc.Pool.pc_throttled else acc)
      0 cr.Pool.cr_clients
  in
  {
    f_crowd = flash_crowd_n;
    f_base_p99 = survivor_p99 base_cr;
    f_survivor_p99 = survivor_p99 cr;
    f_throttled = st.Pool.p_throttled;
    f_crowd_throttled = crowd_throttled;
    f_scale_ups = st.Pool.p_scale_ups;
    f_scale_downs = st.Pool.p_scale_downs;
    f_completed = cr.Pool.cr_completed;
    f_failed = cr.Pool.cr_failed;
  }

(* --- knee: closed-loop self-throttling vs open-loop divergence --------- *)

let knee_workers = 2
let knee_clients = 4
let knee_think_mean = 2_000.0
let knee_p99_factor = 2.0

let knee_cell ~keys ~requests ~seed =
  let sample = Kv_load.zipf_keys ~n:keys ~theta in
  (* Closed first: [knee_clients] users, pre-drawn think times. Its
     realized rate (completions over makespan) defines the offered
     load; the open run then plays a Poisson schedule at exactly that
     rate. Same offered load — only the control loop differs. *)
  let closed_cr =
    let rng = Rng.create ~seed in
    let make =
      Kv_load.closed_kinds ~rng ~sample ~mix:Kv_load.read_heavy ~count:requests
    in
    let think = Load.think_times ~rng ~mean:knee_think_mean ~count:64 in
    let store = Store.create ~config:(store_config ~keys) ~name:"kv" () in
    let cfg = Pool.default_config ~name:"kvknee" ~workers:knee_workers () in
    let cr, _, _ =
      run_kv ~fs_instances:2 ~label:"knee-closed" ~store ~cfg
        ~drive:(fun env pool ->
          Pool.run_closed ~think env pool ~clients:knee_clients ~total:requests
            ~make)
        ()
    in
    cr
  in
  let makespan =
    max 1 (closed_cr.Pool.cr_last_done - closed_cr.Pool.cr_first_send)
  in
  let offered =
    float_of_int closed_cr.Pool.cr_completed /. float_of_int makespan
  in
  let open_cr =
    let rng = Rng.create ~seed:(seed + 1) in
    let schedule =
      (* 50% past the closed loop's realized rate: the knee only shows
         when the open arrivals outrun service — closed clients would
         absorb the same excess in think time, which is the contrast
         the cell demonstrates. *)
      Load.poisson ~rng
        ~mean_gap:(float_of_int makespan /. (1.5 *. float_of_int requests))
        ~count:requests ~mix:Kv_load.read_heavy ()
    in
    let schedule = Kv_load.assign_keys ~rng ~sample schedule in
    let store = Store.create ~config:(store_config ~keys) ~name:"kv" () in
    let cfg = Pool.default_config ~name:"kvknee" ~workers:knee_workers () in
    let cr, _, _ =
      run_kv ~fs_instances:2 ~label:"knee-open" ~store ~cfg
        ~drive:(fun env pool -> Pool.run_open env pool ~schedule)
        ()
    in
    cr
  in
  {
    n_clients = knee_clients;
    n_offered = offered;
    n_closed_p99 = pct closed_cr.Pool.cr_latency 99.0;
    n_open_p99 = pct open_cr.Pool.cr_latency 99.0;
    n_closed_completed = closed_cr.Pool.cr_completed;
    n_open_completed = open_cr.Pool.cr_completed;
    n_closed_failed = closed_cr.Pool.cr_failed;
    n_open_failed = open_cr.Pool.cr_failed;
  }

(* --- crash: exactly-once puts across a worker-PE kill ------------------ *)

(* PE layout with 2 fs shards (lowest free PE wins): kernel 0, fs 1-2,
   client 3, dispatcher 4, workers 5..8; the replacement lands on 9. *)
let crash_victim_pe = 5
let crash_workers = 4

let crash_config ~victim_pe ~after =
  {
    Plan.default_config with
    drop_prob = 0.0;
    link_fault_prob = 0.0;
    corrupt_prob = 0.0;
    stall_prob = 0.0;
    crashes = [ (victim_pe, after) ];
  }

let crash_cell ~keys ~requests ~seed =
  let store = Store.create ~config:(store_config ~keys) ~name:"kv" () in
  let rng = Rng.create ~seed in
  let schedule =
    Load.poisson ~rng ~mean_gap:capacity_gap ~count:requests
      ~mix:(Kv_load.op_mix ~reads:0 ~writes:1) ()
  in
  let schedule =
    Kv_load.assign_keys ~rng ~sample:(Kv_load.zipf_keys ~n:keys ~theta) schedule
  in
  let plan =
    Plan.create
      ~config:(crash_config ~victim_pe:crash_victim_pe ~after:40)
      ~seed:(seed lxor 0xC4A5) ()
  in
  let cfg = Pool.default_config ~name:"kvcrash" ~workers:crash_workers () in
  let cr, st, _ =
    run_kv ~plan ~fs_instances:2 ~label:"crash" ~store ~cfg
      ~drive:(fun env pool -> Pool.run_open env pool ~schedule)
      ()
  in
  {
    x_victim_pe = crash_victim_pe;
    x_crashes = Plan.crashes_injected plan;
    x_restarts = st.Pool.p_restarts;
    x_retried = st.Pool.p_retried;
    x_applied = Store.applied_total store;
    x_double_applied = Store.double_applied store;
    x_dup_skips = Store.dup_skips store;
    x_completed = cr.Pool.cr_completed;
    x_failed = cr.Pool.cr_failed;
  }

(* --- the experiment ----------------------------------------------------- *)

let run ?(quick = false) ?requests ?keys ?(seed = 0x52F2) () =
  let requests =
    match requests with
    | Some r -> r
    | None -> if quick then requests_quick else requests_full
  in
  let keys =
    match keys with Some k -> k | None -> if quick then keys_quick else keys_full
  in
  let capacity =
    List.concat_map
      (fun shards ->
        List.map
          (fun (reads, writes) ->
            capacity_cell ~keys ~requests ~seed:(seed + (shards * 100) + reads)
              ~shards ~reads ~writes)
          [ (9, 1); (1, 1) ])
      capacity_shards
  in
  let flash = flash_cell ~keys ~requests ~seed:(seed + 307) in
  let knee =
    knee_cell ~keys ~requests:(max 200 (requests / 2)) ~seed:(seed + 353)
  in
  let crash = crash_cell ~keys ~requests:(max 300 requests) ~seed:(seed + 401) in
  {
    s2_quick = quick;
    s2_requests = requests;
    s2_keys = keys;
    s2_theta = theta;
    s2_capacity = capacity;
    s2_flash = flash;
    s2_knee = knee;
    s2_crash = crash;
  }

(* --- verdicts ------------------------------------------------------------ *)

let find_point t ~shards ~mix =
  List.find
    (fun p -> p.c_shards = shards && p.c_mix = mix)
    t.s2_capacity

let capacity_verdict t =
  let wh1 = find_point t ~shards:1 ~mix:"1/1" in
  let wh4 = find_point t ~shards:4 ~mix:"1/1" in
  let rh1 = find_point t ~shards:1 ~mix:"9/1" in
  List.for_all
    (fun p -> p.c_failed = 0 && p.c_completed = t.s2_requests)
    t.s2_capacity
  (* Sharding relieves the write bottleneck... *)
  && wh4.c_p99 <= wh1.c_p99
  (* ...while at one shard the mount cache absorbs the read-heavy mix,
     so reads never queue behind the fs the way writes do. *)
  && rh1.c_p99 <= wh1.c_p99
  && List.exists (fun p -> p.c_cache_hits > 0) t.s2_capacity
  && List.exists (fun p -> p.c_kept > 0) t.s2_capacity

let flash_verdict t =
  let f = t.s2_flash in
  f.f_throttled > 0 && f.f_crowd_throttled > 0 && f.f_scale_ups >= 1
  && f.f_failed = 0
  && f.f_survivor_p99 <= flash_p99_factor *. f.f_base_p99

let knee_verdict t =
  let n = t.s2_knee in
  n.n_closed_failed = 0 && n.n_open_failed = 0
  && n.n_open_p99 >= knee_p99_factor *. n.n_closed_p99

let crash_verdict t =
  let x = t.s2_crash in
  x.x_crashes = 1 && x.x_restarts >= 1 && x.x_double_applied = 0
  && x.x_failed = 0

let all_pass t =
  capacity_verdict t && flash_verdict t && knee_verdict t && crash_verdict t

(* --- printing ------------------------------------------------------------ *)

let print ppf t =
  Format.fprintf ppf
    "Figure S2: KV service tier over sharded m3fs (%d keys, zipf %.2f, %d \
     requests per cell)@."
    t.s2_keys t.s2_theta t.s2_requests;
  Format.fprintf ppf "  %-8s %-6s %10s %10s %8s %8s %8s %6s@." "shards" "mix"
    "p50" "p99" "hits" "invals" "kept" "dups";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-8d %-6s %10.0f %10.0f %8d %8d %8d %6d@."
        p.c_shards p.c_mix p.c_p50 p.c_p99 p.c_cache_hits p.c_cache_invals
        p.c_kept p.c_dup_skips)
    t.s2_capacity;
  Format.fprintf ppf "  cell: capacity %s@."
    (if capacity_verdict t then "PASS" else "FAIL");
  let f = t.s2_flash in
  Format.fprintf ppf
    "  flash: %d-id crowd -> %d throttled (%d from the crowd), %d scale-up(s); \
     survivor p99 %.0f vs base %.0f (bound %.1fx), %d failed@."
    f.f_crowd f.f_throttled f.f_crowd_throttled f.f_scale_ups f.f_survivor_p99
    f.f_base_p99 flash_p99_factor f.f_failed;
  Format.fprintf ppf "  cell: flash %s@."
    (if flash_verdict t then "PASS" else "FAIL");
  let n = t.s2_knee in
  Format.fprintf ppf
    "  knee: %d closed users vs open loop at %.4f req/kcycle -> closed p99 \
     %.0f, open p99 %.0f (want >= %.1fx)@."
    n.n_clients (n.n_offered *. 1000.0) n.n_closed_p99 n.n_open_p99
    knee_p99_factor;
  Format.fprintf ppf "  cell: knee %s@."
    (if knee_verdict t then "PASS" else "FAIL");
  let x = t.s2_crash in
  Format.fprintf ppf
    "  crash: pe%d killed, %d crash(es), %d restart(s), %d retried -> %d seqs \
     applied, %d double-applied, %d dup-skipped, %d failed@."
    x.x_victim_pe x.x_crashes x.x_restarts x.x_retried x.x_applied
    x.x_double_applied x.x_dup_skips x.x_failed;
  Format.fprintf ppf "  cell: crash %s@."
    (if crash_verdict t then "PASS" else "FAIL")

(* --- machine-readable results (FIGS2_results.json) ----------------------- *)

let jstr, jobj, jarr, jfloat, jbool = Figs.(jstr, jobj, jarr, jfloat, jbool)

let to_json t =
  jobj
    [
      ("experiment", jstr "figS2");
      ("quick", jbool t.s2_quick);
      ("requests", string_of_int t.s2_requests);
      ("keys", string_of_int t.s2_keys);
      ("theta", jfloat t.s2_theta);
      ( "capacity",
        jarr
          (List.map
             (fun p ->
               jobj
                 [
                   ("shards", string_of_int p.c_shards);
                   ("mix", jstr p.c_mix);
                   ("offered", jfloat p.c_offered);
                   ("throughput", jfloat p.c_throughput);
                   ("p50", jfloat p.c_p50);
                   ("p99", jfloat p.c_p99);
                   ("completed", string_of_int p.c_completed);
                   ("failed", string_of_int p.c_failed);
                   ("cache_hits", string_of_int p.c_cache_hits);
                   ("cache_misses", string_of_int p.c_cache_misses);
                   ("cache_invals", string_of_int p.c_cache_invals);
                   ("kept", string_of_int p.c_kept);
                   ("dup_skips", string_of_int p.c_dup_skips);
                 ])
             t.s2_capacity) );
      ("capacity_pass", jbool (capacity_verdict t));
      ( "flash",
        let f = t.s2_flash in
        jobj
          [
            ("crowd", string_of_int f.f_crowd);
            ("base_p99", jfloat f.f_base_p99);
            ("survivor_p99", jfloat f.f_survivor_p99);
            ("throttled", string_of_int f.f_throttled);
            ("crowd_throttled", string_of_int f.f_crowd_throttled);
            ("scale_ups", string_of_int f.f_scale_ups);
            ("scale_downs", string_of_int f.f_scale_downs);
            ("completed", string_of_int f.f_completed);
            ("failed", string_of_int f.f_failed);
            ("target_factor", jfloat flash_p99_factor);
            ("pass", jbool (flash_verdict t));
          ] );
      ( "knee",
        let n = t.s2_knee in
        jobj
          [
            ("clients", string_of_int n.n_clients);
            ("offered", jfloat n.n_offered);
            ("closed_p99", jfloat n.n_closed_p99);
            ("open_p99", jfloat n.n_open_p99);
            ("closed_completed", string_of_int n.n_closed_completed);
            ("open_completed", string_of_int n.n_open_completed);
            ("closed_failed", string_of_int n.n_closed_failed);
            ("open_failed", string_of_int n.n_open_failed);
            ("target_factor", jfloat knee_p99_factor);
            ("pass", jbool (knee_verdict t));
          ] );
      ( "crash",
        let x = t.s2_crash in
        jobj
          [
            ("victim_pe", string_of_int x.x_victim_pe);
            ("crashes", string_of_int x.x_crashes);
            ("restarts", string_of_int x.x_restarts);
            ("retried", string_of_int x.x_retried);
            ("applied", string_of_int x.x_applied);
            ("double_applied", string_of_int x.x_double_applied);
            ("dup_skips", string_of_int x.x_dup_skips);
            ("completed", string_of_int x.x_completed);
            ("failed", string_of_int x.x_failed);
            ("pass", jbool (crash_verdict t));
          ] );
      ("all_pass", jbool (all_pass t));
    ]
