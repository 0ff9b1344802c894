module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Rng = M3_sim.Rng
module Stats = M3_sim.Stats
module Plan = M3_fault.Plan
module Pool = M3_serve.Pool
module Load = M3_serve.Load
module Wire = M3_serve.Wire
module Gateway = M3_serve.Gateway

type sweep_point = {
  s_util : float;
  s_offered : float;
  s_throughput : float;
  s_mean : float;
  s_p50 : float;
  s_p99 : float;
  s_completed : int;
  s_rejected : int;
}

type curve = { w_workers : int; w_points : sweep_point list }

type admission_out = {
  a_workers : int;
  a_queue_limit : int;
  a_util : float;
  a_low_p99 : float;
  a_p99 : float;
  a_completed : int;
  a_rejected : int;
}

type crash_out = {
  k_workers : int;
  k_victim_pe : int;
  k_crashes : int;
  k_restarts : int;
  k_retried : int;
  k_window : int * int;
  k_healthy_tput : float;
  k_degraded_tput : float;
  k_ratio : float;
  k_completed_healthy : int;
  k_completed_degraded : int;
}

type mix_out = {
  m_requests : int;
  m_completed : int;
  m_failed : int;
  m_p99 : float;
  m_services : int;
}

type autoscale_out = {
  u_floor : int;
  u_max : int;
  u_low_p99 : float;
  u_elastic_p99 : float;
  u_static_p99 : float;
  u_scale_ups : int;
  u_scale_downs : int;
  u_elastic_completed : int;
  u_static_completed : int;
}

type hotclient_out = {
  h_wb_clients : int;
  h_baseline_p99 : float;
  h_guarded_p99 : float;
  h_hot_sent : int;
  h_hot_throttled : int;
  h_throttled : int;
  h_completed : int;
}

type breaker_out = {
  b_trips : int;
  b_probes : int;
  b_closes : int;
  b_unavail : int;
  b_failed : int;
  b_deduped : int;
  b_completed : int;
  b_sent : int;
}

type upgrade_out = {
  up_workers : int;
  up_upgrades : int;
  up_seen : int;
  up_fs_gens : (string * int) list;
  up_failed : int;
  up_completed : int;
  up_sent : int;
  up_swap_mean : float;
  up_retired : int;
  up_leaked_eps : int;
  up_leaked_caps : int;
}

type t = {
  g_quick : bool;
  g_service : int;
  g_requests : int;
  g_utils : float list;
  g_curves : curve list;
  g_admission : admission_out;
  g_crash : crash_out;
  g_mix : mix_out;
  g_autoscale : autoscale_out;
  g_hotclient : hotclient_out;
  g_breaker : breaker_out;
  g_upgrade : upgrade_out;
}

(* --- knobs ------------------------------------------------------------ *)

let echo_service = 2_000 (* cycles of App work per echo request *)
let pools_full = [ 1; 2; 4; 8 ]
let pools_quick = [ 1; 4 ]
let utils_full = [ 0.3; 0.5; 0.7; 0.85; 1.0; 1.2; 1.5 ]
let utils_quick = [ 0.3; 0.6; 0.9; 1.2; 1.5 ]
let requests_full = 600
let requests_quick = 240
let overload_util = 1.5
let crash_util = 0.6

(* A pool of [n] workers nominally serves one echo every
   [echo_service / n] cycles; a schedule at utilization [u] draws
   arrivals with mean gap [echo_service / (n * u)]. *)
let mean_gap ~workers ~util =
  float_of_int echo_service /. (float_of_int workers *. util)

(* --- one simulated cell ----------------------------------------------- *)

(* Every cell is a fresh engine: bootstrap, launch the load-generating
   client, drive to idle, insist the client exited 0. [sched] boots the
   kernel with a VPE scheduler (the autoscale cell needs one);
   [pe_count] shrinks the platform so elasticity is about real PEs. *)
let run_sim ?fs_seed ?fs_instances ?plan ?pe_count ?sched ~label main =
  let engine = Engine.create () in
  let fs = fs_seed <> None in
  let fs_config ~dram =
    let base = M3.M3fs.default_config ~dram in
    match fs_seed with Some seed -> { base with M3.M3fs.seed } | None -> base
  in
  let platform_config =
    Option.map
      (fun pe_count -> { M3_hw.Platform.default_config with pe_count })
      pe_count
  in
  let sys =
    M3.Bootstrap.start ?platform_config ~fs:fs_config ?fs_instances
      ~no_fs:(not fs) ?faults:plan ?obs:(Runner.bus engine) ?sched engine
  in
  let exit = M3.Bootstrap.launch sys ~name:"client" (main sys) in
  ignore (Engine.run engine);
  match Process.Ivar.peek exit with
  | Some 0 -> sys
  | Some code -> failwith (Printf.sprintf "figS %s: client exited %d" label code)
  | None -> failwith (Printf.sprintf "figS %s: client never exited" label)

(* Run one open-loop schedule against a fresh pool and return what the
   client and the dispatcher saw. *)
let run_pool ?fs_seed ?fs_instances ?plan ?pe_count ?sched ~label ~cfg ~schedule
    () =
  let out = ref None in
  let _sys =
    run_sim ?fs_seed ?fs_instances ?plan ?pe_count ?sched ~label (fun sys env ->
        let cfg = { cfg with Pool.fs_services = sys.M3.Bootstrap.fs_services } in
        match Pool.start env cfg with
        | Error _ -> 1
        | Ok pool -> (
          let cr = Pool.run_open env pool ~schedule in
          match Pool.stop env pool with
          | Ok () ->
            out := Some (cr, Pool.stats pool);
            0
          | Error _ -> 1))
  in
  match !out with
  | Some r -> r
  | None -> failwith (Printf.sprintf "figS %s: no result" label)

let pct st p = Stats.percentile st p

let sweep_cell ~workers ~util ~requests ~seed =
  let rng = Rng.create ~seed in
  let schedule =
    Load.poisson ~rng
      ~mean_gap:(mean_gap ~workers ~util)
      ~count:requests
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  let label = Printf.sprintf "sweep w%d u%.2f" workers util in
  let cfg = Pool.default_config ~name:"sweep" ~workers () in
  let cr, _st = run_pool ~label ~cfg ~schedule () in
  let makespan = max 1 (cr.Pool.cr_last_done - cr.Pool.cr_first_send) in
  {
    s_util = util;
    s_offered = Load.offered_rate schedule;
    s_throughput = float_of_int cr.Pool.cr_completed /. float_of_int makespan;
    s_mean = Stats.mean cr.Pool.cr_latency;
    s_p50 = pct cr.Pool.cr_latency 50.0;
    s_p99 = pct cr.Pool.cr_latency 99.0;
    s_completed = cr.Pool.cr_completed;
    s_rejected = cr.Pool.cr_rejected;
  }

let admission_cell ~workers ~requests ~seed ~low_p99 =
  let queue_limit = 2 * workers in
  let rng = Rng.create ~seed in
  let schedule =
    Load.poisson ~rng
      ~mean_gap:(mean_gap ~workers ~util:overload_util)
      ~count:requests
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  let cfg =
    { (Pool.default_config ~name:"admit" ~workers ()) with Pool.queue_limit }
  in
  let cr, _st = run_pool ~label:"admission" ~cfg ~schedule () in
  {
    a_workers = workers;
    a_queue_limit = queue_limit;
    a_util = overload_util;
    a_low_p99 = low_p99;
    a_p99 = pct cr.Pool.cr_latency 99.0;
    a_completed = cr.Pool.cr_completed;
    a_rejected = cr.Pool.cr_rejected;
  }

(* PE layout without fs (lowest free PE wins): kernel 0, client 1,
   dispatcher 2, workers 3..2+n; the replacement lands on 3+n. Killing
   PE 3 kills worker seat 0. *)
let crash_victim_pe = 3

let crash_cell ~workers ~requests ~seed =
  let schedule_of s =
    Load.poisson ~rng:(Rng.create ~seed:s)
      ~mean_gap:(mean_gap ~workers ~util:crash_util)
      ~count:requests
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  let cfg = Pool.default_config ~name:"crash" ~workers () in
  let healthy_cr, _ =
    run_pool ~label:"crash-healthy" ~cfg ~schedule:(schedule_of seed) ()
  in
  (* Crashes only, so the run measures the crash path and nothing
     else. *)
  let plan =
    Plan.create ~crashes:[ (crash_victim_pe, 40) ] ~seed:(seed lxor 0xC4A5) ()
  in
  let degraded_cr, degraded_st =
    run_pool ~plan ~label:"crash-degraded" ~cfg ~schedule:(schedule_of seed) ()
  in
  (* Post-restart steady state: skip a settling margin after the
     replacement came up, then compare completion rates over a fixed
     window of the two runs (identical arrival schedules). *)
  let w0 = max 0 degraded_st.Pool.p_restart_cycle + 20_000 in
  let w1 = w0 + 150_000 in
  let tput cr =
    let n =
      List.length
        (List.filter
           (fun (at, _) -> at >= w0 && at < w1)
           cr.Pool.cr_completions)
    in
    float_of_int n /. float_of_int (w1 - w0)
  in
  let healthy_tput = tput healthy_cr in
  let degraded_tput = tput degraded_cr in
  {
    k_workers = workers;
    k_victim_pe = crash_victim_pe;
    k_crashes = Plan.crashes_injected plan;
    k_restarts = degraded_st.Pool.p_restarts;
    k_retried = degraded_st.Pool.p_retried;
    k_window = (w0, w1);
    k_healthy_tput = healthy_tput;
    k_degraded_tput = degraded_tput;
    k_ratio = (if healthy_tput > 0.0 then degraded_tput /. healthy_tput else 0.0);
    k_completed_healthy = healthy_cr.Pool.cr_completed;
    k_completed_degraded = degraded_cr.Pool.cr_completed;
  }

let mix_files = 8

let mix_seed_files =
  List.init mix_files (fun i ->
      {
        M3.M3fs.sd_path = Printf.sprintf "/s%d" i;
        sd_size = 8 * 1024;
        sd_blocks_per_extent = 4;
        sd_dir = false;
      })

let mix_cell ~requests ~seed =
  let workers = 4 in
  let rng = Rng.create ~seed in
  let mix =
    [
      (6, fun _ -> Wire.Echo echo_service);
      (2, fun s -> Wire.Fs_stat s);
      (1, fun s -> Wire.Fs_read s);
      (1, fun _ -> Wire.Fft 64);
    ]
  in
  let schedule =
    Load.poisson ~rng ~mean_gap:(float_of_int echo_service) ~count:requests ~mix
      ()
  in
  let cfg =
    { (Pool.default_config ~name:"mix" ~workers ()) with Pool.files = mix_files }
  in
  let cr, _st =
    run_pool ~fs_seed:mix_seed_files ~fs_instances:2 ~label:"mix" ~cfg ~schedule
      ()
  in
  {
    m_requests = requests;
    m_completed = cr.Pool.cr_completed;
    m_failed = cr.Pool.cr_failed;
    m_p99 = pct cr.Pool.cr_latency 99.0;
    m_services = 2;
  }

(* --- autoscale cell ----------------------------------------------------

   The scheduler experiment: an elastic pool (floor active, the rest
   of its seats parked off their PEs by the kernel scheduler) against
   a static pool of just the floor, both fed the same two-phase ramp —
   a low phase at half the floor's capacity, then a step to well past
   it. The static pool saturates and its p99 knees; the elastic one
   resumes parked workers on the queue-depth signal and holds the p99
   of accepted requests near the low-load baseline. *)

let autoscale_floor = 2
let autoscale_max = 5
let autoscale_low_util = 0.5 (* of floor capacity *)
let autoscale_high_util = 2.0 (* of floor capacity = 0.8 of the ceiling *)
let autoscale_pe_count = 8 (* kernel + client + dispatcher + max workers *)

let autoscale_cfg ~elastic =
  if elastic then
    Pool.default_config ~name:"auto" ~min_workers:autoscale_floor
      ~workers:autoscale_max ()
  else Pool.default_config ~name:"auto" ~workers:autoscale_floor ()

let autoscale_cell ~requests ~seed =
  let gap u = mean_gap ~workers:autoscale_floor ~util:u in
  let low_n = requests / 3 in
  let high_n = requests - low_n in
  let ramp_of s =
    Load.ramp ~rng:(Rng.create ~seed:s)
      ~phases:
        [ (gap autoscale_low_util, low_n); (gap autoscale_high_util, high_n) ]
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  let low_schedule =
    Load.poisson ~rng:(Rng.create ~seed)
      ~mean_gap:(gap autoscale_low_util)
      ~count:low_n
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  let run ~label ~elastic ~schedule =
    run_pool ~pe_count:autoscale_pe_count ~sched:true ~label
      ~cfg:(autoscale_cfg ~elastic) ~schedule ()
  in
  let low_cr, _ =
    run ~label:"autoscale-low" ~elastic:true ~schedule:low_schedule
  in
  let elastic_cr, elastic_st =
    run ~label:"autoscale-elastic" ~elastic:true ~schedule:(ramp_of seed)
  in
  let static_cr, _ =
    run ~label:"autoscale-static" ~elastic:false ~schedule:(ramp_of seed)
  in
  {
    u_floor = autoscale_floor;
    u_max = autoscale_max;
    u_low_p99 = pct low_cr.Pool.cr_latency 99.0;
    u_elastic_p99 = pct elastic_cr.Pool.cr_latency 99.0;
    u_static_p99 = pct static_cr.Pool.cr_latency 99.0;
    u_scale_ups = elastic_st.Pool.p_scale_ups;
    u_scale_downs = elastic_st.Pool.p_scale_downs;
    u_elastic_completed = elastic_cr.Pool.cr_completed;
    u_static_completed = static_cr.Pool.cr_completed;
  }

(* --- gateway cells -----------------------------------------------------

   Three robustness cells for the gateway tier. [hotclient]: three
   well-behaved clients plus one flooding client against a
   bucket-guarded pool — the bucket sheds the flood at admission and
   the survivors' p99 stays near the no-flood baseline. [breaker]: a
   single-seat pool with one poisoned request that stalls the worker
   past the watchdog — the breaker trips, requests fast-fail while it
   is open, a half-open probe closes it, and the harvested late reply
   keeps every request exactly-once. [upgrade]: a live worker seat and
   the mounted m3fs shards turn their generation over under load with
   zero failed requests and zero capability/endpoint leaks. *)

let hotclient_wb = 3
let hotclient_factor = 1.5

(* One token back every [refill] cycles. The well-behaved per-client
   rate (one request per ~3750 cycles at 0.4 pool utilization split
   three ways) stays under it; the flooding client (one per 250) runs
   12x over, so the bucket sheds ~11/12 of the flood and what leaks
   through adds only a sixth of the pool's capacity. *)
let hotclient_refill = 3_000
let hotclient_wb_util = 0.4

let hotclient_cell ~requests ~seed =
  let workers = 4 in
  let wb_of s =
    Load.poisson ~rng:(Rng.create ~seed:s)
      ~clients:(fun rng -> 1 + Load.uniform_clients ~n:hotclient_wb rng)
      ~mean_gap:(mean_gap ~workers ~util:hotclient_wb_util)
      ~count:requests
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  let hot_of s =
    Load.poisson ~rng:(Rng.create ~seed:s)
      ~clients:(fun _ -> 0)
      ~mean_gap:(mean_gap ~workers ~util:2.0)
      ~count:requests
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  (* Interleave the flood into the well-behaved schedule by arrival
     time and renumber (seq must stay the array index). *)
  let merge = Load.merge in
  let cfg =
    {
      (Pool.default_config ~name:"hot" ~workers ()) with
      Pool.gateway =
        Some
          (Gateway.config
             ~bucket:(Gateway.bucket ~refill:hotclient_refill ())
             ());
    }
  in
  (* p99 over the well-behaved clients only (the flood's own latency
     is not an isolation claim). *)
  let guarded_p99 cr =
    let merged =
      List.fold_left
        (fun acc (c, pc) ->
          if c = 0 then acc else Stats.merge acc pc.Pool.pc_latency)
        (Stats.create ()) cr.Pool.cr_clients
    in
    pct merged 99.0
  in
  let base_cr, _ =
    run_pool ~label:"hotclient-base" ~cfg ~schedule:(wb_of (seed + 1)) ()
  in
  let hot_cr, hot_st =
    run_pool ~label:"hotclient-hot" ~cfg
      ~schedule:(merge (wb_of (seed + 1)) (hot_of (seed + 2)))
      ()
  in
  let hot_pc = List.assoc_opt 0 hot_cr.Pool.cr_clients in
  {
    h_wb_clients = hotclient_wb;
    h_baseline_p99 = guarded_p99 base_cr;
    h_guarded_p99 = guarded_p99 hot_cr;
    h_hot_sent = (match hot_pc with Some pc -> pc.Pool.pc_sent | None -> 0);
    h_hot_throttled =
      (match hot_pc with Some pc -> pc.Pool.pc_throttled | None -> 0);
    h_throttled = hot_st.Pool.p_throttled;
    h_completed = hot_cr.Pool.cr_completed;
  }

(* Stall (60k) > watchdog (30k), so the poisoned request trips the
   breaker; the worker frees (and its late reply is harvested) before
   the cooldown (50k past the trip) admits the half-open probe. *)
let breaker_watchdog = 30_000
let breaker_cooldown = 50_000
let breaker_stall = 60_000
let breaker_poison_idx = 10

let breaker_cell ~requests ~seed =
  let requests = Stdlib.max requests 120 in
  let schedule =
    Load.poisson ~rng:(Rng.create ~seed) ~mean_gap:2_500.0 ~count:requests
      ~mix:(Load.pure (Wire.Echo echo_service)) ()
  in
  let idx = Stdlib.min breaker_poison_idx (requests - 1) in
  schedule.(idx) <-
    {
      (schedule.(idx)) with
      Load.req = { schedule.(idx).Load.req with Wire.rk = Wire.App 1 };
    };
  (* The stall fires exactly once: the harvested re-execution (and the
     probe) must run at normal speed or the breaker never closes. *)
  let stalled = ref false in
  let cfg =
    {
      (Pool.default_config ~name:"brk" ~workers:1 ()) with
      Pool.watchdog = breaker_watchdog;
      gateway =
        Some
          (Gateway.config
             ~breaker:(Gateway.breaker ~cooldown:breaker_cooldown ())
             ());
      app =
        Some
          (fun _ ->
            if !stalled then 500
            else begin
              stalled := true;
              breaker_stall
            end);
    }
  in
  let cr, st = run_pool ~label:"breaker" ~cfg ~schedule () in
  {
    b_trips = st.Pool.p_trips;
    b_probes = st.Pool.p_probes;
    b_closes = st.Pool.p_closes;
    b_unavail = cr.Pool.cr_unavail;
    b_failed = cr.Pool.cr_failed;
    b_deduped = st.Pool.p_deduped;
    b_completed = cr.Pool.cr_completed;
    b_sent = cr.Pool.cr_sent;
  }

(* Upgrade under load: echo + m3fs stat traffic against a 3-seat pool
   mounting two shards; a third of the way in, worker seat 0 turns its
   generation over ({!Pool.upgrade_worker}); two thirds in, the client
   drains both mounted shards ({!M3.Vfs.drain}). Zero failed requests,
   and the retired worker generation leaves no endpoint bindings or
   capabilities behind. *)
let upgrade_workers = 3

let upgrade_cell ~requests ~seed =
  let requests = Stdlib.max 120 requests in
  let mix =
    [ (3, fun _ -> Wire.Echo echo_service); (1, fun s -> Wire.Fs_stat s) ]
  in
  let schedule =
    Load.poisson ~rng:(Rng.create ~seed) ~mean_gap:1_200.0 ~count:requests ~mix
      ()
  in
  let fs_gens = ref [] in
  let res = ref None in
  let sys =
    run_sim ~fs_seed:mix_seed_files ~fs_instances:2 ~sched:true ~label:"upgrade"
      (fun sys env ->
        match
          M3.Vfs.mount_sharded env ~path:"/"
            ~services:sys.M3.Bootstrap.fs_services
        with
        | Error _ -> 1
        | Ok () -> (
          let cfg =
            {
              (Pool.default_config ~name:"upg" ~workers:upgrade_workers ()) with
              Pool.fs_services = sys.M3.Bootstrap.fs_services;
              files = mix_files;
            }
          in
          match Pool.start env cfg with
          | Error _ -> 1
          | Ok pool -> (
            let actions =
              [
                ( requests / 3,
                  fun () -> ignore (Pool.upgrade_worker env pool ~worker:0) );
                ( 2 * requests / 3,
                  fun () ->
                    match M3.Vfs.drain env ~path:"/" with
                    | Ok gens -> fs_gens := gens
                    | Error _ -> () );
              ]
            in
            let cr = Pool.run_open ~actions env pool ~schedule in
            let seen = Pool.upgrades_seen pool in
            match Pool.stop env pool with
            | Error _ -> 1
            | Ok () ->
              res := Some (cr, Pool.stats pool, seen);
              0)))
  in
  let cr, st, seen =
    match !res with
    | Some r -> r
    | None -> failwith "figS upgrade: no result"
  in
  let k = sys.M3.Bootstrap.kernel in
  let leaked_eps, leaked_caps =
    List.fold_left
      (fun (eps, caps) vpe_id ->
        let e = M3.Kernel.ep_entries k ~vpe_id in
        let c =
          match M3.Kernel.find_vpe k ~vpe_id with
          | Some v -> M3.Kdata.count_caps v
          | None -> 0
        in
        (eps + e, caps + c))
      (0, 0) st.Pool.p_retired_vpes
  in
  {
    up_workers = upgrade_workers;
    up_upgrades = st.Pool.p_upgrades;
    up_seen = seen;
    up_fs_gens = !fs_gens;
    up_failed = cr.Pool.cr_failed;
    up_completed = cr.Pool.cr_completed;
    up_sent = cr.Pool.cr_sent;
    up_swap_mean = Stats.mean st.Pool.p_upgrade_cycles;
    up_retired = List.length st.Pool.p_retired_vpes;
    up_leaked_eps = leaked_eps;
    up_leaked_caps = leaked_caps;
  }

(* --- the experiment ---------------------------------------------------- *)

let run ?(quick = false) ?pools ?utils ?requests ?(seed = 0x5E5E) () =
  let pools =
    match pools with
    | Some p -> p
    | None -> if quick then pools_quick else pools_full
  in
  let utils =
    match utils with
    | Some u -> u
    | None -> if quick then utils_quick else utils_full
  in
  let requests =
    match requests with
    | Some r -> r
    | None -> if quick then requests_quick else requests_full
  in
  let point_seed ~workers ~idx = seed + (workers * 1000) + idx in
  let curves =
    List.map
      (fun workers ->
        {
          w_workers = workers;
          w_points =
            List.mapi
              (fun idx util ->
                sweep_cell ~workers ~util ~requests
                  ~seed:(point_seed ~workers ~idx))
              utils;
        })
      pools
  in
  let main_workers =
    if List.mem 4 pools then 4 else List.fold_left max 1 pools
  in
  let low_p99 =
    let c = List.find (fun c -> c.w_workers = main_workers) curves in
    (List.hd c.w_points).s_p99
  in
  let admission =
    admission_cell ~workers:main_workers ~requests ~seed:(seed + 71) ~low_p99
  in
  let crash =
    crash_cell ~workers:4
      ~requests:(max requests 400)
      ~seed:(seed + 113)
  in
  let mix = mix_cell ~requests:(max 120 (requests / 4)) ~seed:(seed + 199) in
  let autoscale =
    autoscale_cell ~requests:(max 240 requests) ~seed:(seed + 241)
  in
  let hotclient = hotclient_cell ~requests ~seed:(seed + 307) in
  let breaker = breaker_cell ~requests ~seed:(seed + 353) in
  let upgrade = upgrade_cell ~requests ~seed:(seed + 401) in
  {
    g_quick = quick;
    g_service = echo_service;
    g_requests = requests;
    g_utils = utils;
    g_curves = curves;
    g_admission = admission;
    g_crash = crash;
    g_mix = mix;
    g_autoscale = autoscale;
    g_hotclient = hotclient;
    g_breaker = breaker;
    g_upgrade = upgrade;
  }

(* --- verdicts ---------------------------------------------------------- *)

(* The acceptance criteria are stated for the 4-worker pool; fall back
   to the largest pool when 4 was excluded from the sweep. *)
let main_curve t =
  match List.find_opt (fun c -> c.w_workers = 4) t.g_curves with
  | Some c -> c
  | None ->
    let w = List.fold_left (fun acc c -> max acc c.w_workers) 1 t.g_curves in
    List.find (fun c -> c.w_workers = w) t.g_curves

let knee_p99_factor = 4.0
let admission_p99_factor = 3.0

let knee_verdict t =
  let c = main_curve t in
  match c.w_points with
  | [] -> false
  | low :: _ ->
    let last = List.nth c.w_points (List.length c.w_points - 1) in
    let peak =
      List.fold_left (fun acc p -> Float.max acc p.s_throughput) 0.0 c.w_points
    in
    last.s_p99 >= knee_p99_factor *. low.s_p99
    && last.s_throughput >= 0.8 *. peak

let admission_verdict t =
  let a = t.g_admission in
  a.a_rejected > 0 && a.a_p99 <= admission_p99_factor *. a.a_low_p99

let crash_verdict t =
  let k = t.g_crash in
  let floor_ratio = float_of_int (k.k_workers - 1) /. float_of_int k.k_workers in
  k.k_crashes = 1 && k.k_restarts >= 1 && k.k_ratio >= floor_ratio

let mix_verdict t =
  let m = t.g_mix in
  m.m_failed = 0 && m.m_completed = m.m_requests

let autoscale_p99_factor = 2.0

let autoscale_verdict t =
  let u = t.g_autoscale in
  let bound = autoscale_p99_factor *. u.u_low_p99 in
  u.u_scale_ups >= 1
  && u.u_elastic_p99 <= bound
  && u.u_static_p99 > bound

let hotclient_verdict t =
  let h = t.g_hotclient in
  h.h_throttled > 0
  && h.h_hot_throttled > 0
  && h.h_guarded_p99 <= hotclient_factor *. h.h_baseline_p99

let breaker_verdict t =
  let b = t.g_breaker in
  b.b_trips >= 1 && b.b_probes >= 1 && b.b_closes >= 1 && b.b_unavail > 0
  && b.b_failed = 0

let upgrade_verdict t =
  let u = t.g_upgrade in
  u.up_failed = 0 && u.up_upgrades >= 1 && u.up_seen >= 1
  && u.up_fs_gens <> []
  && List.for_all (fun (_, g) -> g >= 1) u.up_fs_gens
  && u.up_leaked_eps = 0 && u.up_leaked_caps = 0

let all_pass t =
  knee_verdict t && admission_verdict t && crash_verdict t && mix_verdict t
  && autoscale_verdict t && hotclient_verdict t && breaker_verdict t
  && upgrade_verdict t

(* --- printing ---------------------------------------------------------- *)

let print ppf t =
  Format.fprintf ppf
    "Figure S: serving-pool throughput vs latency (echo service %d cycles, \
     %d requests per point)@."
    t.g_service t.g_requests;
  Format.fprintf ppf "  %-8s" "workers";
  List.iter (fun u -> Format.fprintf ppf "%10.2f" u) t.g_utils;
  Format.fprintf ppf "   (offered load / nominal capacity)@.";
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-8d" c.w_workers;
      List.iter (fun p -> Format.fprintf ppf "%10.0f" p.s_p99) c.w_points;
      Format.fprintf ppf "   p99 cycles@.")
    t.g_curves;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-8d" c.w_workers;
      List.iter
        (fun p -> Format.fprintf ppf "%10.4f" (p.s_throughput *. 1000.0))
        c.w_points;
      Format.fprintf ppf "   completions per kcycle@.")
    t.g_curves;
  let a = t.g_admission in
  Format.fprintf ppf
    "  admission: %d workers, queue limit %d, %.1fx load -> p99 %.0f vs \
     low-load %.0f (target <= %.0fx), %d accepted, %d rejected %s@."
    a.a_workers a.a_queue_limit a.a_util a.a_p99 a.a_low_p99
    admission_p99_factor a.a_completed a.a_rejected
    (if admission_verdict t then "PASS" else "FAIL");
  let k = t.g_crash in
  let w0, w1 = k.k_window in
  Format.fprintf ppf
    "  crash: pe%d killed, %d crash(es), %d restart(s), %d retried; window \
     [%d,%d) tput %.4f vs healthy %.4f per kcycle -> ratio %.2f (target >= \
     %.2f) %s@."
    k.k_victim_pe k.k_crashes k.k_restarts k.k_retried w0 w1
    (k.k_degraded_tput *. 1000.0)
    (k.k_healthy_tput *. 1000.0)
    k.k_ratio
    (float_of_int (k.k_workers - 1) /. float_of_int k.k_workers)
    (if crash_verdict t then "PASS" else "FAIL");
  let m = t.g_mix in
  Format.fprintf ppf
    "  mix: %d requests (echo/stat/read/fft) over %d m3fs shards -> %d \
     completed, %d failed, p99 %.0f %s@."
    m.m_requests m.m_services m.m_completed m.m_failed m.m_p99
    (if mix_verdict t then "PASS" else "FAIL");
  let u = t.g_autoscale in
  Format.fprintf ppf
    "  autoscale: %d..%d workers vs static %d on a %.1fx ramp -> elastic p99 \
     %.0f, static p99 %.0f, low-load p99 %.0f (bound %.0fx), %d scale-up(s), \
     %d scale-down(s) %s@."
    u.u_floor u.u_max u.u_floor autoscale_high_util u.u_elastic_p99
    u.u_static_p99 u.u_low_p99 autoscale_p99_factor u.u_scale_ups
    u.u_scale_downs
    (if autoscale_verdict t then "PASS" else "FAIL");
  let h = t.g_hotclient in
  Format.fprintf ppf
    "  hotclient: %d guarded clients + 1 flood -> guarded p99 %.0f vs \
     baseline %.0f (bound %.1fx), flood %d/%d throttled (%d total) %s@."
    h.h_wb_clients h.h_guarded_p99 h.h_baseline_p99 hotclient_factor
    h.h_hot_throttled h.h_hot_sent h.h_throttled
    (if hotclient_verdict t then "PASS" else "FAIL");
  let b = t.g_breaker in
  Format.fprintf ppf
    "  breaker: %d trip(s), %d probe(s), %d close(s); %d fast-failed while \
     open, %d harvested, %d/%d completed, %d failed %s@."
    b.b_trips b.b_probes b.b_closes b.b_unavail b.b_deduped b.b_completed
    b.b_sent b.b_failed
    (if breaker_verdict t then "PASS" else "FAIL");
  let u = t.g_upgrade in
  Format.fprintf ppf
    "  upgrade: %d worker swap(s) (client saw %d, mean %.0f cycles), fs gens \
     [%s]; %d/%d completed, %d failed, %d retired VPE(s) leak %d eps %d caps \
     %s@."
    u.up_upgrades u.up_seen u.up_swap_mean
    (String.concat "; "
       (List.map (fun (s, g) -> Printf.sprintf "%s:%d" s g) u.up_fs_gens))
    u.up_completed u.up_sent u.up_failed u.up_retired u.up_leaked_eps
    u.up_leaked_caps
    (if upgrade_verdict t then "PASS" else "FAIL");
  Format.fprintf ppf
    "  knee: p99 %s by >= %.0fx at saturation while throughput holds 80%% of \
     peak -> %s@."
    "inflates" knee_p99_factor
    (if knee_verdict t then "PASS" else "FAIL")

(* --- machine-readable results (SERVE_results.json) --------------------- *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jobj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let jarr items = "[" ^ String.concat "," items ^ "]"
let jfloat f = if Float.is_nan f then "null" else Printf.sprintf "%.6f" f
let jbool b = if b then "true" else "false"

let to_json t =
  jobj
    [
      ("experiment", jstr "figS");
      ("quick", jbool t.g_quick);
      ("service_cycles", string_of_int t.g_service);
      ("requests_per_point", string_of_int t.g_requests);
      ("utils", jarr (List.map jfloat t.g_utils));
      ( "curves",
        jarr
          (List.map
             (fun c ->
               jobj
                 [
                   ("workers", string_of_int c.w_workers);
                   ( "points",
                     jarr
                       (List.map
                          (fun p ->
                            jobj
                              [
                                ("util", jfloat p.s_util);
                                ("offered", jfloat p.s_offered);
                                ("throughput", jfloat p.s_throughput);
                                ("mean", jfloat p.s_mean);
                                ("p50", jfloat p.s_p50);
                                ("p99", jfloat p.s_p99);
                                ("completed", string_of_int p.s_completed);
                                ("rejected", string_of_int p.s_rejected);
                              ])
                          c.w_points) );
                 ])
             t.g_curves) );
      ( "admission",
        let a = t.g_admission in
        jobj
          [
            ("workers", string_of_int a.a_workers);
            ("queue_limit", string_of_int a.a_queue_limit);
            ("util", jfloat a.a_util);
            ("low_p99", jfloat a.a_low_p99);
            ("p99", jfloat a.a_p99);
            ("completed", string_of_int a.a_completed);
            ("rejected", string_of_int a.a_rejected);
            ("target_factor", jfloat admission_p99_factor);
            ("pass", jbool (admission_verdict t));
          ] );
      ( "crash",
        let k = t.g_crash in
        let w0, w1 = k.k_window in
        jobj
          [
            ("workers", string_of_int k.k_workers);
            ("victim_pe", string_of_int k.k_victim_pe);
            ("crashes", string_of_int k.k_crashes);
            ("restarts", string_of_int k.k_restarts);
            ("retried", string_of_int k.k_retried);
            ("window", jarr [ string_of_int w0; string_of_int w1 ]);
            ("healthy_tput", jfloat k.k_healthy_tput);
            ("degraded_tput", jfloat k.k_degraded_tput);
            ("ratio", jfloat k.k_ratio);
            ("completed_healthy", string_of_int k.k_completed_healthy);
            ("completed_degraded", string_of_int k.k_completed_degraded);
            ("pass", jbool (crash_verdict t));
          ] );
      ( "mix",
        let m = t.g_mix in
        jobj
          [
            ("requests", string_of_int m.m_requests);
            ("completed", string_of_int m.m_completed);
            ("failed", string_of_int m.m_failed);
            ("p99", jfloat m.m_p99);
            ("services", string_of_int m.m_services);
            ("pass", jbool (mix_verdict t));
          ] );
      ( "autoscale",
        let u = t.g_autoscale in
        jobj
          [
            ("floor", string_of_int u.u_floor);
            ("max", string_of_int u.u_max);
            ("low_p99", jfloat u.u_low_p99);
            ("elastic_p99", jfloat u.u_elastic_p99);
            ("static_p99", jfloat u.u_static_p99);
            ("scale_ups", string_of_int u.u_scale_ups);
            ("scale_downs", string_of_int u.u_scale_downs);
            ("elastic_completed", string_of_int u.u_elastic_completed);
            ("static_completed", string_of_int u.u_static_completed);
            ("target_factor", jfloat autoscale_p99_factor);
            ("pass", jbool (autoscale_verdict t));
          ] );
      ( "hotclient",
        let h = t.g_hotclient in
        jobj
          [
            ("wb_clients", string_of_int h.h_wb_clients);
            ("baseline_p99", jfloat h.h_baseline_p99);
            ("guarded_p99", jfloat h.h_guarded_p99);
            ("hot_sent", string_of_int h.h_hot_sent);
            ("hot_throttled", string_of_int h.h_hot_throttled);
            ("throttled", string_of_int h.h_throttled);
            ("completed", string_of_int h.h_completed);
            ("target_factor", jfloat hotclient_factor);
            ("pass", jbool (hotclient_verdict t));
          ] );
      ( "breaker",
        let b = t.g_breaker in
        jobj
          [
            ("trips", string_of_int b.b_trips);
            ("probes", string_of_int b.b_probes);
            ("closes", string_of_int b.b_closes);
            ("unavail", string_of_int b.b_unavail);
            ("failed", string_of_int b.b_failed);
            ("deduped", string_of_int b.b_deduped);
            ("completed", string_of_int b.b_completed);
            ("sent", string_of_int b.b_sent);
            ("pass", jbool (breaker_verdict t));
          ] );
      ( "upgrade",
        let u = t.g_upgrade in
        jobj
          [
            ("workers", string_of_int u.up_workers);
            ("upgrades", string_of_int u.up_upgrades);
            ("seen", string_of_int u.up_seen);
            ( "fs_gens",
              jarr
                (List.map
                   (fun (s, g) ->
                     jobj [ ("service", jstr s); ("gen", string_of_int g) ])
                   u.up_fs_gens) );
            ("failed", string_of_int u.up_failed);
            ("completed", string_of_int u.up_completed);
            ("sent", string_of_int u.up_sent);
            ("swap_mean", jfloat u.up_swap_mean);
            ("retired", string_of_int u.up_retired);
            ("leaked_eps", string_of_int u.up_leaked_eps);
            ("leaked_caps", string_of_int u.up_leaked_caps);
            ("pass", jbool (upgrade_verdict t));
          ] );
      ("knee_pass", jbool (knee_verdict t));
      ("all_pass", jbool (all_pass t));
    ]
