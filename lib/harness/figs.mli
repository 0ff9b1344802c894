(** Figure S: throughput–latency behaviour of multi-PE serving pools.

    Not a figure from the paper — the serving-pool experiment that
    §5's benchmarks gesture at: how do request latencies behave as an
    open-loop load approaches and passes the capacity of a pool of
    dedicated service PEs, and what do admission control and crash
    recovery buy. Four parts:

    - a {e sweep}: offered load from 30% to 150% of nominal capacity
      against pools of 1/2/4/8 workers, unbounded admission — the
      throughput–latency knee;
    - an {e admission} cell: the 4-worker pool at 1.5x overload with a
      bounded queue, measuring the p99 of {e accepted} requests and
      the reject count;
    - a {e crash} cell: the same pool with a worker-PE crash injected
      and its supervised restart, comparing windowed post-restart
      throughput against a healthy twin run on the same schedule;
    - a {e mix} cell: echo + m3fs stat/read (via the shard ring) + FFT
      requests against a pool mounting two m3fs shards;
    - an {e autoscale} cell: an elastic pool (kernel VPE scheduler,
      seats above the floor parked off their PEs) and a static
      floor-sized pool fed the same low→overload load ramp — the
      elastic pool resumes parked workers and holds accepted p99 near
      the low-load baseline while the static pool knees;
    - a {e hotclient} cell: three well-behaved clients plus one
      flooding client against a bucket-guarded pool — the gateway
      sheds the flood at admission and the survivors' p99 stays
      within {!hotclient_factor} of a no-flood baseline;
    - a {e breaker} cell: a single-seat pool with an injected backend
      stall — the breaker trips on the watchdog timeout, requests
      fast-fail ([E_unavailable]) while it is open, a half-open probe
      closes it, and the stalled batch's late reply is harvested so
      nothing fails or runs twice;
    - an {e upgrade} cell: a live worker seat and the mounted m3fs
      shards turn their generation over under load — zero failed
      client requests, zero capability/endpoint leaks. *)

type sweep_point = {
  s_util : float;  (** target utilization the schedule was drawn for *)
  s_offered : float;  (** realized offered rate, requests/cycle *)
  s_throughput : float;  (** completions/cycle over the makespan *)
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
  a_low_p99 : float;  (** p99 of the same pool at the lowest sweep load *)
  a_p99 : float;  (** p99 of accepted requests under overload *)
  a_completed : int;
  a_rejected : int;
}

type crash_out = {
  k_workers : int;
  k_victim_pe : int;
  k_crashes : int;  (** crashes the plan actually injected *)
  k_restarts : int;  (** replacement workers the dispatcher started *)
  k_retried : int;  (** requests re-dispatched after the death *)
  k_window : int * int;  (** post-restart measurement window (cycles) *)
  k_healthy_tput : float;  (** healthy twin's throughput in that window *)
  k_degraded_tput : float;
  k_ratio : float;  (** degraded / healthy *)
  k_completed_healthy : int;
  k_completed_degraded : int;
}

type mix_out = {
  m_requests : int;
  m_completed : int;
  m_failed : int;
  m_p99 : float;
  m_services : int;  (** m3fs shards the workers mounted *)
}

type autoscale_out = {
  u_floor : int;  (** active seats both pools start with *)
  u_max : int;  (** elastic pool's ceiling *)
  u_low_p99 : float;  (** elastic pool's p99 under the low phase alone *)
  u_elastic_p99 : float;  (** elastic pool's p99 across the full ramp *)
  u_static_p99 : float;  (** static floor pool's p99 across the same ramp *)
  u_scale_ups : int;  (** parked workers the dispatcher resumed *)
  u_scale_downs : int;  (** workers parked back after the ramp *)
  u_elastic_completed : int;
  u_static_completed : int;
}

type hotclient_out = {
  h_wb_clients : int;  (** well-behaved client count *)
  h_baseline_p99 : float;  (** their p99 with no flood present *)
  h_guarded_p99 : float;  (** their p99 with the flood being throttled *)
  h_hot_sent : int;
  h_hot_throttled : int;  (** flood requests shed by the bucket *)
  h_throttled : int;  (** dispatcher-side total *)
  h_completed : int;
}

type breaker_out = {
  b_trips : int;
  b_probes : int;
  b_closes : int;
  b_unavail : int;  (** fast-failed [E_unavailable] while open *)
  b_failed : int;
  b_deduped : int;  (** completions harvested from the stalled batch *)
  b_completed : int;
  b_sent : int;
}

type upgrade_out = {
  up_workers : int;
  up_upgrades : int;  (** worker swaps the dispatcher committed *)
  up_seen : int;  (** commit replies the client observed *)
  up_fs_gens : (string * int) list;  (** shard generations after drain *)
  up_failed : int;
  up_completed : int;
  up_sent : int;
  up_swap_mean : float;  (** mean swap latency, cycles *)
  up_retired : int;  (** cleanly retired worker generations *)
  up_leaked_eps : int;  (** endpoint bindings they left behind (want 0) *)
  up_leaked_caps : int;  (** capabilities they left behind (want 0) *)
}

type t = {
  g_quick : bool;
  g_service : int;  (** echo service time, cycles *)
  g_requests : int;  (** requests per sweep point *)
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

(** [run ()] executes every cell and returns the collected results.
    [quick] shrinks the sweep (fewer pools, fewer loads, shorter
    schedules) to CI size. [pools], [utils] and [requests] override
    the sweep dimensions; [seed] feeds every schedule (same seed,
    same schedules, same results — the determinism test relies on
    it). *)
val run :
  ?quick:bool ->
  ?pools:int list ->
  ?utils:float list ->
  ?requests:int ->
  ?seed:int ->
  unit ->
  t

(** The curve the acceptance checks run against: the 4-worker pool
    (the one the issue's criteria name), or the largest pool swept
    when 4 is absent. *)
val main_curve : t -> curve

(** Saturation knee on {!main_curve}: overload p99 at least
    [knee_p99_factor] times the low-load p99 while throughput has
    saturated (within 80% of peak). *)
val knee_verdict : t -> bool

val knee_p99_factor : float

(** Accepted-request p99 under 1.5x overload stays within
    [admission_p99_factor] of the low-load p99, and requests were
    actually rejected. *)
val admission_verdict : t -> bool

val admission_p99_factor : float

(** Exactly one injected crash, at least one supervised restart, and
    post-restart windowed throughput at least [(n-1)/n] of the healthy
    twin's. *)
val crash_verdict : t -> bool

(** Every mixed-kind request completed. *)
val mix_verdict : t -> bool

(** The elastic pool grew at least once and held p99 within
    [autoscale_p99_factor] of the low-load baseline across the ramp,
    while the static floor pool's p99 exceeded that bound. *)
val autoscale_verdict : t -> bool

val autoscale_p99_factor : float

(** The flood was throttled (at the bucket and per-client) and the
    well-behaved clients' p99 stayed within [hotclient_factor] of the
    no-flood baseline. *)
val hotclient_verdict : t -> bool

val hotclient_factor : float

(** The breaker tripped on the injected stall, fast-failed at least
    one request while open (no watchdog wait on the fast-fail path),
    recovered through a half-open probe, and no request failed. *)
val breaker_verdict : t -> bool

(** A worker swap and an m3fs shard generation turnover both committed
    under load with zero failed requests, and the retired worker
    generation left no endpoint bindings or capabilities behind. *)
val upgrade_verdict : t -> bool

val all_pass : t -> bool
val print : Format.formatter -> t -> unit

(** [to_json t] is the sweep (plus verdicts) as the [SERVE_results.json]
    document. *)
val to_json : t -> string

(** {1 JSON emitters}

    The hand-rolled emitters behind {!to_json}, shared with the other
    figure harnesses ({!Fig6x}, {!Figs2}) so every results file renders
    the same way. [jobj] takes pre-rendered values ([string_of_int] for
    integers). *)

val jstr : string -> string
val jobj : (string * string) list -> string
val jarr : string list -> string
val jfloat : float -> string
val jbool : bool -> string
