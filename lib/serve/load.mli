(** Deterministic load generation.

    The open-loop side of the serving experiments: arrival times are
    drawn {e before} the simulation runs, from an explicitly seeded
    {!M3_sim.Rng}, so the same seed always produces the same schedule
    (the determinism test compares schedules structurally). The client
    then sends request [i] at cycle [at_i] regardless of how the pool
    is doing — which is what exposes the throughput–latency knee that
    closed-loop clients (who slow down with the service) cannot
    show. *)

type arrival = { at : int; client : int; req : Wire.request }
(** [client] is the id stamped on the client→dispatcher message for
    per-client gateway accounting; schedules drawn without a picker
    use 0 throughout (and burn no extra Rng draws, so they are
    identical to pre-gateway schedules). *)

(** A weighted request mix. Each entry is [(weight, make)]; [make]
    receives the request's sequence number and builds its kind, so
    e.g. [(1, fun seq -> Wire.Fs_stat seq)] spreads filesystem
    requests over the seed files deterministically. *)
type mix = (int * (int -> Wire.kind)) list

(** A client-id distribution: one draw per arrival. *)
type picker = M3_sim.Rng.t -> int

(** [pure k] is the single-kind mix. *)
val pure : Wire.kind -> mix

(** [pick_of ~rng ~mix] validates [mix] and returns the weighted kind
    picker the generators use — one Rng draw per call.
    @raise Invalid_argument on an empty mix or non-positive weight. *)
val pick_of : rng:M3_sim.Rng.t -> mix:mix -> int -> Wire.kind

(** [uniform_clients ~n] picks ids 0..n-1 uniformly. *)
val uniform_clients : n:int -> picker

(** [zipf_clients ~n ~theta] picks ids 0..n-1 with Zipfian skew
    [p(i) ~ 1/(i+1)^theta] via inverse-transform over the precomputed
    CDF — client 0 is the hottest, [theta = 0] degenerates to uniform.
    This is the realistic adversary for the hot-client gateway cell: a
    few ids dominate the offered load the way hot keys dominate a
    production keyspace.
    @raise Invalid_argument on [n < 1] or negative [theta]. *)
val zipf_clients : n:int -> theta:float -> picker

(** [poisson ~rng ~mean_gap ~count ~mix ()] draws [count] arrivals with
    exponentially distributed inter-arrival gaps of mean [mean_gap]
    cycles (clamped to at least 1), i.e. an open-loop Poisson process
    with rate [1 / mean_gap]. Arrival [i] carries sequence number [i].
    [clients] draws each arrival's client id from the tail of the Rng
    stream, after every gap and kind, so attaching a picker never
    perturbs the arrival times or kinds of an existing seed.
    @raise Invalid_argument on an empty mix, non-positive weights or
    [mean_gap <= 0]. *)
val poisson :
  ?clients:picker ->
  rng:M3_sim.Rng.t ->
  mean_gap:float ->
  count:int ->
  mix:mix ->
  unit ->
  arrival array

(** [ramp ~rng ~phases ~mix ()] concatenates Poisson segments — one
    [(mean_gap, count)] phase after another, each starting where the
    previous ended — into a single open-loop schedule with
    schedule-wide sequence numbers. The autoscale experiment uses it
    to step the offered load mid-run. *)
val ramp :
  ?clients:picker ->
  rng:M3_sim.Rng.t ->
  phases:(float * int) list ->
  mix:mix ->
  unit ->
  arrival array

(** [offered_rate schedule] is the realized arrival rate in requests
    per cycle (0 for fewer than two arrivals). *)
val offered_rate : arrival array -> float

(** [merge a b] interleaves two schedules by arrival time (stable:
    ties keep [a] before [b]) and renumbers sequence numbers to array
    indices — the composition primitive behind the hot-client and
    flash-crowd cells. *)
val merge : arrival array -> arrival array -> arrival array

(** {1 Flash crowds and think times}

    Both follow the draw-order convention of {!poisson}: gaps and
    kinds first, then one client id per arrival from the tail of the
    stream (only when [clients] is attached) — so attaching a picker
    never perturbs arrival times. *)

(** [flash ~rng ~mean_gap ~count ~mix ~flash_at ~flash_len
    ~flash_factor ~crowd_base ~crowd_n ()] is a well-behaved Poisson
    base stream plus a flash crowd: extra arrivals at [flash_factor]×
    the base rate confined to [flash_at, flash_at + flash_len), each
    stamped with a fresh client id drawn uniformly from
    [crowd_base .. crowd_base + crowd_n - 1]. The base stream
    (including its client tail) is drawn first, so it is byte-identical
    to plain {!poisson} from the same Rng — the flash is a pure
    extension of the draw stream.
    @raise Invalid_argument on a non-positive factor or empty crowd. *)
val flash :
  ?clients:picker ->
  rng:M3_sim.Rng.t ->
  mean_gap:float ->
  count:int ->
  mix:mix ->
  flash_at:int ->
  flash_len:int ->
  flash_factor:float ->
  crowd_base:int ->
  crowd_n:int ->
  unit ->
  arrival array

(** [think_times ~rng ~mean ~count] pre-draws [count] exponential
    think times (mean [mean] cycles, clamped ≥ 1) and returns the
    lookup {!Pool.run_closed} expects: resolution [k] thinks
    [samples.(k mod count)] cycles.
    @raise Invalid_argument on non-positive mean or count. *)
val think_times : rng:M3_sim.Rng.t -> mean:float -> count:int -> int -> int
