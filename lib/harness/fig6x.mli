(** Figure 6x: the sharding answer to Figure 6's saturation.

    Fig. 6 shows a single m3fs saturating: 16 parallel [find] instances
    degrade to ~6x their solo time. §5.7 of the paper names additional
    service instances as the remedy. This experiment sweeps m3fs shard
    counts against instance counts for the service-bound benchmarks
    ([find], [untar]) — each point boots one kernel plus N m3fs shards
    ({!M3.Bootstrap.start}[ ~fs_instances]) and mounts clients through
    the path-sharded VFS ({!M3.Vfs.mount_sharded}) — and reports the
    normalized curves plus per-shard queue-depth metrics
    ([fs.shard.queue] events) so the flattening is measurable. *)

type queue_stat = {
  q_srv : string;  (** shard service name, e.g. ["m3fs.2"] *)
  q_samples : int;  (** requests picked up (= depth samples) *)
  q_mean : float;
  q_p95 : float;
  q_max : float;
  q_resolves : int;  (** client-side path resolutions routed here *)
}

type cell = {
  c_instances : int;
  c_avg : int;  (** average measured cycles per instance *)
  c_normalized : float;  (** [c_avg] / same-curve 1-instance [c_avg] *)
  c_queues : queue_stat list;  (** per shard; empty on 1-shard cells *)
}

type curve = {
  v_bench : string;
  v_shards : int;
  v_cells : cell list;
}

(** Warm find through the mount cache: the §5.6 find workload replayed
    cold and warm — the warm walk's stats are served from the cached
    attrs instead of service round-trips. *)
type warm_find = {
  wf_cold : Runner.measure;
  wf_warm : Runner.measure;
  wf_cold_rt : int;  (** service round-trips, cold walk *)
  wf_warm_rt : int;  (** ... warm walk *)
  wf_hit_rate : float;  (** cache hit rate over the primed run *)
}

type t = {
  r_counts : int list;
  r_shards : int list;
  r_curves : curve list;
  r_warm : warm_find;
}

(** [warm_find_pass ~primed ()] runs one pass of the warm-find cell on
    a fresh system and returns (measure, round-trips, cache hits,
    cache misses). *)
val warm_find_pass : primed:bool -> unit -> Runner.measure * int * int * int

(** [warm_find ()] measures just the warm-find cell (cheap — two find
    replays); {!run} embeds the same cell in the full sweep. *)
val warm_find : unit -> warm_find

(** The warm-cache acceptance gate: the warm walk costs at least 1.5x
    fewer service round-trips than the cold one. *)
val warm_find_ok : warm_find -> bool

(** [run ?quick ()] — the full sweep is find/untar x shards {1,2,4} x
    instances {1,2,4,8,16}; [quick] (CI smoke) is find x shards {1,4} x
    instances {1,4}. *)
val run : ?quick:bool -> unit -> t

(** [verdict t] is [(instances, shards, normalized, single_shard_normalized,
    pass)] for the densest sharded find cell; [None] if find wasn't run. *)
val verdict : t -> (int * int * float * float option * bool) option

val all_pass : t -> bool
val print : Format.formatter -> t -> unit

(** [to_json t] is the sweep (cells, queue stats, acceptance verdict)
    as the [FIG6X_results.json] document. *)
val to_json : t -> string
