(** Counter/histogram sink: folds the event stream into per-component
    counters and latency distributions.

    Attach via {!sink}; query after the run. Latencies are
    {!M3_sim.Stats.t} values, so p50/p95/p99 come from
    [Stats.percentile]. The harness renders these as the per-experiment
    summary table ([M3_harness.Report.print_obs]). *)

type t

val create : unit -> t
val sink : t -> Obs.sink

val event_total : t -> int

(** [(kind, count)] sorted by kind name, e.g. [("dtu.send", 412)]. *)
val kinds : t -> (string * int) list

(** Per send-endpoint traffic: [((pe, ep), messages, wire_bytes)]. *)
val endpoints : t -> ((int * int) * int * int) list

(** Per directed NoC link: [((src, dst), busy_cycles, queueing_delay)].
    The queueing delay distribution is per packet crossing the link. *)
val links : t -> ((int * int) * int * M3_sim.Stats.t) list

(** Client-observed syscall latency per opcode. *)
val syscalls : t -> (string * M3_sim.Stats.t) list

(** m3fs server-side handling latency per operation. *)
val fs_ops : t -> (string * M3_sim.Stats.t) list

(** Per m3fs-instance ringbuffer depth at request pickup
    ([fs.shard.queue] events), keyed by service name. *)
val fs_queues : t -> (string * M3_sim.Stats.t) list

(** Per-shard path resolutions by sharded VFS clients
    ([fs.shard.resolve] events), keyed by service name. *)
val shard_resolves : t -> (string * int) list

(** {1 Mount-cache table}

    Client-side mount-cache activity, keyed by lookup kind ("attr",
    "extent", "open", "dir") for hits/misses and by invalidation kind
    ("ino", "path", "both", "local") for invals. *)

val cache_hits : t -> (string * int) list
val cache_misses : t -> (string * int) list
val cache_invals : t -> (string * int) list

(** Client-side wholesale cache flushes, one per notification gap. *)
val cache_flushes : t -> int

(** hits / (hits + misses) over all kinds; 0.0 when no cache traffic. *)
val cache_hit_rate : t -> float

(** Per serving pool (keyed by pool name): queue depth at each
    admission decision ([serve.admit] + [serve.reject] events). *)
val serve_queues : t -> (string * M3_sim.Stats.t) list

(** Per pool: requests coalesced per dispatched worker message. *)
val serve_batches : t -> (string * M3_sim.Stats.t) list

(** Per pool: dispatcher-observed request latency (admission to worker
    reply), from [serve.done] events. *)
val serve_latencies : t -> (string * M3_sim.Stats.t) list

(** Per pool: requests turned away with [E_overload]. *)
val serve_rejects : t -> (string * int) list

(** Per pool: crashed workers replaced by the dispatcher watchdog. *)
val serve_restarts : t -> (string * int) list

val dtu_sent_msgs : t -> int

(** Sum of wire bytes (header + payload) over all traced DTU sends and
    replies. *)
val dtu_sent_bytes : t -> int

val dtu_dropped : t -> int
val mem_read_bytes : t -> int
val mem_written_bytes : t -> int
val noc_xfers : t -> int
val noc_xfer_bytes : t -> int

(** Sum over transfers of [arrive - depart]. *)
val noc_xfer_cycles : t -> int

(** [(pushed, popped)] pipe payload bytes. *)
val pipe_bytes : t -> int * int

val vpes_created : t -> int
val vpes_exited : t -> int

(** Retransmits scheduled by the DTU retry policy. *)
val dtu_retries : t -> int

(** {1 Scheduler table} *)

(** VPE state captures by the kernel scheduler ([vpe.suspend]). *)
val sched_suspends : t -> int

(** VPE placements after a suspend ([vpe.resume]). *)
val sched_resumes : t -> int

(** Resumes that landed on a different PE than the suspend. *)
val sched_migrations : t -> int

(** Total SPM bytes pulled over the NoC by state captures. *)
val sched_suspend_bytes : t -> int

(** Per elastic pool: [(pool, scale_ups, scale_downs)] sorted by
    name ([pool.scale] events). *)
val pool_scales : t -> (string * int * int) list

(** {1 Gateway table} *)

(** Per pool: requests shed by per-client token buckets
    ([gw.throttle] events). *)
val gw_throttles : t -> (string * int) list

(** Per pool: [(pool, trips, probes, closes)] circuit-breaker
    transitions sorted by name ([gw.break.*] events). *)
val gw_breaks : t -> (string * int * int * int) list

(** Per pool: hot-upgrade swap latency in cycles, drain start to the
    new generation serving ([gw.upgrade] events). *)
val gw_upgrades : t -> (string * M3_sim.Stats.t) list
