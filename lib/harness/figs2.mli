(** Figure S2: a key-value service tier over sharded m3fs, driven by
    the bursty and closed-loop load models.

    Not a figure from the paper — the capstone experiment for the
    service stack this repository grew around §5: a get/put store
    whose state is ordinary m3fs files spread over shard mounts,
    served by {!M3_serve.Pool} workers behind the admission gateway.
    Four cells:

    - a {e capacity} grid: read-heavy (9/1) and write-heavy (1/1)
      Zipfian request streams against 1/2/4 m3fs shards. Sharding
      relieves the write bottleneck (write-heavy p99 falls with shard
      count) while the coherent mount cache absorbs the read-heavy
      skew — the hits/invals/kept columns are the cache at work, with
      records sized to one fs block so extents survive cross-client
      invalidations ("kept");
    - a {e flash} cell: a base population plus a flash crowd of fresh
      identities arriving mid-run against an elastic pool behind
      per-identity token buckets — the gateway sheds the crowd, the
      pool scales up, and the base population's p99 stays within
      2x of an undisturbed baseline;
    - a {e knee} cell: the same store driven closed-loop (a fixed user
      population with think times) and open-loop at 1.5x the closed
      loop's realized rate — the open arrivals queue without bound
      while the closed clients absorb the excess in think time, the
      textbook open/closed contrast;
    - a {e crash} cell: an all-puts stream with a worker-PE crash and
      supervised restart mid-run — retried requests re-execute on
      surviving workers, and the store's durable per-key sequence
      headers prove every put applied exactly once (no double
      applies, the retries land as dup-skips). *)

(** One cell of the capacity grid. *)
type capacity_point = {
  c_shards : int;  (** m3fs shard count backing the store *)
  c_mix : string;  (** ["9/1"] read-heavy or ["1/1"] write-heavy *)
  c_offered : float;  (** realized offered rate, requests/cycle *)
  c_throughput : float;  (** completions over makespan, requests/cycle *)
  c_p50 : float;  (** median request latency, cycles *)
  c_p99 : float;  (** tail request latency, cycles *)
  c_completed : int;
  c_failed : int;
  c_cache_hits : int;  (** mount-cache hits summed over worker VPEs *)
  c_cache_misses : int;
  c_cache_invals : int;  (** invalidation notifies applied *)
  c_kept : int;  (** extents that survived an invalidation *)
  c_dup_skips : int;  (** puts skipped by the durable-header dedup *)
}

(** The flash-crowd cell. *)
type flash_out = {
  f_crowd : int;  (** flash-crowd identity count *)
  f_base_p99 : float;  (** undisturbed baseline population p99 *)
  f_survivor_p99 : float;  (** base population p99 under the flash *)
  f_throttled : int;  (** total requests shed by the gateway *)
  f_crowd_throttled : int;  (** shed requests belonging to the crowd *)
  f_scale_ups : int;
  f_scale_downs : int;
  f_completed : int;
  f_failed : int;
}

(** The closed-vs-open-loop knee cell. *)
type knee_out = {
  n_clients : int;  (** closed-loop user population *)
  n_offered : float;  (** closed loop's realized rate, requests/cycle *)
  n_closed_p99 : float;
  n_open_p99 : float;
  n_closed_completed : int;
  n_open_completed : int;
  n_closed_failed : int;
  n_open_failed : int;
}

(** The crash/exactly-once cell. *)
type kcrash_out = {
  x_victim_pe : int;
  x_crashes : int;  (** crashes the fault plan injected (want 1) *)
  x_restarts : int;  (** supervised worker restarts *)
  x_retried : int;  (** requests re-dispatched after the crash *)
  x_applied : int;  (** distinct put sequence numbers applied *)
  x_double_applied : int;  (** sequence numbers applied twice (want 0) *)
  x_dup_skips : int;  (** retries refused by the durable header *)
  x_completed : int;
  x_failed : int;
}

type t = {
  s2_quick : bool;
  s2_requests : int;  (** requests per cell *)
  s2_keys : int;  (** keyspace size *)
  s2_theta : float;  (** Zipf skew of the key popularity *)
  s2_capacity : capacity_point list;
  s2_flash : flash_out;
  s2_knee : knee_out;
  s2_crash : kcrash_out;
}

(** Open-loop p99 must exceed closed-loop p99 by this factor. *)
val knee_p99_factor : float

(** One point of the capacity grid on its own (a single Zipfian
    read/write stream against [shards] m3fs mounts), without paying for
    the full figure; [test_kv] runs it as a determinism regression. *)
val capacity_cell :
  keys:int ->
  requests:int ->
  seed:int ->
  shards:int ->
  reads:int ->
  writes:int ->
  capacity_point

(** [run ()] simulates every cell and returns the measurements.
    [quick] shrinks the keyspace and request counts to a CI-sized
    smoke. [requests]/[keys] override either sizing; [seed] reseeds
    every schedule (each cell derives its own stream from it).
    Deterministic: same arguments, same result. *)
val run : ?quick:bool -> ?requests:int -> ?keys:int -> ?seed:int -> unit -> t

(** Per-cell verdicts (see the cell descriptions above). *)
val knee_verdict : t -> bool
val crash_verdict : t -> bool
val all_pass : t -> bool

val print : Format.formatter -> t -> unit

(** [to_json t] is the measurements (plus verdicts) as the
    [FIGS2_results.json] document. *)
val to_json : t -> string
