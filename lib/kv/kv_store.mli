(** The KV store proper: get/put over keys persisted as
    one m3fs file per key, sharded across bucket directories.

    The store object itself is {e host-side} configuration plus
    observation — all durable state lives in the simulated filesystem.
    Keys hash (FNV, {!M3.Shard.hash}) to one of [buckets] top-level
    directories [/b0../b<n-1>], and because the shard ring also places
    paths by their top-level directory, a multi-service
    {!M3.Vfs.mount_sharded} mount spreads the buckets across m3fs
    instances with no coordination: key → shard is a pure function of
    the config that tests can compute independently.

    Value files are a 32-byte text header [(seq, len)] followed by the
    payload. The header's sequence number makes puts {e exactly-once}
    under at-least-once dispatch: a re-executed put (crash-retry,
    breaker requeue) reads the header, sees a sequence number at least
    its own, and skips — a decision taken entirely from simulated file
    state, so every worker reaches the same verdict deterministically.
    The host-side witness table merely {e observes} applies per
    sequence number for the crash cell's gate (zero double-applies).

    Executing VPEs mount the shard set themselves; {!exec} flips each
    VPE's mount to coherent caching on first use, so hot keys under
    Zipfian skew are served from the mount cache and cross-VPE
    overwrites exercise its invalidation protocol. Every operation
    charges 300 cycles of application compute. *)

type config = {
  buckets : int;     (** bucket directories; must divide keys sensibly *)
  keys : int;        (** preloaded keyspace size for {!prepare} *)
  value_len : int;   (** generated-value length on the packed plane *)
  value_max : int;   (** puts beyond this answer [E_kv_too_large] *)
}

val default_config : config

type stats = {
  mutable k_gets : int;
  mutable k_puts : int;
  mutable k_applied : int;    (** puts that wrote (incl. preload) *)
  mutable k_dup_skips : int;  (** puts skipped by the dedup header *)
  mutable k_misses : int;     (** gets answering [E_not_found] *)
}

type t

(** @raise Invalid_argument on a non-positive bucket/key count or
    [value_len > value_max]. *)
val create : ?config:config -> name:string -> unit -> t

val config : t -> config
val stats : t -> stats

(** {1 Layout} *)

val key_of_index : t -> int -> string
val bucket_of_key : t -> string -> int
val path_of_key : t -> string -> string

(** [value_of t ~key ~seq] is the deterministic payload the packed
    data plane writes for a put — a function of key and seq only, so
    any (re-)execution writes identical bytes. *)
val value_of : t -> key:string -> seq:int -> string

(** {1 Operations}

    All take the {e executing} VPE's environment — a pool worker or a
    benchmark client. The VPE must have the shard set mounted at
    ["/"]. *)

(** [exec env t ~seq op] runs one operation. [seq] is the put's
    idempotency token (the pool sequence number). A put of [len = 0]
    writes {!value_of}[ ~key ~seq]; a [len] above [value_max] answers
    [E_kv_too_large]. *)
val exec : M3.Env.t -> t -> seq:int -> Kv_wire.op -> Kv_wire.resp

(** [pool_exec t] is the closure to install as
    {!M3_serve.Pool.config.kv}: unpacks the u64 argument ([E_inv_args]
    when malformed), executes it, and folds the response to an
    errno. *)
val pool_exec : t -> M3.Env.t -> seq:int -> int -> M3.Errno.t

(** [prepare env t] creates the bucket directories and preloads all
    [keys] with sequence number [-1] — strictly older than any pool
    sequence number, so the first real put to each key applies. *)
val prepare : M3.Env.t -> t -> (unit, M3.Errno.t) result

(** {1 Exactly-once witness (host-side observation)} *)

(** [applied_once t ~seq] — exactly one worker applied put [seq]. *)
val applied_once : t -> seq:int -> bool

(** Number of sequence numbers applied {e more} than once — the crash
    cell's gate requires 0. *)
val double_applied : t -> int

(** Distinct sequence numbers applied at least once. *)
val applied_total : t -> int

val dup_skips : t -> int
