(** Virtual filesystem: mount m3fs sessions at path prefixes and
    resolve paths to (mount, relative path) — libm3's equivalent of
    the mount table (§4.5.8). Pipes integrate through
    {!File.of_pipe_reader}/{!File.of_pipe_writer}. *)

type 'a result_ = ('a, Errno.t) result

(** [mount env ~path ~service] mounts service [service] (normally
    ["m3fs"]) at prefix [path]; retries until the service exists. *)
val mount : Env.t -> path:string -> service:string -> unit result_

(** [mount_sharded env ~path ~services] mounts a shard set at prefix
    [path]: each path under it resolves to one of [services] by
    consistent hashing on its top-level directory ({!Shard}), and the
    owning shard's session is opened lazily on first use. A singleton
    list degenerates to {!mount} — bit-identical behavior. Resolving
    through a shard set emits an [fs.shard.resolve] event when an
    observer is attached. [E_inv_args] on an empty list. *)
val mount_sharded : Env.t -> path:string -> services:string list -> unit result_

(** [mount_root env] mounts ["m3fs"] at ["/"]. *)
val mount_root : Env.t -> unit result_

(** [the_mount env] is the root mount (convenience for tuning knobs
    like {!File.set_append_blocks}). *)
val the_mount : Env.t -> File.mount result_

val open_ : Env.t -> string -> flags:int -> File.t result_
val stat : Env.t -> string -> Fs_proto.stat result_
val mkdir : Env.t -> string -> unit result_
val unlink : Env.t -> string -> unit result_
val readdir : Env.t -> string -> index:int -> (string * int) option result_

(** [enable_cache env ~path] switches the mount entry at prefix
    [path] (as given to {!mount} / {!mount_sharded}) to coherent
    caching with {!Fs_cache}'s fixed TTL, capacity and half-life
    ({!File.enable_cache}). Shard sessions that open lazily later
    inherit the setting. *)
val enable_cache : Env.t -> path:string -> unit result_

(** [drain env ~path] runs the hot-upgrade barrier on every shard of
    the mount entry at prefix [path] (as given to {!mount} /
    {!mount_sharded}): each serves one {!Fs_proto.Fs_drain} round trip,
    flushing its pending invalidation broadcasts before replying and
    bumping its generation. The bump is server-wide, so the barrier is
    not lazy — shards this VPE never resolved get their session opened
    here. Returns [(service, new generation)] per shard, in shard
    order. Emits one [gw.upgrade] slice per shard. *)
val drain : Env.t -> path:string -> (string * int) list result_

(** Aggregate service round-trips over every mount of this VPE. *)
val round_trips : Env.t -> int

(** [(hits, misses, invals)] summed over every caching mount. *)
val cache_totals : Env.t -> int * int * int

(** Extents preserved across invalidation trims ({!Fs_cache} [s_kept])
    summed over every caching mount — delegated mem caps this VPE kept
    using when other VPEs overwrote files in place. *)
val cache_kept : Env.t -> int
