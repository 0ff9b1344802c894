(** libm3's POSIX-like file abstraction (§4.5.8).

    Meta operations go to m3fs over the session channel; data access
    works on cached extents: the client asks m3fs for the locations of
    file fragments, receives memory capabilities for them, and then
    reads/writes DRAM directly through its DTU — m3fs never sees the
    data. Appending over-allocates [append_blocks] blocks at a time
    (256 in the paper); close truncates to the real size.

    A {!t} can also wrap a pipe end, making pipes and files
    interchangeable for applications (the pipe filesystem of the
    VFS). *)

type 'a result_ = ('a, Errno.t) result

(** A mounted m3fs session. *)
type mount

(** [mount_m3fs env ~service] opens a session with service [service],
    retrying while the service has not registered yet. *)
val mount_m3fs : Env.t -> service:string -> mount result_

(** [set_append_blocks m n] tunes write over-allocation (Fig. 4). *)
val set_append_blocks : mount -> int -> unit

(** [set_loc_batch m n] tunes how many extents one location request
    fetches (1 in the paper's client). *)
val set_loc_batch : mount -> int -> unit

(** [enable_cache env m] switches the mount to coherent caching:
    attrs, extent locations and the memory capabilities wrapping them
    are kept in a shared {!Fs_cache} across opens, and an invalidation
    channel is registered with the service — m3fs notifies the mount
    when another session appends, truncates, creates or removes, and a
    notification gap flushes the cache wholesale. A caching mount does
    not recover from a service crash: a request that reaches the dead
    service or one of its revoked extent capabilities fails with its
    errno, as on a plain mount, while attr and open hits keep answering
    until their TTL runs out. With caching off (the default) every path
    is byte-identical to the uncached client. *)
val enable_cache : Env.t -> mount -> unit result_

(** Cache counters of this mount; [None] with caching off. *)
val cache_stats : mount -> Fs_cache.stats option

(** Service round-trips (session calls + capability exchanges) this
    mount performed — the warm/cold comparison the cache experiments
    gate on. *)
val round_trips : mount -> int

(** The m3fs service this mount is a session of. *)
val service_name : mount -> string

(** [drain_service env m] runs the hot-upgrade barrier: one
    {!Fs_proto.Fs_drain} round trip. The service flushes every pending
    invalidation broadcast before replying and the client applies any
    notifications that arrived with the reply, so afterwards no cache
    state from the old generation is outstanding anywhere. Returns the
    service's new generation number. *)
val drain_service : Env.t -> mount -> int result_

type t

(** [open_ env m path ~flags] opens (or with [o_create] creates) a
    file. *)
val open_ : Env.t -> mount -> string -> flags:int -> t result_

(** [of_pipe_reader r] / [of_pipe_writer w] wrap pipe ends. *)
val of_pipe_reader : Pipe.reader -> t
val of_pipe_writer : Pipe.writer -> t

(** [read env t ~local ~len] reads up to [len] bytes to SPM address
    [local]; returns the byte count, [0] at end-of-file/stream. *)
val read : Env.t -> t -> local:int -> len:int -> int result_

(** [write env t ~local ~len] writes [len] bytes from SPM address
    [local]. *)
val write : Env.t -> t -> local:int -> len:int -> unit result_

(** [seek env t pos] repositions a regular file (pipes cannot seek).
    Seeking within already-cached extents costs only libm3 cycles. *)
val seek : Env.t -> t -> int -> unit result_

val size : t -> int

(** [close env t] flushes the final size (writers) and releases the
    file id; closing a pipe writer sends end-of-stream. *)
val close : Env.t -> t -> unit result_

(** {1 Meta operations on a mount} *)

val stat : Env.t -> mount -> string -> Fs_proto.stat result_
val mkdir : Env.t -> mount -> string -> unit result_
val unlink : Env.t -> mount -> string -> unit result_

(** [readdir env m path ~index] is the [index]-th entry. *)
val readdir : Env.t -> mount -> string -> index:int -> (string * int) option result_

(** {1 Convenience helpers (copy through a scratch SPM buffer)} *)

(** [write_string env t s] writes a whole string. *)
val write_string : Env.t -> t -> string -> unit result_

(** [read_all env t ~max] reads to end-of-file (at most [max] bytes). *)
val read_all : Env.t -> t -> max:int -> string result_

(** Number of extent-location requests this mount performed (test and
    Fig. 4 instrumentation). *)
val loc_requests : mount -> int
