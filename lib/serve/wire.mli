(** Wire protocol of the serving subsystem.

    Four message families flow through a pool:

    - client → dispatcher: one request per message (or the final drain
      marker), answered immediately with an admission verdict,
    - dispatcher → worker: a batch of up to [batch] requests coalesced
      into one DTU message (an empty batch means "shut down"),
    - worker → dispatcher: the per-batch reply with one status and
      service time per request,
    - dispatcher → client: a completion notice carrying several
      finished requests at once.

    Everything is fixed-size integers via {!M3.Msgbuf}, so message
    sizes are predictable and the ringbuffer slot orders in
    {!Pool} can be stated as constants. *)

(** What a request asks the worker to do. The integer argument is
    interpreted per kind; for the filesystem kinds it selects a seed
    file (modulo the pool's file count). *)
type kind =
  | Echo of int     (** charge this many compute cycles *)
  | Fs_stat of int  (** stat a seed file via the shard ring *)
  | Fs_read of int  (** read the first 4 KiB of a seed file *)
  | Fft of int      (** software-FFT this many complex points *)
  | App of int      (** run the pool's registered host callback with
                        this argument; used by tests that need a
                        non-idempotent workload (the callback's side
                        effects witness every execution) *)
  | Kv of int       (** KV-store operation against the pool's attached
                        store, the whole op (opcode, key index, length
                        or cursor) packed into the u64 argument by
                        [M3_kv.Kv_wire.pack] — same 17-byte slots,
                        same batching as every other kind *)

type request = { seq : int; rk : kind }

(** Per-request completion record echoed up the reply path:
    worker-side status and service cycles. *)
type done_item = { d_seq : int; d_err : M3.Errno.t; d_cycles : int }

val kind_name : kind -> string

(** {1 Client requests} *)

type client_msg =
  | Request of { client : int; req : request }
      (** [client] identifies the sender for per-client gateway
          accounting; it travels only on the client→dispatcher leg
          (batches stay id-free so 13 of them still fit one DTU
          message) *)
  | Drain  (** "no more requests; answer when everything finished" *)
  | Upgrade of int
      (** planned hot upgrade of worker seat [n]: drain it, boot the
          next generation, answer with an admission verdict carrying
          {!upgrade_seq} once the swap committed *)

val encode_request : ?client:int -> request -> Bytes.t
(** [client] defaults to 0 (the anonymous client). *)

val encode_drain : unit -> Bytes.t
val encode_upgrade : worker:int -> Bytes.t
val decode_client_msg : Bytes.t -> client_msg

(** {1 Admission verdicts (dispatcher's immediate reply)} *)

(** The sequence number a drain reply carries. *)
val drain_seq : int

(** The sequence number an upgrade-complete reply carries. *)
val upgrade_seq : int

val encode_admit : err:M3.Errno.t -> seq:int -> Bytes.t
val decode_admit : Bytes.t -> M3.Errno.t * int

(** {1 Batches (dispatcher → worker)} *)

(** [gen] is the worker generation — advanced by {!next_gen} on every
    restart so a stale reply from a presumed-dead worker cannot be
    attributed to its replacement. An empty item list is the shutdown
    marker. *)
val encode_batch : gen:int -> request list -> Bytes.t

(** The generation after [gen], in the wire's one-byte width: a
    dispatcher that kept an unbounded counter would mistake the live
    reply of generation 256 for a retired one's. *)
val next_gen : int -> int

val decode_batch : Bytes.t -> int * request list

(** {1 Worker replies} *)

val encode_worker_reply : worker:int -> gen:int -> done_item list -> Bytes.t
val decode_worker_reply : Bytes.t -> int * int * done_item list

(** {1 Completion notices (dispatcher → client)} *)

val encode_notice : done_item list -> Bytes.t
val decode_notice : Bytes.t -> done_item list
