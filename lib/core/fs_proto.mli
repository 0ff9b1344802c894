(** m3fs wire protocol.

    Meta operations travel directly from client to service over the
    session's send gate (the kernel is not involved, §4.5.8). Extent
    requests — which hand out memory capabilities — go through the
    kernel's [exchange_sess] path instead, because only the kernel can
    install capabilities. *)

(** Direct (session channel) operations. *)
type op =
  | Fs_open      (** path, flags → fid, size *)
  | Fs_close     (** fid, final size → (); truncates over-allocation *)
  | Fs_stat      (** path → size, is_dir, inode, extent count *)
  | Fs_mkdir     (** path → () *)
  | Fs_unlink    (** path → () *)
  | Fs_readdir   (** path, index → name, inode (E_not_found past end) *)
  | Fs_drain
      (** () → new generation number.  Hot-upgrade barrier: because it
          travels the session channel, the service flushes every
          pending invalidation broadcast {e before} replying — once the
          reply is in hand, no stale-cache window can survive the
          handoff — then bumps its generation counter. *)

(** Codes 0–5 in declaration order, then 7 for [Fs_drain]. Code 6 is
    unassigned: [op_of_int 6] is [None] and m3fs answers it with
    [E_inv_args]. *)
val op_to_int : op -> int
val op_of_int : int -> op option

(** Stable short name ("open", "stat", ...) for tracing and metrics. *)
val op_name : op -> string

(** Exchange (kernel channel) operations, encoded in exchange args. *)
type xop =
  | Fs_get_locs  (** fid, first extent index, count → extents + caps *)
  | Fs_append    (** fid, blocks → new extent + cap *)
  | Fs_fstat     (** fid → current size (cache revalidation) *)
  | Fs_reg_notify
      (** sgate sel (service side) → (); registers the session for
          cache-invalidation notifications *)

val xop_to_int : xop -> int
val xop_of_int : int -> xop option

(** Stable short name ("get_locs", "append") for tracing and metrics. *)
val xop_name : xop -> string

(** Open flags. *)

val o_read : int
val o_write : int
val o_create : int
val o_trunc : int

type stat = {
  st_size : int;
  st_is_dir : bool;
  st_ino : int;
  st_extents : int;
}

(** Entries returned per readdir request (getdents-style batching). *)
val readdir_batch : int

(** Slot/ringbuffer sizing of the two service channels. The kernel
    channel carries capability-exchange replies (up to a batch of
    extent descriptors), so its slots are larger. *)

val srv_msg_order : int
val srv_slots : int
val srv_kchannel_order : int
val srv_kchannel_slots : int

(** {1 Cache-invalidation notifications}

    m3fs broadcasts an invalidation to every registered session when a
    mutation changes data or namespace state another client may have
    cached. The wire format is [u8 kind; u64 seq; u64 ino; u64 size;
    str path]; [seq] counts attempted sends per session, so receivers
    detect dropped notifications as sequence gaps and flush. *)

type inval_kind =
  | Inval_ino  (** extent/size change: ino + new size are valid *)
  | Inval_path  (** namespace entry appeared: path is valid *)
  | Inval_both
      (** entry removed (unlink): ino and path valid; the size word is
          always 0 *)

val inval_kind_to_int : inval_kind -> int

(** Stable short name ("ino", "path", "both") for tracing/metrics. *)
val inval_kind_name : inval_kind -> string

(** Slot sizing of the client-side notify receive gate. *)

val notify_msg_order : int
val notify_slots : int
