(** Mount-level extent/attr cache: policy and bookkeeping only.

    A per-mount cache of [ino → size + extent locations + mem gates]
    and [path → stat], shared across opens of the same mount so
    re-opening a hot file costs zero service round-trips. Entries
    expire after a TTL and are evicted under capacity pressure by an
    importance score — hit count halved once per idle half-life — so
    hot entries survive one-shot traffic. All timing comes from the
    caller's simulated clock; nothing here performs I/O, which keeps
    the module below {!File} in the dependency order and every
    decision deterministic.

    Coherence state lives here too: the expected notification
    sequence number (a gap ⇒ a dropped notification ⇒ conservative
    wholesale flush) and the cache generation, bumped on every flush.
    A notification gap is the only flush: a service crash flushes
    nothing. *)

type extent = { x_foff : int; x_len : int; x_gate : Gate.mem_gate }

(** Shared per-file state. Open handles of the same mount alias one
    record, so an invalidation updating it in place is visible to all
    of them at once. [fe_valid = false] marks a size that must be
    revalidated (fstat) before size-dependent operations. *)
type fentry = {
  fe_ino : int;
  mutable fe_size : int;
  mutable fe_extents : extent list;
  mutable fe_fetched : int;
  mutable fe_alloc_end : int;
  mutable fe_valid : bool;
  mutable fe_hits : int;
  mutable fe_stamp : int;
  mutable fe_expire : int;
}

(** Cycles an untouched entry stays servable (50 M). A hit refreshes
    it. It bounds staleness when notifications are lost and no later
    one reveals the gap. *)
val ttl : int

(** Entries per table before the lowest-importance one is evicted
    (64). *)
val capacity : int

(** Idle cycles over which a hit loses half its weight in the eviction
    score (1 M). *)
val half_life : int

type stats = {
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_invals : int;
  mutable s_evictions : int;
  mutable s_kept : int;
      (** extents preserved across {!inval_ino} trims — delegated mem
          caps the sharing handles kept using instead of re-deriving
          via [Fs_get_locs] (hot keys under write skew live here) *)
}

type t

val create : unit -> t
val generation : t -> int
val stats : t -> stats

(** [file_entry t ~now ~ino] looks up shared file state; refreshes the
    TTL and hit count on a hit, drops expired entries. *)
val file_entry : t -> now:int -> ino:int -> fentry option

(** [insert_file t ~now ~ino ~size] makes a fresh (valid, extent-less)
    entry, evicting the lowest-importance entry if at capacity. *)
val insert_file : t -> now:int -> ino:int -> size:int -> fentry

(** [refresh_file t ~now ~ino ~size] upserts after a real round-trip:
    server-authoritative size, cached extents kept, no hit/miss
    accounting. *)
val refresh_file : t -> now:int -> ino:int -> size:int -> fentry

(** [attr t ~now ~path] cached stat lookup (TTL + hit bookkeeping). *)
val attr : t -> now:int -> path:string -> Fs_proto.stat option

val insert_attr : t -> now:int -> path:string -> Fs_proto.stat -> unit

(** Targeted invalidations; each returns whether anything was hit.
    [inval_ino] refreshes size in place and {e trims} the extent list
    to the prefix still fully inside the new size — extents covering
    committed blocks keep their delegated mem caps, so an in-place
    overwrite from another VPE costs sharing handles zero location
    refetches; only the tail past [size] (append growth, truncation)
    is dropped. [inval_path] drops an attr entry (create / mkdir);
    [inval_remove] evicts the inode and the path for good (unlink) and
    zeroes surviving handles to EOF. *)

val inval_ino : t -> ino:int -> size:int -> bool
val inval_path : t -> path:string -> bool
val inval_remove : t -> ino:int -> path:string -> bool

(** Wholesale flush: drops everything, marks surviving handles
    revalidate-before-use, bumps the generation. *)
val flush : t -> unit

(** [note_seq t ~seq] advances the expected notification sequence,
    which starts at 0 in a fresh cache; [`Gap] means at least one
    notification was dropped and the caller must {!flush}. *)
val note_seq : t -> seq:int -> [ `Ok | `Gap ]
