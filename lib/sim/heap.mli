(** Array-based binary min-heap, specialized for the event queue.

    Elements are ordered by an integer key; ties are broken by insertion
    order so that events scheduled for the same cycle run FIFO. Once
    its arrays have grown, a push or a pop allocates nothing. *)

type 'a t

(** [create ~dummy ()] is an empty heap. Unused slots hold [dummy], so
    that a popped element is no longer referenced by the heap. *)
val create : dummy:'a -> unit -> 'a t

(** [is_empty h] is true iff [h] holds no element. *)
val is_empty : 'a t -> bool

(** [length h] is the number of elements currently in [h]. *)
val length : 'a t -> int

(** [push h ~key v] inserts [v] with priority [key]. *)
val push : 'a t -> key:int -> 'a -> unit

(** [min_key h] is the smallest key.
    @raise Invalid_argument when [h] is empty. *)
val min_key : 'a t -> int

(** [pop h] removes and returns the element with the smallest key
    (FIFO among equal keys).
    @raise Invalid_argument when [h] is empty. *)
val pop : 'a t -> 'a
