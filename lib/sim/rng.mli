(** Deterministic pseudo-random numbers (splitmix64).

    The simulator must be reproducible run-to-run, so all randomness
    (workload generation, file contents, ...) flows through explicitly
    seeded generators rather than [Random]. *)

type t

(** [create ~seed] is a generator whose stream is a pure function of
    [seed]. *)
val create : seed:int -> t

(** [split t] derives an independent generator; the parent stream
    advances by one step. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [0, bound); [bound > 0]. *)
val int : t -> int -> int

(** [int_in t ~lo ~hi] is uniform in [lo, hi] inclusive; [lo <= hi]. *)
val int_in : t -> lo:int -> hi:int -> int

(** [byte t] is uniform in [0, 255]. *)
val byte : t -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [fill_bytes t buf ~pos ~len] fills a slice with random bytes: those
    of [len] successive [byte] draws, leaving [t] where they would.
    @raise Invalid_argument if the slice does not lie within [buf]. *)
val fill_bytes : t -> Bytes.t -> pos:int -> len:int -> unit
