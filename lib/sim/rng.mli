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

(** [defer_bytes t ~len] is [fill_bytes] for the next [len] byte draws,
    taken in any order: [t] moves past those draws at once, and the
    returned [gen ~off buf ~pos ~len:n] writes the bytes of draws
    [\[off, off + n)] of them into [buf] at [pos], exactly as a
    [fill_bytes] of all [len] would have. Each call is independent of
    the others and of [t].
    @raise Invalid_argument if [len < 0], or, from [gen], if the piece
    does not lie within the [len] draws or the slice within [buf]. *)
val defer_bytes :
  t -> len:int -> (off:int -> Bytes.t -> pos:int -> len:int -> unit)
