(** Bounds-checked byte store — the common representation of SPMs and
    the DRAM module. All multi-byte accessors are little-endian, like
    the Xtensa cores of the Tomahawk platform.

    A store is sparse: it holds 4 KiB pages that are committed on their
    first write. Untouched memory reads as zeros and takes no host
    memory, and filling it with ['\000'] leaves it untouched. *)

type t

(** [create ~name ~size] is a zero-filled store of [size] bytes; it
    commits no page. *)
val create : name:string -> size:int -> t

val name : t -> string
val size : t -> int

(** Raised with a descriptive message on any out-of-bounds access. *)
exception Fault of string

val read_u8 : t -> addr:int -> int
val write_u8 : t -> addr:int -> int -> unit

val read_u32 : t -> addr:int -> int
val write_u32 : t -> addr:int -> int -> unit

val read_i64 : t -> addr:int -> int64
val write_i64 : t -> addr:int -> int64 -> unit

(** [read_bytes t ~addr ~len] copies out a fresh buffer. *)
val read_bytes : t -> addr:int -> len:int -> Bytes.t

(** [write_bytes t ~addr src ~pos ~len] copies [len] bytes of [src]
    starting at [pos] into the store at [addr]. *)
val write_bytes : t -> addr:int -> Bytes.t -> pos:int -> len:int -> unit

(** [blit ~src ~src_addr ~dst ~dst_addr ~len] copies between stores;
    this is what DTU transfers and DMA use. *)
val blit : src:t -> src_addr:int -> dst:t -> dst_addr:int -> len:int -> unit

(** [fill t ~addr ~len c] writes [len] copies of byte [c]. *)
val fill : t -> addr:int -> len:int -> char -> unit

(** [read_string t ~addr ~len] reads a string (for file contents and
    debug output in tests). *)
val read_string : t -> addr:int -> len:int -> string

val write_string : t -> addr:int -> string -> unit
