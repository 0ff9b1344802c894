(** Bounds-checked byte store — the common representation of SPMs and
    the DRAM module. All multi-byte accessors are little-endian, like
    the Xtensa cores of the Tomahawk platform.

    A store is sparse. Its 4 KiB pages are in one of three states:
    - {e untouched}: the page reads as zeros and takes no host memory.
      Its first write commits it; filling it with ['\000'] leaves it
      untouched.
    - {e deferred}: a generator registered with {!defer} holds the
      page's bytes. The first access of any kind (a read, a write, a
      blit on either side, a fill) commits the page with those bytes
      and then proceeds, so every accessor returns exactly what an
      eager write of them would have left.
    - {e committed}: the page holds its bytes itself. *)

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

(** [defer t ~addr ~len gen] stores the [len] bytes a generator
    yields at [addr], producing each page's bytes only when that page
    is first accessed. [gen ~off buf ~pos ~len] must write bytes
    [\[off, off + len)] of the range into [buf] at [pos], whenever it
    is called: it runs once for each piece that is written at once and
    once for each deferred page when that page is first accessed.

    Only pages the range covers whole that are untouched or deferred
    become deferred (a deferred page's earlier generator is replaced);
    the range's partial head and tail pages and its committed pages
    are written at once. Bounds are checked as for {!write_bytes}.
    @raise Fault if the range leaves the store. *)
val defer :
  t -> addr:int -> len:int -> (off:int -> Bytes.t -> pos:int -> len:int -> unit) ->
  unit

(** [read_string t ~addr ~len] reads a string (for file contents and
    debug output in tests). *)
val read_string : t -> addr:int -> len:int -> string

val write_string : t -> addr:int -> string -> unit
