(** m3fs on-DRAM image: superblock, inode and block bitmaps, inode
    table, extent-based inodes, and fixed-size directory entries — the
    classical UNIX organization the paper describes (§4.5.8), with
    extents (start block, block count) instead of block lists so that
    files map onto few, large, contiguous memory capabilities.

    Everything here manipulates real bytes of the DRAM store; the
    image is fully self-contained and checkable ([fsck]). The m3fs
    server charges cycle costs for these operations separately — this
    module is the data structure only. *)

type t

type extent = { e_start : int; e_len : int }  (** in blocks *)

type stat = {
  size : int;
  is_dir : bool;
  ino : int;
  extents : int;
}

(** [format store ~base ~size ~block_size ~inode_count] writes a fresh
    filesystem into [store] at [base] and returns a handle. The root
    directory is inode 0. *)
val format :
  M3_mem.Store.t -> base:int -> size:int -> block_size:int -> inode_count:int -> t

(** [attach store ~base] re-opens an existing image from its superblock
    alone — the on-disk format is self-describing, which is what makes
    it "suitable for persistent storage as well" (§4.5.8). Fails on a
    bad magic number. *)
val attach : M3_mem.Store.t -> base:int -> (t, string) result

(** [store t] and [base t] are the store holding the image and the
    image's address in it: block [b] lies at
    [base t + block_addr t b]. *)
val store : t -> M3_mem.Store.t
val base : t -> int

val block_size : t -> int
val total_blocks : t -> int
val free_blocks : t -> int

(** [block_addr t b] is the region-relative byte offset of block [b]
    — what goes into a derived memory capability. *)
val block_addr : t -> int -> int

(** {1 Paths} *)

(** [lookup t path] resolves an absolute path; also returns the number
    of directory entries scanned (for cycle accounting). *)
val lookup : t -> string -> (int * int, Errno.t) result

val create_file : t -> string -> (int, Errno.t) result
val mkdir : t -> string -> (unit, Errno.t) result

(** [unlink t path] removes a file or an empty directory. *)
val unlink : t -> string -> (unit, Errno.t) result

(** [rename t ~src ~dst] moves a regular file's dirent; the inode and
    its extents stay put. Returns the inode. [E_is_dir] for
    directories, [E_exists] if [dst] already exists. *)
val rename : t -> src:string -> dst:string -> (int, Errno.t) result

(** [readdir t ~dir ~index] is the [index]-th live entry; [None] for
    a negative [index]. *)
val readdir : t -> dir:int -> index:int -> (string * int) option

(** [readdir_batch t ~dir ~index ~max] is up to [max] live entries from
    the [index]-th on, in directory order, taken in one walk of the
    directory; [\[\]] for a negative [index]. *)
val readdir_batch : t -> dir:int -> index:int -> max:int -> (string * int) list

(** {1 Inodes} *)

val stat : t -> ino:int -> (stat, Errno.t) result
val is_dir : t -> ino:int -> bool
val file_size : t -> ino:int -> int
val set_file_size : t -> ino:int -> int -> unit

(** [extents t ~ino] lists all extents in file order. *)
val extents : t -> ino:int -> extent list

(** [append_extent t ~ino ~blocks] allocates up to [blocks] contiguous
    blocks (possibly fewer if the store is fragmented) and appends
    them as a new extent; returns it. *)
val append_extent : t -> ino:int -> blocks:int -> (extent, Errno.t) result

(** [truncate t ~ino ~size] frees all blocks beyond [size] bytes and
    sets the file size — the close-time trim of the paper's
    overallocation scheme. *)
val truncate : t -> ino:int -> size:int -> unit

(** {1 Host-side seeding (pre-boot workload setup)} *)

(** [seed_file t ~path ~size ~blocks_per_extent ~rng] creates a file
    laid out in extents of exactly [blocks_per_extent] blocks and
    fills its extents with deterministic pseudo-random bytes: those of
    an [Rng.fill_bytes] over them, in file order. Used to prepare
    benchmark inputs (including Fig. 4's controlled fragmentation)
    before the simulation starts.

    The inode, directory entry, extents and bitmap bits are written
    at once. The bytes are deferred ({!M3_mem.Store.defer}): a data
    page is generated when it is first accessed, so seed data no
    client reads is never generated. [rng] is left where the
    [fill_bytes] would have left it. *)
val seed_file :
  t -> path:string -> size:int -> blocks_per_extent:int -> rng:M3_sim.Rng.t ->
  (int, Errno.t) result

(** {1 Consistency} *)

(** [fsck t] verifies that bitmaps, inodes, extents and directories
    are mutually consistent; returns a description of the first
    violation, if any. *)
val fsck : t -> (unit, string) result
