(** System-call traces.

    The paper records the BusyBox benchmarks (tar, untar, find,
    sqlite) under strace on Linux and replays the same operation
    sequence on M3, inserting waits of equal length for computation
    and unsupported calls (§5.6). We generate equivalent traces
    synthetically from the documented workload parameters and replay
    them on both systems through the same interpreter interface. *)

type op =
  | T_open of { slot : int; path : string; write : bool; create : bool; trunc : bool }
  | T_read of { slot : int; len : int }
  | T_write of { slot : int; len : int }
  | T_sendfile of { dst : int; src : int; len : int }
      (** Linux replays this as sendfile(2); M3 as a read/write loop
          through libm3 (no equivalent exists — and none is needed,
          since data transfers bypass the OS anyway) *)
  | T_seek of { slot : int; pos : int }
  | T_close of { slot : int }
  | T_stat of { path : string }
  | T_mkdir of string
  | T_unlink of string
  | T_readdir of { path : string; entries : int }
      (** one getdents walk over a directory *)
  | T_compute of int
      (** computation (or an OS-independent syscall), equal on both *)

type t = op list

(** Counts per category, for sanity checks and reports. *)
type summary = {
  n_ops : int;
  n_data_bytes : int;    (** bytes moved by read/write/sendfile *)
  n_compute : int;       (** cycles of pure computation *)
  n_meta : int;          (** stat/open/close/mkdir/unlink/readdir ops *)
}

val summarize : t -> summary
