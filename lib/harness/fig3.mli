(** Figure 3: system calls and file operations.

    Left: a null system call — M3 ≈ 200 cycles (≈ 30 of which are the
    two message transfers) vs ≈ 410 cycles on Linux/Xtensa. Right:
    reading, writing and piping 2 MiB with 4 KiB buffers, with the
    time split into data transfers ("Xfers") and everything else
    ("Other"); M3 beats even the no-cache-miss Linux (Lx-$). *)

type bars = {
  m3 : Runner.measure;
  lx_ideal : Runner.measure; (** Lx-$ *)
  lx : Runner.measure;
}

(** Warm re-read of the 2 MiB file through the mount cache: the cold
    pass pays the open/location round-trips, the warm pass is served
    from the cached attr + extent entries. *)
type warm_cell = {
  w_cold : Runner.measure;
  w_warm : Runner.measure;
  w_cold_rt : int;  (** service round-trips inside the cold bracket *)
  w_warm_rt : int;  (** ... inside the warm bracket *)
}

type t = {
  syscall : bars;
  read : bars;
  write : bars;
  pipe : bars;
  warm_read : warm_cell;
}

(** The acceptance gate: the warm pass costs at least 1.5x fewer
    service round-trips than the cold one. *)
val warm_ok : t -> bool

(** 2 MiB *)
val total_bytes : int

(** 4 KiB *)
val buf_size : int

val run : unit -> t
val print : Format.formatter -> t -> unit
