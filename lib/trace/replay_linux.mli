(** Replays a syscall trace on the Linux baseline model. *)

(** [apply_seeds machine seeds] pre-creates the workload's filesystem
    content in the tmpfs (outside measured time, like the M3 side's
    pre-boot seeding). *)
val apply_seeds : M3_linux.Machine.t -> M3.M3fs.seed list -> unit

(** [run machine trace] replays the trace; read/write use 4 KiB chunks
    (the sweet spot on Linux, §5.4). *)
val run : M3_linux.Machine.t -> Trace.t -> unit
