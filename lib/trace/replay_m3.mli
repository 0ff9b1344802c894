(** Replays a syscall trace on M3 through libm3 (the paper's
    replay program, §5.6). Must run inside an application VPE with the
    filesystem mounted at "/". Computation ops burn the same cycles as
    on Linux; [T_sendfile] becomes a read/write loop since M3 needs no
    in-kernel copy path. *)

(** [run env trace] replays [trace] through a 4 KiB transfer buffer in
    the SPM, like the Linux runs. *)
val run : M3.Env.t -> Trace.t -> (unit, M3.Errno.t) result
