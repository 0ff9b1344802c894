(** Pipes (§4.5.7): a unidirectional data channel between exactly one
    writer and one reader, with the data in a software-managed DRAM
    ringbuffer that both ends access through a shared memory
    capability. Messages only synchronize: the writer notifies the
    reader of produced bytes; the reader's reply returns the space.
    After setup the kernel is never involved — the communication runs
    directly between the two PEs.

    Setup uses the capability exchange primitives. The two ends
    rendezvous via well-known handoff selectors: a parent delegates
    into the child's table at {!handoff_sgate_sel}/{!handoff_ring_sel},
    or obtains from those slots (retrying until the child has created
    its end). *)

type 'a result_ = ('a, Errno.t) result

val handoff_sgate_sel : int
val handoff_ring_sel : int

type reader
type writer

(** {1 Parent reads, child writes (cat+tr)} *)

(** [create_reader env ~ring_size] — parent allocates the ringbuffer
    in DRAM, a receive gate for notifications, and a send gate for the
    future writer. *)
val create_reader : Env.t -> ring_size:int -> reader result_

(** [delegate_writer_end env reader ~vpe_sel] hands the send gate and
    the ringbuffer capability to the child VPE (at the handoff
    selectors). Call before starting the child. *)
val delegate_writer_end : Env.t -> reader -> vpe_sel:int -> unit result_

(** [connect_writer env ~ring_size] — child picks up the handoff
    capabilities and builds its writer end (plus a local receive gate
    for space-reclaim replies). *)
val connect_writer : Env.t -> ring_size:int -> writer result_

(** {1 Parent writes, child reads (FFT offload)} *)

(** [serve_reader env ~ring_size] — child creates its receive gate and
    publishes a send gate at {!handoff_sgate_sel}; the ringbuffer
    capability arrives from the parent at {!handoff_ring_sel} (lazily
    activated on first read). *)
val serve_reader : Env.t -> ring_size:int -> reader result_

(** [connect_writer_to_child env ~vpe_sel ~ring_size] — parent obtains
    the child's send gate (retrying until the child published it),
    allocates the ringbuffer, and delegates it to the child. *)
val connect_writer_to_child : Env.t -> vpe_sel:int -> ring_size:int -> writer result_

(** {1 Data plane} *)

(** [write env w ~local ~len] pushes [len] bytes from SPM address
    [local]; blocks while the ring is full. Fails with [E_pipe_broken]
    when the reader died: its capabilities were revoked under us, or —
    under a fault plan — the space-reclaim reply never comes. *)
val write : Env.t -> writer -> local:int -> len:int -> unit result_

(** [close_writer env w] signals end-of-stream. *)
val close_writer : Env.t -> writer -> unit result_

(** [read env r ~local ~len] pulls up to [len] bytes into SPM address
    [local]; returns the count, or [0] at end-of-stream. Blocks when
    the pipe is empty. A writer that died without closing yields
    [E_pipe_broken] instead of EOF: the kernel poisons the notify gate
    when the last sender is gone, and under a fault plan the client
    watchdog ({!Env.watchdog}) covers the remaining windows. *)
val read : Env.t -> reader -> local:int -> len:int -> int result_
