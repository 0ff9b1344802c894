(** Kernel VPE scheduler state: one scheduling state per VPE, the FIFO
    run queues of captured VPEs per core class, and the op queue the
    kernel's sweep process drains.

    The transitions are plain functions of the state, so a test runs
    them without an engine; the kernel performs the DTU ext commands
    around them. ['p] is what the kernel holds for a VPE off its PE
    (its captured image). *)

(** Where a suspension in flight sends its VPE once captured. *)
type kind =
  | Park  (** parked until an explicit resume *)
  | Requeue  (** a resume overtook the suspension: straight to the queue *)

type 'p state =
  | Placed  (** on a PE; every VPE the scheduler never touched *)
  | Suspending of kind  (** quiesce or capture in flight *)
  | Parked of M3_hw.Core_type.t * 'p  (** off-PE until resumed *)
  | Queued of M3_hw.Core_type.t
      (** off-PE, its image in that core class's run queue *)

(** Requests handed to the sweep by syscall handlers, and the
    completion signal the DTU's quiesce callback posts back. *)
type op =
  | Op_suspend of int
  | Op_resume of int
  | Op_quiesced of int

type 'p t

val create : unit -> 'p t

(** {1 Per-VPE state} *)

val state : 'p t -> vpe:int -> 'p state

(** [suspendable t ~vpe]: only a [Placed] VPE can start a suspension. *)
val suspendable : 'p t -> vpe:int -> bool

(** [suspend t ~vpe] moves a [Placed] VPE to [Suspending Park] and is
    true; on any other state it changes nothing and is false. *)
val suspend : 'p t -> vpe:int -> bool

(** [resume t ~vpe] queues a [Parked] VPE for placement and turns a
    [Suspending] one into a requeue; a no-op otherwise. *)
val resume : 'p t -> vpe:int -> unit

(** [captured t ~vpe ~core p] ends a suspension with the image [p]
    taken off a [core]-class PE: [Parked], or [Queued] when a resume
    overtook it. Raises [Invalid_argument] unless [Suspending]. *)
val captured : 'p t -> vpe:int -> core:M3_hw.Core_type.t -> 'p -> unit

(** [settle t ~vpe] ends a suspension that captured nothing: a
    [Suspending] VPE is [Placed] again. A no-op otherwise. *)
val settle : 'p t -> vpe:int -> unit

(** [take t ~core] pops the head of [core]'s run queue, which is
    [Placed] from then on; the caller restores the image onto a free
    PE. *)
val take : 'p t -> core:M3_hw.Core_type.t -> (int * 'p) option

(** [kill t ~vpe] forgets a dead VPE, leaving no state or queue entry,
    and returns the images held for it so the caller can discard
    them. *)
val kill : 'p t -> vpe:int -> 'p list

(** [parked t] counts the [Parked] VPEs. *)
val parked : 'p t -> int

(** [queue t ~core] is [core]'s run queue, head first. *)
val queue : 'p t -> core:M3_hw.Core_type.t -> (int * 'p) list

(** {1 Pending operations} *)

(** [request t op] queues [op] and wakes the sweep. *)
val request : 'p t -> op -> unit

val next_op : 'p t -> op option
val pending_ops : 'p t -> int

(** [wait_work t] parks the calling sweep until [request] or [wake]. *)
val wait_work : 'p t -> unit

(** [wake t] wakes a parked sweep (a VPE died). *)
val wake : 'p t -> unit
