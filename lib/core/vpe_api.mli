(** VPEs from the application's point of view (§4.5.5): create a VPE
    on a free PE, load it by cloning one's own memory image or by
    executing a program file from the filesystem, pass capabilities,
    wait for the exit code.

    [run] is the paper's [VPE::run] executing a "lambda" on another
    PE: the closure's captures model capture-by-value, and the memory
    image copy is performed for real through the delegated memory
    capability of the child's scratchpad. *)

type 'a result_ = ('a, Errno.t) result

type t = {
  vpe_sel : int;  (** the VPE capability *)
  mem_sel : int;  (** memory capability for the child's SPM *)
  vpe_id : int;
  pe_id : int;
}

(** [create env ~name ~core] allocates a VPE on a free PE. *)
val create : Env.t -> name:string -> core:M3_hw.Core_type.t -> t result_

(** [run env t ?args main] clones the calling program onto the child
    PE (copying code, data and heap through the memory gate) and
    starts [main] there. *)
val run : Env.t -> t -> ?args:Bytes.t -> (Env.t -> int) -> unit result_

(** [exec env t ?args path] loads the executable at [path] (a file
    whose content begins with [#!m3 <program>]) onto the child PE and
    starts it — requires a mounted filesystem. *)
val exec : Env.t -> t -> ?args:Bytes.t -> string -> unit result_

(** [start_program env t ?args prog] starts a registered program
    directly (the piece both [run] and [exec] share). *)
val start_program :
  Env.t -> t -> ?args:Bytes.t -> image_bytes:int -> string -> unit result_

(** [wait env t] blocks until the child exits; returns the exit code,
    or [Error E_vpe_dead] when the child was aborted by the kernel
    (its PE crashed). *)
val wait : Env.t -> t -> int result_

(** [suspend env t] parks the child off its PE (kernel scheduler
    required): the child's state is captured at its next quiesce point
    and its PE freed. Peers talking to it block until [resume]. *)
val suspend : Env.t -> t -> unit result_

(** [resume env t] places a suspended child back onto a free
    compatible PE — possibly a different one; the child and its peers
    observe the migration only as latency. *)
val resume : Env.t -> t -> unit result_

(** [await_parked env t] polls, every 500 cycles, until the kernel
    scheduler reports the child's state captured and its image held —
    the synchronisation a pool needs between issuing its initial
    suspends and opening the doors to clients (a suspend only
    completes at the child's next quiesce point). [Error E_inv_args]
    without a scheduler-enabled kernel. *)
val await_parked : Env.t -> t -> unit result_

(** [run_supervised env ~name ~core ?args main] runs [main] in a child
    VPE and retries once — on a fresh PE, the crashed one having been
    quarantined — when the child is aborted, emitting a [vpe.restart]
    event. Returns the last attempt's exit code; voluntary exits are
    never retried. *)
val run_supervised :
  Env.t ->
  name:string ->
  core:M3_hw.Core_type.t ->
  ?args:Bytes.t ->
  (Env.t -> int) ->
  int result_

(** [delegate env t ~own_sel ~other_sel] gives the child a capability. *)
val delegate : Env.t -> t -> own_sel:int -> other_sel:int -> unit result_

(** [obtain env t ~own_sel ~other_sel] takes a capability the child
    published. *)
val obtain : Env.t -> t -> own_sel:int -> other_sel:int -> unit result_

(** [revoke env t] revokes the VPE capability — kills the child and
    recursively everything delegated to it. *)
val revoke : Env.t -> t -> unit result_
