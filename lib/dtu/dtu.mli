(** The data transfer unit.

    One DTU instance sits next to every PE and is that PE's only path
    to other PEs and to PE-external memory. Software-facing operations
    ([send], [reply], [read_mem], ...) must be called from within a
    simulation process on the owning PE; they consume simulated time
    and block the caller until the hardware command completes.

    External (privileged) operations model the kernel remotely
    controlling another PE's DTU over the NoC; the target DTU rejects
    them unless the {e sending} DTU is privileged — this is NoC-level
    isolation. *)

type t

(** [create engine fabric ~pe ~spm ~ep_count] builds the DTU of NoC
    node [pe] with [ep_count] endpoints (8 on the prototype). All DTUs
    boot privileged, as in the paper; the kernel downgrades application
    PEs during boot. *)
val create :
  M3_sim.Engine.t ->
  M3_noc.Fabric.t ->
  pe:int ->
  spm:M3_mem.Store.t ->
  ep_count:int ->
  t

(** [set_resolvers t ~store_of ~dtu_of] wires the DTU to the platform:
    [store_of node] is the byte store behind a node (SPM or DRAM), and
    [dtu_of node] the DTU of a node (None for the memory controller). *)
val set_resolvers :
  t -> store_of:(int -> M3_mem.Store.t option) -> dtu_of:(int -> t option) -> unit

val pe : t -> int
val ep_count : t -> int
val is_privileged : t -> bool

(** [ep_config t ~ep] reads an endpoint's current configuration
    (register introspection, used by the kernel PE and by tests). *)
val ep_config : t -> ep:int -> Endpoint.config

(** [credits t ~ep] is the current credit counter of a send EP. *)
val credits : t -> ep:int -> Endpoint.credit option

(** {1 Software-facing commands (call from a process on this PE)} *)

(** [config_local t ~ep cfg] writes an endpoint register set directly.
    Only legal while this DTU is privileged (the kernel configures its
    own endpoints this way). *)
val config_local : t -> ep:int -> Endpoint.config -> (unit, Dtu_error.t) result

(** [send t ~ep ~payload ?reply ()] sends [payload] through send
    endpoint [ep]. [reply = (reply_ep, reply_label)] grants the
    receiver a one-shot direct reply into [reply_ep]. Returns once the
    command has been accepted and the payload has left the PE; delivery
    completes asynchronously. When the destination VPE is suspended
    (the kernel parked this endpoint) the command blocks until the
    resume rewrites the endpoint — unless [block] is [false], in which
    case it returns [Error Suspended] instead, for fire-and-forget
    traffic that must never wait on a VPE that may stay parked. *)
val send :
  ?block:bool ->
  t ->
  ep:int ->
  payload:Bytes.t ->
  ?reply:int * int64 ->
  unit ->
  (unit, Dtu_error.t) result

(** [reply t ~ep ~slot ~payload] replies to the message in [slot] of
    receive endpoint [ep], using the reply information from the stored
    header, refilling the sender's credits, and acking the slot. *)
val reply :
  t -> ep:int -> slot:int -> payload:Bytes.t -> (unit, Dtu_error.t) result

(** [fetch t ~ep] returns the oldest unread message, if any, without
    blocking (a register poll). *)
val fetch : t -> ep:int -> Endpoint.message option

(** [buffered t ~ep] counts messages delivered to receive endpoint
    [ep] but not yet fetched — the ringbuffer backlog a server reads
    as its queue depth. [0] for non-receive endpoints. *)
val buffered : t -> ep:int -> int

(** [wait ?deadline t ~eps] is the one blocking receive. It fetches
    the oldest unread message of the first endpoint in [eps] that holds
    one (the message's [ep] names it), and otherwise parks the calling
    process until a delivery. With a [deadline] (an absolute cycle) it
    returns [None] once the clock reaches the deadline with nothing
    delivered — the building block for watchdogs on round-trips into
    possibly-dead PEs; without one it never returns [None]. A wait on
    application endpoints only (EP 2 and up) is a quiesce point: a VPE
    suspended in it resumes the wait on the DTU it migrated to. Every
    queue registration is released when the caller wakes, whatever
    woke it.
    @raise Dtu_error.Error [Invalid_ep] if, while the caller is
    parked, a watched receive endpoint is revoked out from under it
    ([ext_invalidate]/[ext_reset]) — the revocation must unblock the
    victim, not strand it. *)
val wait : ?deadline:int -> t -> eps:int list -> Endpoint.message option

(** [wait_msg t ~ep] is {!wait} on [ep] alone, without a deadline. *)
val wait_msg : t -> ep:int -> Endpoint.message

(** [wait_any t ~eps] is {!wait} without a deadline — how a service
    waits on its kernel channel and its client channel at once. *)
val wait_any : t -> eps:int list -> Endpoint.message

(** [ack t ~ep ~slot] frees a ringbuffer slot after processing. *)
val ack : t -> ep:int -> slot:int -> unit

(** [read_mem t ~ep ~off ~local ~len] copies [len] bytes from offset
    [off] of the memory endpoint's region into the local SPM at
    [local]; blocks until the data has arrived (8 bytes/cycle). *)
val read_mem :
  t -> ep:int -> off:int -> local:int -> len:int -> (unit, Dtu_error.t) result

(** [write_mem t ~ep ~off ~local ~len] copies [len] bytes from the
    local SPM at [local] to offset [off] of the memory endpoint's
    region; blocks until the transfer completes. *)
val write_mem :
  t -> ep:int -> off:int -> local:int -> len:int -> (unit, Dtu_error.t) result

(** {1 External (privileged) commands}

    These are issued by kernel software and travel over the NoC to the
    target DTU, which verifies that the source DTU is privileged. All
    block the caller until the target acknowledges. *)

val ext_config :
  t -> target:int -> ep:int -> Endpoint.config -> (unit, Dtu_error.t) result

val ext_invalidate : t -> target:int -> ep:int -> (unit, Dtu_error.t) result

(** [ext_set_privileged t ~target v] raises or downgrades the
    privilege flag of the target DTU. *)
val ext_set_privileged : t -> target:int -> bool -> (unit, Dtu_error.t) result

(** [ext_read t ~target ~addr ~len] reads raw bytes from the target
    PE's SPM. *)
val ext_read :
  t -> target:int -> addr:int -> len:int -> (Bytes.t, Dtu_error.t) result

(** [ext_reset t ~target] invalidates every endpoint of the target DTU
    (kernel resetting a PE when a VPE is revoked). *)
val ext_reset : t -> target:int -> (unit, Dtu_error.t) result

(** {1 VPE suspend/resume (privileged)}

    The mechanism half of VPE suspend, resume and migration (§4.4:
    DTU-mediated state save/restore makes even bare-metal cores
    schedulable by a remote kernel). The kernel flags a DTU with {!ext_suspend}; the
    program on that PE parks itself at its next {e quiesce point} (the
    top of any application-level wait, or a compute checkpoint) and
    hands its continuation to the kernel. The kernel then pulls the
    full architectural state with {!ext_capture} and later pushes it
    back — to the same or a different PE — with {!ext_restore}.

    While a DTU is suspended, deliveries are NACKed with the always-
    retryable reason ["suspended"]: senders retransmit on a bounded
    deterministic backoff even without a fault plan, so survivors
    observe a migration only as latency. *)

(** [ext_suspend t ~target] asks the program on [target] to quiesce:
    sets the suspend-pending flag and wakes any parked waiter so it
    reaches its quiesce point. Completion is observed via {!quiesced}
    (or the {!set_on_quiesce} callback), not by this round-trip. *)
val ext_suspend : t -> target:int -> (unit, Dtu_error.t) result

(** Captured DTU + SPM state of one PE, held by the kernel between
    suspend and resume. *)
type snapshot

(** Size of the captured SPM image in bytes. *)
val snapshot_bytes : snapshot -> int

(** [ext_capture t ~target] copies the target's endpoint registers
    (including live credits and ringbuffer state) and SPM contents out
    over the NoC, marks the target suspended and wipes its endpoints.
    Call only after the program has quiesced. *)
val ext_capture : t -> target:int -> (snapshot, Dtu_error.t) result

(** [ext_restore t ~target snap] writes a captured state into
    [target]'s DTU and SPM and clears the suspended flag; [target] may
    differ from the PE the snapshot was taken on (migration). *)
val ext_restore : t -> target:int -> snapshot -> (unit, Dtu_error.t) result

(** [ext_park t ~target ~ep] freezes a {e send} endpoint on [target]
    whose destination VPE is being suspended: sends on it block and
    scheduled retransmits hold, instead of racing a retry against
    whatever VPE is placed on the old PE next. The kernel releases the
    endpoint by rewriting it with {!ext_config} (same or migrated
    destination, credits preserved — read them back via {!ep_config}). *)
val ext_park : t -> target:int -> ep:int -> (unit, Dtu_error.t) result

(** [ext_rebind t ~target ~ep ~dst_pe] retargets a send or memory
    endpoint of [target] at a migrated VPE's new PE, preserving the
    credit budget. On a parked send EP this also releases blocked
    senders and held retransmits against the new destination. *)
val ext_rebind :
  t -> target:int -> ep:int -> dst_pe:int -> (unit, Dtu_error.t) result

(** [suspend_pending t] is true between {!ext_suspend} and the
    program's arrival at a quiesce point. *)
val suspend_pending : t -> bool

(** [quiesced t] is true once the program has parked at a quiesce
    point and its continuation awaits {!take_parked}. *)
val quiesced : t -> bool

(** [set_on_quiesce t f] registers a one-shot callback fired when the
    program parks at its quiesce point (the kernel's completion
    signal). *)
val set_on_quiesce : t -> (unit -> unit) -> unit

(** [take_parked t] removes and returns the parked program's
    continuation. The kernel fires it with the DTU to resume on after
    {!ext_restore} (the same DTU, or another PE's after migration). *)
val take_parked : t -> (t -> unit) option

(** [quiesce_point t] is the cooperative checkpoint: parks the caller
    when a suspension is pending and returns the DTU resumed on
    (otherwise [t], for free). Called from {!wait} and from
    [Env.charge] compute checkpoints. *)
val quiesce_point : t -> t

(** [failed t] is true once an attached fault plan's [pe_crash] fired
    on this PE: the core was killed mid-command and the DTU answers
    neither deliveries nor ext commands (senders get a non-retryable
    ["no dtu"] NACK, the kernel gets an error on the round-trip — its
    only way to observe the death). *)
val failed : t -> bool

(** {1 Statistics} *)

val msgs_sent : t -> int
val msgs_received : t -> int

(** [msgs_dropped t] counts deliveries this DTU rejected (ringbuffer
    full, oversize, no receive endpoint, suspended) plus its sends
    that found no live DTU at the target. Losses a fault plan injects
    in flight are not counted here: they show as {!retransmits} or
    {!msgs_expired}. *)
val msgs_dropped : t -> int

(** [credits_refunded t] counts send credits handed back by the NACK
    path after a failed delivery. *)
val credits_refunded : t -> int

(** [retransmits t] counts retry attempts issued by this DTU (only
    nonzero with a fault plan attached). *)
val retransmits : t -> int

(** [msgs_expired t] counts messages abandoned after exhausting their
    retransmit budget. *)
val msgs_expired : t -> int

val mem_bytes_read : t -> int
val mem_bytes_written : t -> int

(** [waiters t ~ep] is the number of processes currently parked on
    endpoint [ep] (waitq-hygiene introspection for tests). *)
val waiters : t -> ep:int -> int
