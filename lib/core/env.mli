(** Per-application environment — the heart of libm3 on a PE.

    Every VPE's program receives an [Env.t] when it starts. It wraps
    the PE's DTU, tracks capability selectors, multiplexes the eight
    hardware endpoints among gates, bump-allocates SPM space, charges
    cycle costs into the benchmark account, and decides which blocking
    waits get a watchdog (libm3's and the kernel's). Applications talk
    to the rest of the system exclusively through the DTU referenced
    here — there is no back-door into the kernel. *)

module Account = M3_sim.Account

(** {1 Endpoint and selector conventions} *)

val ep_syscall_send : int
(** EP 0: send gate to the kernel, installed at VPE creation *)

val ep_syscall_reply : int
(** EP 1: receive buffer for syscall replies *)

val first_free_ep : int
(** EP 2: first endpoint available to gates *)

val sel_vpe : int
(** selector 0: the VPE's own capability *)

val sel_mem : int
(** selector 1: memory capability for the VPE's own SPM *)


(** SPM address of the syscall-reply ringbuffer. *)
val reply_buf_addr : int

(** Where the application data area (bump allocator) begins. *)
val data_start : int

(** {1 The environment} *)

(** A gate's claim on a hardware endpoint (see {!Epmux}). *)
type ep_user = {
  eu_sel : int;
  mutable eu_ep : int option;
}

(** State of one general-purpose endpoint. *)
type ep_slot =
  | Ep_free
  | Ep_reserved        (** pinned by a receive gate — never multiplexed *)
  | Ep_used of ep_user (** currently holds this gate's configuration *)

type t = {
  uid : int;
      (** unique across all environments in this host process — the
          key of libm3's side tables (mount table, file-invalidation
          channel) whose types this record cannot name; those tables
          hang off the engine ({!M3_sim.Engine.local}) *)
  mutable pe : M3_hw.Pe.t;
      (** mutable: the kernel scheduler retargets these two on
          migration, before the VPE's quiesced continuation fires *)
  mutable dtu : M3_dtu.Dtu.t;
  engine : M3_sim.Engine.t;
  fabric : M3_noc.Fabric.t;
  kernel_pe : int;
  vpe_id : int;
  name : string;
  image_bytes : int;  (** size of code + static data, for clone costs *)
  args : Bytes.t;     (** argument blob the parent passed along *)
  account : Account.t;
  mutable next_sel : int;
  mutable spm_top : int;
  ep_slots : ep_slot array; (** general EPs only, index 0 = EP 2 *)
  mutable ep_clock : int;   (** round-robin victim pointer *)
  mutable spin_transfers : bool;
      (** Fig. 6 methodology: replace DRAM data transfers by an
          equal-time spin so that only software contention remains *)
  mutable activations : int;  (** activate syscalls made by {!Epmux} *)
  mutable scratch : int option;
      (** SPM address of {!File}'s copy buffer, once allocated *)
}

(** [create ~pe ~fabric ~kernel_pe ~vpe_id ~name ~image_bytes ~args
    ~account] builds an environment; normally only the kernel calls
    this when starting a VPE. *)
val create :
  pe:M3_hw.Pe.t ->
  fabric:M3_noc.Fabric.t ->
  kernel_pe:int ->
  vpe_id:int ->
  name:string ->
  image_bytes:int ->
  args:Bytes.t ->
  account:Account.t ->
  t

(** {1 Cycle charging}

    [charge] consumes simulated time {e and} books it; [charge_only]
    books time that has already passed (e.g. while blocked on the
    DTU). *)

(** [migrate t ~pe] repoints the environment at a different PE after
    the kernel moved the VPE's state there. Kernel-side only; must run
    while the VPE is quiesced. *)
val migrate : t -> pe:M3_hw.Pe.t -> unit

val charge : t -> Account.category -> int -> unit
val charge_only : t -> Account.category -> int -> unit

(** [charge_marshal t bytes] charges the per-word marshalling cost for
    a [bytes]-byte message body. *)
val charge_marshal : t -> int -> unit

(** [timed t cat f] runs [f], books the simulated time it took under
    [cat], and returns its result. *)
val timed : t -> Account.category -> (unit -> 'a) -> 'a

(** {1 Resources} *)

(** [alloc_sel t] returns a fresh capability selector. *)
val alloc_sel : t -> int

(** [alloc_spm t ~size] bump-allocates SPM space (8-byte aligned).
    @raise Errno.Error [E_no_space] when the scratchpad is full. *)
val alloc_spm : t -> size:int -> int

(** {1 Watchdogs} *)

(** Cycles a client waits for the answer to a syscall, a service call
    or a pipe transfer before it gives up (5 M). *)
val client_watchdog : int

(** [watchdog ?bound fabric] decides whether a blocking wait starting
    now gets a watchdog, and returns its deadline for
    {!M3_dtu.Dtu.wait}: [Some (now + bound)] when a fault plan is
    attached to [fabric], where a lost message or a dead PE could
    leave the wait hanging, and [None] (wait forever, at no cost)
    otherwise. [bound] defaults to {!client_watchdog}; the kernel's
    service forwarding passes its shorter bound, a serving pool's
    client its longer one. *)
val watchdog : ?bound:int -> M3_noc.Fabric.t -> int option

(** [drop_stale fabric dtu ~ep] acks every message already waiting on
    reply endpoint [ep] when a fault plan is attached: a round-trip
    that timed out earlier may have left its late reply there, and it
    must not answer the next request. Without a plan it does
    nothing. *)
val drop_stale : M3_noc.Fabric.t -> M3_dtu.Dtu.t -> ep:int -> unit

(** [msg_send_latency t ~dst ~bytes] estimates the congestion-free NoC
    time of one message — used to split blocked time into transfer
    versus OS overhead for the paper's breakdowns. *)
val msg_send_latency : t -> dst:int -> bytes:int -> int
