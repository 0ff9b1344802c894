(** libm3's syscall client.

    A syscall is a DTU message to the kernel PE (send endpoint 0) plus
    a wait for the kernel's reply (receive endpoint 1) — no mode
    switch, no shared registers, no cache or TLB pollution (§5.3).
    While blocked, the elapsed cycles are booked as transfer time for
    the two NoC crossings and OS time for the kernel's share. *)

type 'a result_ = ('a, Errno.t) result

(** [await_reply ?idle env ~ep ~t0 ~sent] is the client half of a
    request/response round-trip, shared by syscalls and
    {!Gate.call}: it blocks for the reply on receive endpoint [ep],
    under the {!Env.watchdog} unless the call is [idle] (it blocks on
    an external event, like [vpe_wait]). It then books the time
    blocked since [t0] as the two NoC crossings of a [sent]-byte
    request and its reply (transfer) plus the server's share (OS time,
    unless [idle]), and acks the reply slot. [None] when the watchdog
    expired. *)
val await_reply :
  ?idle:bool ->
  Env.t -> ep:int -> t0:int -> sent:int -> M3_dtu.Endpoint.message option

(** [noop env] performs the null syscall (the Fig. 3 micro-benchmark). *)
val noop : Env.t -> unit result_

(** [create_vpe env ~name ~core] asks for a fresh VPE on a free PE of
    the given core type. Returns [(vpe_sel, spm_mem_sel, vpe_id,
    pe_id)] — the VPE capability and a memory capability for the
    child's scratchpad (used for application loading). *)
val create_vpe :
  Env.t -> name:string -> core:M3_hw.Core_type.t -> (int * int * int * int) result_

(** [vpe_start env ~vpe_sel ~prog ~args] points the child PE at the
    entry of registered program [prog] with argument blob [args]. *)
val vpe_start : Env.t -> vpe_sel:int -> prog:string -> args:Bytes.t -> unit result_

(** [vpe_wait env ~vpe_sel] blocks until the VPE exits; the kernel
    defers the reply until then. Returns the exit code. *)
val vpe_wait : Env.t -> vpe_sel:int -> int result_

(** [vpe_exit env ~code] reports termination; never replied to. *)
val vpe_exit : Env.t -> code:int -> unit result_

(** [vpe_suspend env ~vpe_sel] asks the kernel scheduler to capture
    the child's state off its PE at the child's next quiesce point;
    the PE becomes free for other VPEs. Requires a scheduler-enabled
    kernel ([E_inv_args] otherwise); [E_exists] if already suspended. *)
val vpe_suspend : Env.t -> vpe_sel:int -> unit result_

(** [vpe_resume env ~vpe_sel] requeues a suspended child for
    placement on a free (same-class, possibly different) PE.
    Idempotent on a running child. *)
val vpe_resume : Env.t -> vpe_sel:int -> unit result_

(** [vpe_sched_state env ~vpe_sel] queries where a child is in the
    suspend/resume life cycle: [0] placed on a PE, [1] suspension in
    flight (quiesce or capture pending), [2] parked (image held by the
    kernel), [3] queued for placement. [Error E_inv_args] without a
    scheduler-enabled kernel. *)
val vpe_sched_state : Env.t -> vpe_sel:int -> int result_

(** [create_rgate env ~ep ~buf_addr ~slot_order ~slot_count] creates a
    receive gate bound to endpoint [ep] with a ringbuffer in the
    caller's SPM; the kernel configures the endpoint remotely. Returns
    the new selector. *)
val create_rgate :
  ?sel:int ->
  Env.t -> ep:int -> buf_addr:int -> slot_order:int -> slot_count:int -> int result_

(** [create_sgate env ~rgate_sel ~label ~credits] creates a send gate
    to one's own receive gate, for delegation to a communication
    partner. *)
val create_sgate :
  ?sel:int ->
  Env.t -> rgate_sel:int -> label:int64 -> credits:M3_dtu.Endpoint.credit ->
  int result_

(** [req_mem env ~size ~perm] obtains a fresh DRAM region; returns
    [(sel, address)] ([address] is informational — access goes through
    the capability). *)
val req_mem :
  ?sel:int -> Env.t -> size:int -> perm:M3_mem.Perm.t -> (int * int) result_

(** [derive_mem env ~src_sel ~off ~size ~perm] narrows a memory
    capability; returns the child selector. *)
val derive_mem :
  ?sel:int ->
  Env.t -> src_sel:int -> off:int -> size:int -> perm:M3_mem.Perm.t -> int result_

(** [activate env ~sel ~ep] asks the kernel to configure endpoint [ep]
    from the send/memory capability [sel]. *)
val activate : Env.t -> sel:int -> ep:int -> unit result_

(** [delegate env ~vpe_sel ~own_sel ~other_sel] grants a capability to
    the VPE one holds [vpe_sel] for, placing it at [other_sel]. *)
val delegate : Env.t -> vpe_sel:int -> own_sel:int -> other_sel:int -> unit result_

(** [obtain env ~vpe_sel ~own_sel ~other_sel] requests the capability
    at the other VPE's [other_sel] into one's own [own_sel]. *)
val obtain : Env.t -> vpe_sel:int -> own_sel:int -> other_sel:int -> unit result_

(** [obtain_published env ~vpe_sel ~own_sel ~other_sel] is {!obtain}
    for a capability the child publishes at the well-known selector
    [other_sel] once its setup got that far: until then [obtain] fails
    with [E_no_sel], so it retries every 500 cycles, up to 20 000
    times. *)
val obtain_published :
  Env.t -> vpe_sel:int -> own_sel:int -> other_sel:int -> unit result_

(** [create_srv env ~name ~krgate_sel ~crgate_sel] registers a service
    with its kernel channel and client channel; returns the service
    selector. *)
val create_srv : Env.t -> name:string -> krgate_sel:int -> crgate_sel:int -> int result_

(** [open_sess env ~srv ~arg] opens a session; returns
    [(sess_sel, sgate_sel)] — the session plus a send gate for talking
    to the service directly. *)
val open_sess : Env.t -> srv:string -> arg:int -> (int * int) result_

(** [exchange_sess env ~sess_sel ~args ~caps] performs a capability
    exchange with the service behind the session: [args] travel to the
    service, its answer travels back, and [caps] fresh selectors are
    filled with capabilities the service delegated (memory capabilities
    for file extents, in m3fs's case). Returns the answer bytes and
    the selectors. *)
val exchange_sess :
  Env.t -> sess_sel:int -> args:Bytes.t -> caps:int -> (Bytes.t * int list) result_

(** [delegate_sess env ~sess_sel ~own_sel] derives the (exchangeable)
    capability at [own_sel] into the table of the service VPE behind
    session [sess_sel], and returns the service-side selector the
    kernel chose. The derived capability is a child of the caller's,
    so revoking the caller's (or the caller dying) pulls it back.
    This is how a client hands a service a send gate for
    notifications without holding the service's VPE capability. *)
val delegate_sess : Env.t -> sess_sel:int -> own_sel:int -> int result_

(** [revoke env ~sel] recursively revokes a capability. *)
val revoke : Env.t -> sel:int -> unit result_

(** [run_main env main] is the libm3 runtime entry: runs [main],
    converts any uncaught exception except {!M3_sim.Process.Killed}
    into exit code 1, and performs the exit syscall. The kernel wraps
    every program start in this. *)
val run_main : Env.t -> (Env.t -> int) -> unit
