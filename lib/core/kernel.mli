(** The M3 microkernel.

    Runs on a dedicated PE and never executes application code. Its
    jobs (§3, §4.5): decide whether operations are allowed (it owns
    all capabilities), configure application DTU endpoints remotely
    over the NoC, manage PEs and PE-external memory, and broker
    service registration, sessions and capability exchanges. System
    calls arrive as DTU messages on its receive endpoint; everything is
    handled strictly serially by one kernel instance, as in the paper
    (the Fig. 6 scalability experiment measures exactly this). *)

type t

val abort_exit_code : int
(** exit code recorded for aborted VPEs: [-(Errno.to_int E_vpe_dead)].
    Supervisors key restart decisions on it. *)

(** [create ?sched platform ~kernel_pe] initializes kernel state. The
    kernel owns all DRAM not reserved for the boot image. With [sched]
    (default false) VPEs can be suspended, parked, resumed and
    migrated, and a scheduler sweep process runs on the kernel PE.
    Without it, behaviour is bit-identical to previous kernels. *)
val create : ?sched:bool -> M3_hw.Platform.t -> kernel_pe:int -> t

(** [boot t] configures the kernel's endpoints, spawns the kernel
    process, and downgrades all application-PE DTUs — establishing
    NoC-level isolation. Returns an ivar filled once boot completes. *)
val boot : t -> unit M3_sim.Process.Ivar.ivar

(** [launch t ~name ~account ?args program] starts [program] in a
    fresh VPE named [name] on a free general-purpose PE (boot-loader
    path, also used by the benchmark harness). The program is passed
    by value and never registered, so nothing of it outlives the
    simulation. Returns an ivar that receives the exit code. *)
val launch :
  t ->
  name:string ->
  account:M3_sim.Account.t ->
  ?args:Bytes.t ->
  Program.t ->
  int M3_sim.Process.Ivar.ivar

(** [abort t vpe ~reason] kills a VPE from the outside with full crash
    containment: its capability tree is revoked recursively, services
    holding one of its sessions get a [Srv_client_gone] notification,
    receive gates only it was feeding are poisoned so parked peers
    wake with an error, and — if the VPE's DTU is actually dead — the
    PE is quarantined. Waiters observe [E_vpe_dead]. Idempotent: on an
    already-dead VPE it only bumps [kills_ignored]. Must run inside a
    simulation process. The heartbeat prober calls this for every VPE
    whose PE stops answering probes; tests may call it directly. *)
val abort : t -> Kdata.vpe -> reason:string -> unit

(** [exit_code t ~vpe_id] is the exit ivar of a VPE (filled on exit). *)
val exit_code : t -> vpe_id:int -> int M3_sim.Process.Ivar.ivar option

(** [service_registered t ~name] — true once a service of that name
    exists (clients normally just retry [open_sess]). *)
val service_registered : t -> name:string -> bool

(** [vpe_count t] is the number of live VPEs (for tests). *)
val vpe_count : t -> int

(** [free_pes t] is the number of unowned, non-quarantined application
    PEs. *)
val free_pes : t -> int

(** [syscalls_handled t] counts dispatched syscalls. *)
val syscalls_handled : t -> int

(** [kills_ignored t] counts exits/aborts that arrived after the VPE
    was already dead (the losing side of an exit-vs-abort race). *)
val kills_ignored : t -> int

(** [ep_entries t ~vpe_id] is the number of endpoint-to-capability
    bookkeeping entries still held for a VPE — 0 for any dead VPE, or
    endpoints leaked (for leak tests around revoke and abort). *)
val ep_entries : t -> vpe_id:int -> int

(** [dram_avail t] is the number of DRAM bytes the kernel can still
    hand out (for leak tests around revoke). *)
val dram_avail : t -> int

(** [find_vpe t ~vpe_id] exposes kernel objects to white-box tests. *)
val find_vpe : t -> vpe_id:int -> Kdata.vpe option

(** [suspended_count t] is the number of explicitly suspended VPE
    images currently parked in the kernel (pool shrink depth). *)
val suspended_count : t -> int
