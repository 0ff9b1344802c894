(** Shared plumbing for the experiment scenarios: boot an M3 system,
    run one measured application, and collect wall-clock cycles plus
    the App/Os/Xfer breakdown. *)

(** One measured result. *)
type measure = {
  m_cycles : int; (** wall-clock cycles of the measured section *)
  m_app : int;
  m_os : int;
  m_xfer : int;
}

(** When set, every experiment frame ([run_m3], {!Fig6.run_multi}, the
    figS/figS2 cells, the hand-booted ablations) creates an event bus
    over its fresh engine ({!bus}) and passes it to the callback —
    which attaches sinks — before the system boots, so even bring-up
    traffic is captured. One callback invocation per simulated
    system. *)
val observer : (M3_obs.Obs.t -> unit) option ref

(** [bus ?observe engine] is a fresh event bus over [engine] with the
    {!observer} hook and then [observe] attached, or [None] when
    neither is set (tracing off costs nothing). Experiment frames pass
    it to {!M3.Bootstrap.start}. *)
val bus :
  ?observe:(M3_obs.Obs.t -> unit) -> M3_sim.Engine.t -> M3_obs.Obs.t option

(** [other m] is everything that is not a data transfer — the paper's
    "Other" category in Fig. 3. *)
val other : measure -> int

(** [serialized m] reports the charged work total as the cycle count —
    the paper forces M3 not to exploit multiple PEs (§5.1), so for
    benchmarks whose two VPEs overlap in our simulator, the serialized
    equivalent (sum of both VPEs' charged cycles) is the comparable
    number. *)
val serialized : measure -> measure

(** [run_m3 app] boots a fresh system (kernel on PE 0 + m3fs) and
    runs [app] in a VPE. [app] receives the environment and a
    [measured] bracket: everything inside the bracket contributes to
    the returned measure (wall cycles and account delta — including
    work that child VPEs charge while it runs). [pe_count] (default 16)
    and [dram_mib] (default 64) size the platform and [core_at] picks
    each PE's core type (default: all general purpose). [seeds] are
    files m3fs is formatted with; [no_fs] boots without m3fs.
    [faults] attaches a fault plan before boot;
    [inspect] runs against the platform after the app has exited
    (e.g. to collect DTU retry/refund statistics). *)
val run_m3 :
  ?pe_count:int ->
  ?dram_mib:int ->
  ?core_at:(int -> M3_hw.Core_type.t) ->
  ?seeds:M3.M3fs.seed list ->
  ?no_fs:bool ->
  ?faults:M3_fault.Plan.t ->
  ?inspect:(M3_hw.Platform.t -> unit) ->
  (M3.Env.t -> measured:((unit -> unit) -> unit) -> unit) ->
  measure

(** [run_linux ?cache_ideal ?arch ?seeds f] runs [f] against a fresh
    Linux machine with the seeds applied, measuring everything [f]
    does. *)
val run_linux :
  ?cache_ideal:bool ->
  ?arch:M3_linux.Arch.t ->
  ?seeds:M3.M3fs.seed list ->
  (M3_linux.Machine.t -> unit) ->
  measure

(** [mounted env] mounts the root filesystem, failing loudly. *)
val mounted : M3.Env.t -> unit

val fmt_k : int -> string
(** cycles as "123.4 K" / "1.23 M" *)
