(** The Tomahawk-like prototype platform: [pe_count] PEs and one DRAM
    module connected by a mesh NoC. PE [i] sits on NoC node [i]; the
    DRAM memory controller occupies the last node and has no DTU.

    As in the paper's simulator version, every PE has a 64 KiB data
    SPM (the instruction SPM is implicit — programs are OCaml code)
    and an 8-endpoint DTU, and all DTUs boot privileged. *)

type t

type config = {
  pe_count : int;
  spm_size : int;
  ep_count : int;
  dram_size : int;
  noc : M3_noc.Fabric.config;
  (* [core_at i] picks the core type of PE [i]. *)
  core_at : int -> Core_type.t;
}

(** 16 general-purpose PEs, 64 KiB SPMs, 8 EPs, 64 MiB DRAM. *)
val default_config : config

val create : ?config:config -> M3_sim.Engine.t -> t

val engine : t -> M3_sim.Engine.t
val fabric : t -> M3_noc.Fabric.t
val config : t -> config

val pe_count : t -> int

(** [pe t i] is PE [i]; raises [Invalid_argument] out of range. *)
val pe : t -> int -> Pe.t

(** [pes t] lists all PEs. *)
val pes : t -> Pe.t list

(** [find_pe t ~core ~used] is the lowest-numbered non-quarantined PE
    of type [core] for which [used] is false. *)
val find_pe : t -> core:Core_type.t -> used:(int -> bool) -> Pe.t option

(** [quarantine t i] removes PE [i] from the allocation pool for good —
    the kernel's response to a PE found dead. Raises [Invalid_argument]
    out of range. *)
val quarantine : t -> int -> unit

val is_quarantined : t -> int -> bool

(** NoC node id of the DRAM memory controller. *)
val dram_node : t -> int

(** The DRAM byte store. *)
val dram : t -> M3_mem.Store.t

(** [run t] drives the simulation until no events remain and returns
    the final cycle count. *)
val run : t -> int
