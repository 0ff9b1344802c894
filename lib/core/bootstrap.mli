(** System bring-up: platform + kernel + m3fs, ready for applications.

    The harness, tests and examples all start from here:
    {[
      let engine = M3_sim.Engine.create () in
      let sys = Bootstrap.start engine in
      let exit = Bootstrap.launch sys ~name:"app" (fun env -> ...) in
      ignore (M3_sim.Engine.run engine)
    ]} *)

type t = {
  engine : M3_sim.Engine.t;
  platform : M3_hw.Platform.t;
  kernel : Kernel.t;
  fs_services : string list;
      (** service names of the launched m3fs instances, in shard
          order — pass to {!Vfs.mount_sharded}. [["m3fs"]] for the
          default single instance, [[]] under [no_fs]. *)
}

(** [start ?platform_config ?fs ?fs_instances ?no_fs ?obs engine]
    builds the platform (kernel on PE 0), boots the kernel and, unless
    [no_fs], launches m3fs ({!M3fs.program}) with configuration [fs] (seed
    files etc.; defaults to an empty 16 MiB filesystem).

    [fs_instances] (default 1) launches that many m3fs shards, each on
    its own PE under names ["m3fs.0"], ["m3fs.1"], ... (derived from
    the configured [srv_name]); the seed list is partitioned across
    them with the same {!Shard} ring clients use, and each shard
    formats a full [fs_size] image, so the platform needs
    [fs_instances * fs_size] of DRAM plus a free general-purpose PE
    per shard. With one instance the boot sequence is exactly the
    pre-sharding one.

    [obs], if given, is installed on the fabric before the kernel
    boots, so bring-up traffic is observable too. [faults], if given,
    attaches a fault plan to the fabric the same way (boot traffic
    included). [sched] boots the kernel with its VPE scheduler
    ({!Kernel.create}). Nothing has executed yet — the caller drives
    the engine. *)
val start :
  ?platform_config:M3_hw.Platform.config ->
  ?fs:(dram:M3_mem.Store.t -> M3fs.config) ->
  ?fs_instances:int ->
  ?no_fs:bool ->
  ?obs:M3_obs.Obs.t ->
  ?faults:M3_fault.Plan.t ->
  ?sched:bool ->
  M3_sim.Engine.t ->
  t

(** [launch t ~name ?account ?args main] starts [main] in a new VPE
    named [name], by value ({!Kernel.launch}): nothing is registered,
    so the closure dies with the simulation. Returns the exit ivar.
    The default account is a throwaway. *)
val launch :
  t ->
  name:string ->
  ?account:M3_sim.Account.t ->
  ?args:Bytes.t ->
  (Env.t -> int) ->
  int M3_sim.Process.Ivar.ivar

(** [expect_exit t ivar] reads a filled exit ivar after the run;
    raises if the VPE never exited or exited non-zero. *)
val expect_exit : t -> int M3_sim.Process.Ivar.ivar -> unit
