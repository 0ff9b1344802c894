(** The m3fs service (§4.5.8): an in-memory, extent-based filesystem
    served by an ordinary application VPE.

    Meta operations (open, close, stat, mkdir, ...) are handled via
    messages on the session channel; data access never touches the
    server — clients obtain memory capabilities for file extents (via
    the kernel's [exchange_sess]) and move bytes with their own DTU.

    The server is an ordinary program ({!program}); the bootstrapper
    launches it like any other application. *)

type seed = {
  sd_path : string;
  sd_size : int;
  sd_blocks_per_extent : int;
  sd_dir : bool;  (** when true, [sd_path] is a directory to create *)
}

type config = {
  dram : M3_mem.Store.t;   (** the platform's DRAM store *)
  fs_size : int;           (** image size requested from the kernel *)
  block_size : int;        (** 1 KiB in the paper's evaluation *)
  inode_count : int;
  seed : seed list;        (** pre-created content (workload inputs) *)
  seed_rng_seed : int;
  srv_name : string;
      (** service (and program) name — multiple independent instances
          can run under different names (§7's "multiple instances of
          services"; without shared state they need no synchronization
          protocol, clients shard by mount) *)
  emit_queue : bool;
      (** when true (and an observer is attached), the server emits an
          [fs.shard.queue] event with its ringbuffer backlog each time
          it picks up a request. Off by default so existing traces stay
          byte-identical. *)
}

val default_config : dram:M3_mem.Store.t -> config

(** [program config] is the server with this configuration, for
    {!Kernel.launch}; it serves under [config.srv_name]. *)
val program : config -> Program.t

(** [main config env] is the server body itself — exported so tests
    can launch an instance themselves and relaunch it after an abort,
    instead of the bootstrapper's fire-and-forget launch. *)
val main : config -> Env.t -> int

(** [current_image engine] is the image of [engine]'s default
    instance ("m3fs"), for white-box tests and fsck; set when the
    server initializes. *)
val current_image : M3_sim.Engine.t -> Fs_image.t option

(** [image_of ~engine ~srv_name] — the image of a specific instance of
    a specific simulation. Instances are kept per engine
    ({!M3_sim.Engine.local}), so engines coexisting in one process
    never alias, and a finished system's instances are collected with
    its engine. *)
val image_of : engine:M3_sim.Engine.t -> srv_name:string -> Fs_image.t option

(** [open_sessions ~engine ~srv_name] is the instance's live session
    count ([None] until the server has initialized) — lets the crash
    harness assert that a dead client's session was reaped. *)
val open_sessions : engine:M3_sim.Engine.t -> srv_name:string -> int option

(** [forget ~engine] empties [engine]'s table of m3fs instances, so
    {!image_of} and {!open_sessions} answer [None] for it. Nothing
    needs it to reclaim memory: the table belongs to the engine and is
    collected with it. *)
val forget : engine:M3_sim.Engine.t -> unit
