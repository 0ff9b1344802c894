(** Consistent hashing over top-level directories.

    Paths are assigned to an m3fs shard by hashing their first path
    component onto a ring of virtual nodes, so all files under one
    top-level directory live on one shard (extent sharing within a
    workload's directory never crosses shards) and adding a shard only
    moves a [1/n] fraction of directories. The ring is a
    pure function of the shard names — clients and [Bootstrap] build
    identical rings independently, with no coordination traffic. *)

type t

(** [create ~names] builds a ring for the given shard names, with 64
    virtual nodes per shard.
    @raise Invalid_argument if [names] is empty. *)
val create : names:string array -> t

val shards : t -> int

(** [owner t ~path] is the index (into [names]) of the shard owning
    [path], decided by its top-level component. Deterministic. *)
val owner : t -> path:string -> int

(** [top_component "/a/b/c"] is ["a"]; the root itself maps to [""]. *)
val top_component : string -> string

(** 64-bit FNV-1a (truncated to OCaml's 63-bit int) with an avalanche
    finalizer. Exposed for tests and harness-side placement
    previews. *)
val hash : string -> int
