(** Figure 6: scalability of a single kernel + single m3fs instance.

    1–16 instances of each application benchmark run in parallel, one
    per PE (two PEs for cat+tr), all sharing one kernel and one m3fs.
    DRAM data transfers are replaced by equal-time spinning (the
    paper's methodology), so the y-axis isolates software contention:
    requests queue at the kernel's and the service's ringbuffers.
    Reported is the average time per instance normalized to the
    1-instance time — flatter is better. *)

type point = {
  instances : int;
  normalized : float; (** avg cycles per instance / 1-instance cycles *)
}

type curve = {
  bench : string;
  points : point list;
}

val counts : int list
(** [1; 2; 4; 8; 16] *)

(** Per-instance benchmark body: runs inside the instance's VPE with
    the filesystem mounted; wraps its timed section in [measured]. *)
type body = instance:int -> M3.Env.t -> measured:((unit -> unit) -> unit) -> unit

(** [(pes_per_instance, seeds_of, body)] — one Fig. 6 benchmark. *)
type bench = int * (int -> M3.M3fs.seed list) * body

(** The Fig. 6 benchmark suite (cat+tr, tar, untar, find, sqlite) —
    also the raw material for the {!Fig6x} shard sweep. *)
val benches : unit -> (string * bench) list

(** [run_multi ~instances ~pes_per_instance ~seeds_of ~body ()] runs
    [instances] parallel copies on one kernel + [shards] m3fs
    instances (default 1 — the classic single-service setup,
    bit-identical to the pre-sharding harness) and returns the average
    measured cycles per instance. [observe], if given, receives the
    run's event bus (attach sinks there) after the {!Runner.observer}
    hook ({!Runner.bus}); [emit_queue] turns on the per-shard
    [fs.shard.queue] events. *)
val run_multi :
  ?shards:int ->
  ?observe:(M3_obs.Obs.t -> unit) ->
  ?emit_queue:bool ->
  instances:int ->
  pes_per_instance:int ->
  seeds_of:(int -> M3.M3fs.seed list) ->
  body:body ->
  unit ->
  int

(** [run ()] runs every benchmark at each of {!counts} instances. *)
val run : unit -> curve list

val print : Format.formatter -> curve list -> unit
