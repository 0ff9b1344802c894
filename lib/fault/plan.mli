(** Deterministic fault plans.

    A plan is a seeded stream of fault decisions that the NoC fabric
    and DTUs consult at well-defined points: once per message transfer
    (drop / corrupt / deliver) and once per DTU command (stall). All
    randomness comes from one {!M3_sim.Rng} seeded at [create] time, so
    the same seed over the same workload reproduces the exact same
    fault schedule and final cycle counts.

    Like the observability bus, the subsystem is zero-cost when
    disabled: {!none} answers [enabled = false] and every injection
    site is guarded on that flag, leaving the simulated cycle counts
    bit-identical to a build without the fault layer. *)

type t

type config = {
  drop_prob : float;  (** probability a message transfer is silently dropped *)
  link_fault_prob : float;
      (** probability of a link transient fault (a second, independently
          drawn drop cause — modelled as a lost packet) *)
  corrupt_prob : float;  (** probability a delivered payload is corrupted *)
  stall_prob : float;  (** probability a DTU command stalls its PE *)
  stall_cycles : int;  (** maximum extra cycles of an injected stall *)
  crash_prob : float;
      (** probability a DTU command permanently kills its PE (core and
          DTU stop answering — unlike [stall], a crash never recovers) *)
  crashes : (int * int) list;
      (** explicit crash schedule: [(pe, after)] kills [pe] on its
          [after]-th accepted DTU command. Checked without consuming
          RNG draws, so adding an entry does not perturb the
          drop/stall stream. Each PE crashes at most once. *)
  max_retries : int;  (** retransmit attempts before the DTU gives up *)
  retry_base : int;  (** backoff is [retry_base * 2^attempt] cycles *)
}

(** Drops only, no corruption or stalls: 5% drop, 1% link fault,
    4 retries with a 64-cycle base backoff. *)
val default_config : config

(** The disabled plan: [enabled] is [false], [xfer_outcome] always
    delivers, [stall] is always 0. *)
val none : t

val create : ?config:config -> seed:int -> unit -> t

val enabled : t -> bool

val config : t -> config

(** Fate of one message transfer. *)
type outcome =
  | Deliver
  | Drop of string  (** reason, e.g. ["drop"] or ["link fault"] *)
  | Corrupt

(** [xfer_outcome t ~src ~dst ~bytes] draws the fate of one message
    transfer from [src] to [dst]. Counts injected faults. *)
val xfer_outcome : t -> src:int -> dst:int -> bytes:int -> outcome

(** [stall t ~pe] draws an extra stall duration (0 when no stall) for
    one DTU command on [pe]. *)
val stall : t -> pe:int -> int

(** [crash_now t ~pe ~cmd] decides whether [pe] dies on its [cmd]-th
    accepted DTU command (1-based). A fired crash is permanent and
    recorded; a PE crashes at most once. *)
val crash_now : t -> pe:int -> cmd:int -> bool

(** [can_crash t] is true when the plan is enabled and configured with
    any crash fault at all — the kernel arms its heartbeat prober only
    then, keeping crash-free plans' cycle counts untouched. *)
val can_crash : t -> bool

(** [more_crashes_possible t] is true while another crash could still
    fire (probabilistic crashes, or unfired schedule entries). *)
val more_crashes_possible : t -> bool

(** [corrupt_bytes t buf] flips one byte of [buf] in place (no-op on an
    empty buffer). *)
val corrupt_bytes : t -> Bytes.t -> unit

(** [backoff t ~attempt] is the retransmit delay in simulated cycles
    before retry number [attempt] (0-based): [retry_base * 2^attempt]. *)
val backoff : t -> attempt:int -> int

val max_retries : t -> int

(** Counters of faults injected so far. *)

val drops_injected : t -> int

val corrupts_injected : t -> int

val crashes_injected : t -> int
