(** Deterministic fault plans.

    A plan is a seeded stream of fault decisions that the NoC fabric
    and DTUs consult at well-defined points: once per message transfer
    (drop or deliver) and once per DTU command (crash). All randomness
    comes from one {!M3_sim.Rng} seeded at [create] time, so the same
    seed over the same workload reproduces the exact same fault
    schedule and final cycle counts.

    Like the observability bus, the subsystem is zero-cost when
    disabled: {!none} answers [enabled = false] and every injection
    site is guarded on that flag, leaving the simulated cycle counts
    bit-identical to a build without the fault layer. *)

type t

(** The disabled plan: [enabled] is [false], [drop_now] and
    [crash_now] are always [false]. *)
val none : t

(** [create ?drop ?crashes ?max_retries ~seed ()] is an enabled plan.
    [drop] (default 0) is the probability a message transfer is
    silently dropped. [crashes] (default none) is an explicit crash
    schedule: [(pe, after)] kills [pe] on its [after]-th accepted DTU
    command; each PE crashes at most once. [max_retries] (default 4)
    bounds the DTU's retransmit attempts.
    @raise Invalid_argument on a negative probability or retry count,
    or a crash entry with a negative PE or [after < 1]. *)
val create :
  ?drop:float -> ?crashes:(int * int) list -> ?max_retries:int -> seed:int ->
  unit -> t

val enabled : t -> bool

(** [drop_now t ~src ~dst ~bytes] draws the fate of one message
    transfer from [src] to [dst]: [true] when the plan drops it. One
    uniform draw per call, whatever [drop] is, so the schedule is a
    pure function of the seed and the transfer order. *)
val drop_now : t -> src:int -> dst:int -> bytes:int -> bool

(** [crash_now t ~pe ~cmd] decides whether [pe] dies on its [cmd]-th
    accepted DTU command (1-based). Checked without consuming RNG
    draws, so a crash schedule does not perturb the drop stream. A
    fired crash is permanent and recorded; a PE crashes at most once. *)
val crash_now : t -> pe:int -> cmd:int -> bool

(** [can_crash t] is true when the plan schedules any crash at all —
    the kernel arms its heartbeat prober only then, keeping crash-free
    plans' cycle counts untouched. *)
val can_crash : t -> bool

(** [more_crashes_possible t] is true while a schedule entry has not
    fired yet. *)
val more_crashes_possible : t -> bool

(** [backoff ~attempt] is the retransmit delay in simulated cycles
    before retry number [attempt] (0-based): [64 * 2^attempt]. *)
val backoff : attempt:int -> int

val max_retries : t -> int

(** Counters of faults injected so far. *)

val drops_injected : t -> int

val crashes_injected : t -> int
