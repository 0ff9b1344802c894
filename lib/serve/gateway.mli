(** Gateway tier for serving pools: per-client token buckets and
    per-backend circuit breakers.

    Both are pure state machines driven by the simulated clock.  The
    dispatcher core ({!Dispatch}) owns the instances, consults them on
    every admission, feeds back request outcomes, and emits the gateway
    observability events ({!M3_obs.Event.Gw_throttle}, [Gw_break]) for
    the transitions these functions report.  Nothing here touches
    gates, VPEs or the kernel, which keeps the tier zero-cost when a
    pool runs without a gateway config: no state is allocated, no extra
    branches fire on the message path, and seeded runs stay
    byte-identical to pre-gateway builds.

    Determinism: every decision is a function of the configured
    constants, the caller-supplied cycle counts and the order of calls.
    Token refill is integer and remainder-preserving; breaker windows
    compare cycle numbers only. *)

(** {1 Token buckets} *)

type bucket_config = { refill : int; burst : int }
(** [refill] is the cost of one token in cycles (a client earns one
    request per [refill] cycles, sustained); [burst] bounds how many
    unused tokens accumulate. *)

val bucket : ?burst:int -> refill:int -> unit -> bucket_config
(** [burst] defaults to 8.  Raises [Invalid_argument] unless both are
    at least 1. *)

type buckets
(** Per-client bucket table.  Clients appear lazily on first sight with
    a full [burst] allowance. *)

val buckets : bucket_config -> buckets

val take : buckets -> client:int -> now:int -> bool
(** [take t ~client ~now] refills [client]'s bucket up to [now] and
    spends one token.  [false] means the client is over budget and the
    request must be answered [E_throttled] without being enqueued. *)

(** {1 Circuit breakers} *)

type breaker_config = { cooldown : int }
(** [cooldown] is the Open dwell before a half-open probe, in cycles. *)

val breaker : cooldown:int -> unit -> breaker_config
(** Raises [Invalid_argument] unless [cooldown] is at least 1.  Two
    errors within 200,000 cycles open a closed breaker. *)

type phase = Closed | Open | Half_open

val phase_name : phase -> string
(** ["close"], ["trip"] and ["probe"] — the suffixes of the
    [gw.break.*] event names. *)

type breaker_state
(** One breaker per backend seat. *)

val breaker_state : breaker_config -> breaker_state
(** Starts [Closed] with an empty error window. *)

val reset : breaker_state -> unit
(** Back to the state {!breaker_state} starts in. *)

type verdict = Allow | Probe | Deny

val would_allow : breaker_state -> now:int -> bool
(** [true] unless the breaker is [Open] with its cooldown still
    running.  [Half_open] counts as allowed — requests may queue behind
    the in-flight probe — so the admission path can test whole-pool
    availability. *)

val admit : breaker_state -> now:int -> verdict
(** Dispatch check; never transitions.  [Closed] allows; [Open] denies
    until [cooldown] has elapsed, then returns [Probe]: the caller may
    send a single probe request and reports it with {!on_probe};
    [Half_open] denies while that probe is in flight. *)

val on_probe : breaker_state -> now:int -> unit
(** The probe that {!admit} allowed was sent: [Open] becomes
    [Half_open].  A caller with nothing to send leaves the breaker
    [Open], so a later request can still probe. *)

val on_error : breaker_state -> now:int -> bool
(** Record a failed request (error reply, send failure).  Returns
    [true] if this tripped the breaker (Closed with two errors inside
    200,000 cycles, or a failed half-open probe). *)

val on_timeout : breaker_state -> now:int -> bool
(** Record a watchdog expiry.  Trips immediately from [Closed] or
    [Half_open] — each timeout costs a full watchdog wait, so one is
    conclusive.  Returns [true] on a trip. *)

val on_success : breaker_state -> bool
(** Record a successful completion.  Returns [true] iff this closed a
    half-open breaker (probe succeeded). *)

(** {1 Gateway config} *)

type config = {
  g_bucket : bucket_config option;
  g_breaker : breaker_config option;
}

val config : ?bucket:bucket_config -> ?breaker:breaker_config -> unit -> config
