(** Multi-PE request-serving pools.

    A pool is three tiers of VPEs wired together with gates:

    {v
      client ──requests──► dispatcher ──batches──► worker 0..N-1
             ◄─admit/rej──            ◄─replies──
             ◄─completions─
    v}

    The {e client} (the VPE that called {!start}) generates load; the
    {e dispatcher} runs on its own PE, admits or rejects each request
    against a bounded queue, coalesces queued requests into batches of
    up to 8 per DTU message, and feeds the {e workers} — one
    VPE per dedicated PE each serving one batch at a time.

    Flow control is pure DTU credits: every channel is
    request/response, so ringbuffer slots are always freed by a reply
    and no tier can wedge another by falling behind (§4.5.4's gates
    end-to-end). Admission control answers immediately — an accepted
    request is replied to with [E_ok] before dispatch, a rejected one
    with {!M3.Errno.E_overload} — so clients learn the verdict in one
    round trip even when the pool is saturated.

    When a fault plan is attached to the fabric the dispatcher also
    arms a per-worker watchdog: a batch outstanding for longer than
    [watchdog] cycles declares the worker dead, re-enqueues the batch
    at the front of the queue, revokes the worker's capabilities and
    starts a replacement on a spare PE (the crashed PE was
    quarantined by the kernel), once per seat.
    Without a plan the watchdog code never runs and the pool costs
    nothing extra.

    An optional {!Gateway} config puts a front tier on the admission
    path: per-client token buckets shed over-budget clients with
    {!M3.Errno.E_throttled} before they can queue, and per-seat circuit
    breakers fast-fail with {!M3.Errno.E_unavailable} while every live
    seat is in cooldown after tripping on watchdog timeouts — a tripped
    seat keeps its worker and gate (slow is not provably dead) and is
    retested with a single half-open probe, replacing the worker only
    after [lethal] consecutive trips. Completion processing is
    deduplicated by sequence number, and late replies from retired
    generations are {e harvested} — their completions delivered, their
    front-requeued copies struck from the queue — so crash/trip
    recovery delivers exactly-once even though dispatch is
    at-least-once.

    Planned {e hot upgrade} ({!upgrade_worker}) reuses the same
    generation machinery as a first-class operation: the seat stops
    admitting, drains its in-flight batch, shuts the old generation
    down cleanly, boots a replacement on a fresh PE, and only then
    answers the upgrade request — zero failed client requests across
    the swap. *)

type config = {
  name : string;  (** pool name carried by serve.* events and metrics *)
  workers : int;
  min_workers : int;
      (** floor of the elastic range; equal to [workers] (the default)
          makes the pool static and the scaling code never runs. An
          elastic pool wakes a parked worker when the backlog exceeds
          2 per active worker and parks one idle for 50k cycles, at
          most one decision per 10k cycles. *)
  queue_limit : int;
      (** admission watermark: queued + in-flight + ringbuffer backlog
          at or above this rejects with [E_overload] *)
  fs_services : string list;
      (** m3fs shard set workers mount (for [Fs_stat]/[Fs_read]);
          empty = no filesystem *)
  files : int;  (** seed files ["/s0".."/s<files-1>"] the fs kinds address *)
  watchdog : int;
      (** cycles a batch may be outstanding before the worker is
          declared dead (armed only under a fault plan) *)
  gateway : Gateway.config option;
      (** front tier (buckets/breakers); [None] (the default) keeps
          the request path bit-identical to a pre-gateway pool *)
  app : (int -> int) option;
      (** host callback behind {!Wire.App} requests: receives the
          argument, returns cycles to charge. Side effects witness
          every execution (exactly-once regression tests). *)
  kv : (M3.Env.t -> seq:int -> int -> M3.Errno.t) option;
      (** handler behind {!Wire.Kv} requests, run in the worker VPE
          against its own mounts (see [M3_kv.Store.pool_exec]). The
          sequence number is the put idempotency token: a crash-retried
          put re-executes here and must deduplicate against durable
          state. [None] (the default) answers [E_inv_args] and keeps
          the request path bit-identical to a kv-less pool. *)
}

(** 8-deep batches above a 2-deep queue, effectively unbounded
    admission, 150k-cycle watchdog, one restart per seat.
    [min_workers] (default [workers], i.e. static) below [workers]
    makes the pool elastic: seats above the floor start parked via the
    kernel scheduler and are resumed/parked on the queue-depth
    signal. *)
val default_config :
  ?name:string -> ?min_workers:int -> workers:int -> unit -> config

(** Dispatcher-side counters, updated live during the run. *)
type pool_stats = {
  mutable p_admitted : int;
  mutable p_rejected : int;
  mutable p_completed : int;
  mutable p_failed : int;  (** admitted but worker answered non-[E_ok] *)
  mutable p_retried : int;  (** re-dispatched after a worker death *)
  mutable p_restarts : int;
  mutable p_restart_cycle : int;  (** cycle the last restart finished; -1 if none *)
  mutable p_batches : int;  (** worker messages sent *)
  mutable p_batched : int;  (** requests carried by those messages *)
  mutable p_max_depth : int;  (** deepest queue seen at admission *)
  mutable p_scale_ups : int;  (** parked workers resumed on load *)
  mutable p_scale_downs : int;  (** idle workers parked *)
  mutable p_throttled : int;  (** shed by per-client token buckets *)
  mutable p_unavail : int;  (** fast-failed while every breaker was open *)
  mutable p_deduped : int;
      (** duplicate completions suppressed / harvested from late
          replies of retired worker generations *)
  mutable p_trips : int;  (** breaker Closed/Half-open → Open transitions *)
  mutable p_probes : int;  (** half-open probes dispatched *)
  mutable p_closes : int;  (** probes that closed a breaker *)
  mutable p_upgrades : int;  (** planned worker swaps committed *)
  mutable p_retired_vpes : int list;
      (** VPE ids of cleanly retired worker generations (leak checks) *)
  p_upgrade_cycles : M3_sim.Stats.t;  (** swap latency per upgrade *)
  p_worker_service : M3_sim.Stats.t array;  (** service cycles per seat *)
  p_disp_latency : M3_sim.Stats.t;  (** admission → completion, dispatcher clock *)
}

(** Pool-level service-time distribution: the per-seat distributions
    combined with {!M3_sim.Stats.merge}. *)
val service_latency : pool_stats -> M3_sim.Stats.t

type t

val config : t -> config
val stats : t -> pool_stats

(** Upgrade commits this client has been notified of so far. *)
val upgrades_seen : t -> int

(** Per-client slice of a {!client_result}. *)
type per_client = {
  pc_sent : int;
  pc_completed : int;
  pc_throttled : int;
  pc_latency : M3_sim.Stats.t;
}

(** What the load-generating client observed. Latency is client clock:
    request send to completion notice, for requests that were admitted
    and completed. *)
type client_result = {
  cr_sent : int;
  cr_admitted : int;
  cr_rejected : int;  (** answered [E_overload] *)
  cr_throttled : int;  (** answered [E_throttled] (over rate budget) *)
  cr_unavail : int;  (** answered [E_unavailable] (breakers open) *)
  cr_completed : int;
  cr_failed : int;
  cr_latency : M3_sim.Stats.t;
  cr_first_send : int;
  cr_last_done : int;  (** cycle of the last completion (0 if none) *)
  cr_completions : (int * int) list;
      (** (completion cycle, latency) per completed request, in
          completion order — windowed-throughput analysis for the
          degraded-mode run *)
  cr_clients : (int * per_client) list;
      (** per-client breakdown sorted by client id — the hot-client
          isolation cell reads guarded SLAs from here *)
}

(** [start env cfg] creates the dispatcher VPE (which in turn creates
    the workers), exchanges the gates, and returns a handle the
    calling VPE drives. *)
val start : M3.Env.t -> config -> (t, M3.Errno.t) result

(** [run_open env t ~schedule] plays an open-loop schedule: request
    [i] is sent [schedule.(i).at] cycles after the run started (or as
    soon after as send-credit backpressure allows), then the client
    waits for every outstanding verdict and completion. Each entry of
    [actions] is [(index, act)]: [act] runs just before arrival
    [index] is sent — the upgrade-under-load cell fires
    {!upgrade_worker} and m3fs drains from here. *)
val run_open :
  ?actions:(int * (unit -> unit)) list ->
  M3.Env.t -> t -> schedule:Load.arrival array -> client_result

(** [upgrade_worker env t ~worker] asks the dispatcher for a planned
    hot upgrade of worker seat [worker]: fire-and-forget — the commit
    is observed later as an {!upgrades_seen} increment when the
    deferred reply arrives. *)
val upgrade_worker : M3.Env.t -> t -> worker:int -> (unit, M3.Errno.t) result

(** [run_closed env t ~clients ~total ~make] models [clients] virtual
    closed-loop users: at most [clients] requests are unresolved at
    any time, new ones (kinds from [make seq]) issue as completions
    arrive, [total] requests in all.

    [think] adds think time: after a user's request resolves it idles
    [think k] cycles (k counts resolutions in order — feed it a
    pre-drawn deterministic sample) before its next send. This is what
    moves the knee: a closed-loop population self-throttles as latency
    grows, where the open-loop schedule keeps arriving regardless.
    Omitting [think] keeps the pre-think code path byte-identical. *)
val run_closed :
  ?think:(int -> int) ->
  M3.Env.t -> t -> clients:int -> total:int -> make:(int -> Wire.kind) ->
  client_result

(** [stop env t] sends the drain marker, waits until the dispatcher
    has finished everything and shut the workers down, and reaps the
    dispatcher VPE. *)
val stop : M3.Env.t -> t -> (unit, M3.Errno.t) result
