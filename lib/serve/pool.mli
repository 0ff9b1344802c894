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

    Every decision the dispatcher makes — batching, watchdogs,
    gateway buckets and breakers, exactly-once harvest, elastic
    scaling, hot upgrade — is {!Dispatch}'s. *)

type config = {
  name : string;  (** pool name carried by serve.* events and metrics *)
  workers : int;
  min_workers : int;
      (** floor of the elastic range; equal to [workers] (the default)
          makes the pool static. Below it, seats above the floor start
          parked and {!Dispatch} wakes and parks them on load. *)
  queue_limit : int;
      (** admission watermark: queued + in-flight + ringbuffer backlog
          at or above this rejects with [E_overload] *)
  fs_services : string list;
      (** m3fs shard set workers mount (for [Fs_stat]/[Fs_read]);
          empty = no filesystem *)
  files : int;  (** seed files ["/s0".."/s<files-1>"] the fs kinds address *)
  watchdog : int;
      (** cycles a batch may be outstanding before the worker is
          given up on (armed under a fault plan or with breakers) *)
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

(** Effectively unbounded admission, a 150k-cycle watchdog, no
    gateway, no filesystem; static unless [min_workers] < [workers]. *)
val default_config :
  ?name:string -> ?min_workers:int -> workers:int -> unit -> config

(** Dispatcher-side counters, updated live during the run. *)
include module type of Counters

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
    calling VPE drives; an error if a worker cannot boot. *)
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
