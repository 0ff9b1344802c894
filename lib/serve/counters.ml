(** Dispatcher-side counters, updated live during the run: {!Dispatch}
    keeps them and {!Pool} re-exports them as [Pool.pool_stats]. *)

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
