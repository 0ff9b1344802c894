(** YCSB-style KV load: weighted get/put mixes over a Zipf-skewed
    keyspace, layered on {!M3_serve.Load}.

    Key assignment follows the PR 8 tail convention one level up:
    {!op_mix} emits placeholder ops (key 0), so a schedule's arrival
    times, client ids and read/write pattern are fully drawn before
    {!assign_keys} stamps keys from the tail of the Rng stream — one
    draw per get or put. Swapping the key distribution (uniform ↔
    Zipf) therefore never perturbs the schedule shape, and schedules
    drawn before key assignment are byte-identical to runs without
    it. *)

(** A key-index distribution: one draw per keyed operation. *)
type sampler = M3_sim.Rng.t -> int

(** [zipf_keys ~n ~theta] — key 0 hottest, [p(i) ~ 1/(i+1)^theta];
    same inverse-CDF construction as {!M3_serve.Load.zipf_clients}.
    @raise Invalid_argument on [n < 1] or negative [theta]. *)
val zipf_keys : n:int -> theta:float -> sampler

val uniform_keys : n:int -> sampler

(** [op_mix ~reads ~writes] is the weighted get/put mix (placeholder
    key 0; zero-weight sides are dropped).
    @raise Invalid_argument when both weights are 0 or either is
    negative. *)
val op_mix : reads:int -> writes:int -> M3_serve.Load.mix

val read_heavy : M3_serve.Load.mix  (** 90% get / 10% put *)

(** [assign_keys ~rng ~sample schedule] rewrites every KV op's key
    with one [sample] draw, in schedule order; non-KV requests pass
    through untouched (and burn no draw). Returns a fresh array. *)
val assign_keys :
  rng:M3_sim.Rng.t ->
  sample:sampler ->
  M3_serve.Load.arrival array ->
  M3_serve.Load.arrival array

(** [closed_kinds ~rng ~sample ~mix ~count] pre-draws [count] kinds
    (then their keys, from the tail) and returns the [make] lookup
    {!M3_serve.Pool.run_closed} expects: request [seq] issues kind
    [seq mod count].
    @raise Invalid_argument on a bad mix or [count < 1]. *)
val closed_kinds :
  rng:M3_sim.Rng.t ->
  sample:sampler ->
  mix:M3_serve.Load.mix ->
  count:int ->
  int ->
  M3_serve.Wire.kind
