(** The serving-pool dispatcher's state and every decision it makes.

    {!Pool} runs this core in the dispatcher VPE behind a thin driver
    that creates the gates and workers, decodes messages into
    {!request} and {!reply} calls, and implements the effects record
    {!fx}, the core's only way to the simulator. Effects happen in the
    dispatcher's order, and later decisions read [fx.now] after them.
    A test substitutes the record and needs no simulation.

    Under a fault plan a batch outstanding for more than [watchdog]
    cycles declares its worker dead: the batch goes back to the head of
    the queue and the worker is replaced on a fresh PE, once per seat.
    With {!Gateway} breakers the expiry trips the seat's breaker
    instead: the worker stays (slow is not provably dead) and is
    retested by a single half-open probe; while every live seat cools
    down, requests fast-fail with [E_unavailable]. Token buckets shed
    over-budget clients with [E_throttled].

    Every recovery bumps the seat's generation. Completions are
    deduplicated by sequence number, and late replies of retired
    generations are harvested — their completions delivered, their
    requeued copies struck — so delivery is exactly once although
    dispatch is at least once.

    An elastic pool parks idle seats and wakes them on backlog. A
    planned upgrade stops feeding one seat, drains its batch, shuts the
    worker down, boots the next generation, and only then answers: no
    client request fails across the swap. *)

(** The counters, updated live during the run. *)
type stats = Counters.pool_stats

val make_stats : workers:int -> stats

(** Elastic pools decide at most once per this many cycles. *)
val scale_cooldown : int

(** What the core asks of its driver; [seat] is a worker seat. *)
type fx = {
  now : unit -> int;
  backlog : unit -> int;  (** requests still unread in the request inbox *)
  reply : slot:int -> err:M3.Errno.t -> seq:int -> unit;  (** to request slot [slot] *)
  send_batch : seat:int -> gen:int -> Wire.request list -> bool;
      (** [false] if the worker is gone or owes replies for both credits *)
  notify : Wire.done_item list -> bool;  (** [false] when out of notice credits *)
  respawn : seat:int -> boot:bool -> int option;
      (** retire the worker (revoke the gate of one [shutdown] reaped,
          kill any other; the first call has none) and, if [boot],
          start the next generation: its PE, [None] if that failed *)
  shutdown : seat:int -> gen:int -> unit;  (** send the empty batch; reap the worker *)
  suspend : seat:int -> settle:bool -> bool;  (** [settle]: block until parked *)
  resume : seat:int -> bool;
  emit : M3_obs.Event.t -> unit;
}

type t

(** [create ... stats fx] boots every seat through [fx.respawn] and
    parks the seats above [min_workers]. [name] and [pe] label events;
    [faults] says a fault plan is attached, which arms the watchdogs.
    Raises [Failure] if a seat's first worker does not boot: the
    dispatcher dies before it publishes its request gate, so
    {!Pool.start} fails instead of opening a smaller pool. *)
val create :
  name:string -> pe:int -> workers:int -> min_workers:int -> queue_limit:int ->
  watchdog:int -> gateway:Gateway.config option -> faults:bool -> stats -> fx -> t

(** A client message from request slot [slot]. *)
val request : t -> slot:int -> Wire.client_msg -> unit

(** A worker reply echoing generation [gen]. *)
val reply : t -> seat:int -> gen:int -> Wire.done_item list -> unit

type inbox = Requests | Replies | Acks

type outcome =
  | Finished  (** drained, and the workers are shut down *)
  | Again  (** something moved: run another round *)
  | Poll  (** idle, but a decision runs on the clock: wait a quantum *)
  | Park  (** idle until the next message *)

(** One round: drain the inboxes in {!inbox} order ([fetch inbox]
    hands one waiting message to its handler, [false] when none
    waits), then watchdogs, scaling, the upgrade, dispatch, completion
    notices and the drain. *)
val round : t -> fetch:(inbox -> bool) -> outcome

(** {1 Views} *)

type state =
  | Idle
  | Busy of { batch : (Wire.request * int) list; since : int }
      (** in flight, each request with its admission cycle *)
  | Parked
  | Dead

val inflight : t -> int
val state : t -> int -> state

(** The seqs waiting for dispatch, in order. *)
val queued : t -> int list
