(** NoC fabric with congestion, in one of two switching modes.

    [`Packet] (default): transfers are split into packets of at most
    [max_packet] bytes. Each packet crosses the XY route of the mesh;
    every directed link serializes at [bytes_per_cycle] and a packet
    pays [hop_latency] cycles per router it traverses. Per-link
    occupancy times model head-of-line blocking: a packet cannot enter
    a link before the previous packet using that link has left it.
    Links are held one at a time, in path order.

    [`Wormhole]: the mode the real Tomahawk NoC uses. A packet is a
    worm of flits: the head acquires the links of its route hop by
    hop, and every link stays held until the tail has drained — so a
    blocked worm keeps upstream links busy (tree saturation), which
    the packet model does not capture. Congestion-free latency is
    identical in both modes; an ablation compares them under load.

    Both modes keep the two first-order effects of the Tomahawk NoC —
    8 bytes/cycle serialization and per-hop latency — exact (see
    DESIGN.md). *)

type t

type mode =
  [ `Packet
  | `Wormhole
  ]

type config = {
  hop_latency : int;      (** cycles per router traversal *)
  bytes_per_cycle : int;  (** link bandwidth, 8 on Tomahawk *)
  max_packet : int;       (** payload bytes per packet *)
  mode : mode;
}

val default_config : config

(** [create engine topology ~config] builds the fabric. *)
val create : M3_sim.Engine.t -> Topology.t -> config:config -> t

val topology : t -> Topology.t
val engine : t -> M3_sim.Engine.t
val config : t -> config

(** The fabric carries the system-wide observability bus: every layer
    holds a fabric reference, so this is where instrumented code finds
    it. Defaults to [M3_obs.Obs.null] (tracing off, near-zero cost). *)
val obs : t -> M3_obs.Obs.t

val set_obs : t -> M3_obs.Obs.t -> unit

(** The fabric also carries the system-wide fault plan (same rendezvous
    pattern as the obs bus). Defaults to [M3_fault.Plan.none]
    (injection off, zero cost). *)
val faults : t -> M3_fault.Plan.t

val set_faults : t -> M3_fault.Plan.t -> unit

(** [transfer t ~src ~dst ~bytes ~on_deliver] injects [bytes] payload
    (plus per-packet header overhead) at node [src] for node [dst] and
    calls [on_deliver ()] at the cycle the last byte arrives at [dst].
    When [src = dst], delivery is a local operation costing one cycle.
    [?msg] is an observability correlation id stamped on the emitted
    [Noc_xfer]/[Noc_link] events (0 = uncorrelated); it never affects
    timing.

    [?on_drop] opts the transfer into fault injection: when a plan is
    attached ({!set_faults}) and it drops this transfer, [on_drop] is
    called at the (would-be) arrival cycle {e instead of} [on_deliver].
    Transfers without [on_drop] — and all transfers when no plan is
    attached — follow the exact unfaulted path.
    @raise Invalid_argument on a negative byte count or a node out of
    the topology's range. *)
val transfer :
  ?msg:int -> ?on_drop:(unit -> unit) -> t -> src:int -> dst:int ->
  bytes:int -> on_deliver:(unit -> unit) -> unit

(** [pure_latency t ~src ~dst ~bytes] is the congestion-free transfer
    time in cycles — useful for calibration and tests.
    @raise Invalid_argument on a node out of the topology's range. *)
val pure_latency : t -> src:int -> dst:int -> bytes:int -> int

(** Cumulative statistics. *)

val packets_sent : t -> int
val bytes_sent : t -> int

(** [link_busy_cycles t ~src ~dst] is the total busy time of the
    directed link between two adjacent nodes. *)
val link_busy_cycles : t -> src:int -> dst:int -> int
