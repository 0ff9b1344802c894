(** The observability event bus.

    A bus stamps events with the current simulation cycle and fans them
    out to attached sinks. Components hold a bus reference (usually via
    the NoC fabric, which every layer can reach) that defaults to
    {!null}; until a sink is attached the bus is disabled and emission
    sites reduce to one boolean test — tracing off costs nothing and
    never perturbs simulated time.

    The contract every instrumentation site follows:
    {[
      if Obs.enabled obs then Obs.emit obs (Event.Foo { ... })
    ]}
    so that the event payload is not even allocated when tracing is
    off. Emission never consumes simulated time. *)

type sink = {
  sink_name : string;
  sink_emit : at:int -> Event.t -> unit;
}

type t

(** The shared disabled bus — the default of every component.
    Attaching a sink to it raises [Invalid_argument] (it would silently
    enable tracing everywhere); create a real bus instead. *)
val null : t

(** [create ~clock] is a bus stamping events with [clock ()]. *)
val create : clock:(unit -> int) -> t

(** [of_engine e] stamps events with [Engine.now e]. *)
val of_engine : M3_sim.Engine.t -> t

(** [enabled t] is [true] iff at least one sink is attached. Emission
    sites test this before building an event. *)
val enabled : t -> bool

val attach : t -> sink -> unit

(** [next_msg t] draws a fresh non-zero message-correlation id, or 0
    when the bus is disabled (ids are only meaningful inside events). *)
val next_msg : t -> int

(** [emit t ev] delivers [ev] to all sinks stamped with the current
    cycle; a no-op when disabled. *)
val emit : t -> Event.t -> unit

(** [emit_at t ~at ev] delivers with an explicit timestamp — used by
    the fabric, which computes link schedules ahead of [now]. *)
val emit_at : t -> at:int -> Event.t -> unit

(** In-memory sink for tests: records [(cycle, event)] in emission
    order. *)
module Memory : sig
  type mem

  val create : unit -> mem
  val sink : mem -> sink
  val count : mem -> int
  val events : mem -> (int * Event.t) list

  (** Canonical one-event-per-line rendering; the determinism test
      compares two runs byte-for-byte. *)
  val to_string : mem -> string
end
