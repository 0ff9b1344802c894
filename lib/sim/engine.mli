(** Discrete-event simulation engine: one event heap and one clock.

    Time is measured in clock cycles (all PEs and the NoC share one
    clock domain, as on the Tomahawk MPSoC). Events are thunks run at a
    given cycle; events scheduled for the same cycle run in FIFO
    order. *)

type t

(** [create ()] is a fresh engine at cycle 0. *)
val create : unit -> t

(** Host-side state that belongs to one simulation (the program
    registry, the m3fs and libm3 side tables). Each owner adds its own
    constructor; the engine holds the values and drops them with
    itself, so nothing one simulation registers outlives it or is seen
    by another. *)
type local = ..

(** [local t find create] is [t]'s state of one kind: the first value
    in [t]'s slot that [find] accepts, or else [create ()], which is
    stored there first. [find] must accept what [create] makes. *)
val local : t -> (local -> 'a option) -> (unit -> local) -> 'a

(** [now t] is the current simulation time. *)
val now : t -> int

(** [schedule t ~delay f] runs [f] at cycle [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)
val schedule : t -> delay:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute cycle [time], which
    must not lie in the past. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** [advance t ~delay] takes, in place, the step of an event at cycle
    [now t + delay] when that event would be the next one the current
    run pops: only while [t] runs, when [now t + delay] is within the
    run's limit ([time] under {!run_until}, none under {!run}), and
    when every queued event lies strictly later (one queued at the
    same cycle runs first). It then moves the clock to
    [now t + delay], counts one event in {!processed} and returns
    [true]; otherwise it changes nothing and returns [false], and the
    caller schedules the event. {!Process.wait} passes each wait
    through here, so a wait that no queued event precedes costs no
    heap operation and no process switch.
    @raise Invalid_argument if [delay < 0]. *)
val advance : t -> delay:int -> bool

(** [run t] processes events until the queue is empty and returns the
    final simulation time. *)
val run : t -> int

(** [run_until t ~time] processes events with timestamps [<= time];
    afterwards the clock is at least [time]. *)
val run_until : t -> time:int -> unit

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [processed t] is the total number of events executed so far,
    counting each step {!advance} took in place as one event. *)
val processed : t -> int
