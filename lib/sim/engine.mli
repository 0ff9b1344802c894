(** Discrete-event simulation engine: one event heap and one clock.

    Time is measured in clock cycles (all PEs and the NoC share one
    clock domain, as on the Tomahawk MPSoC). Events are thunks run at a
    given cycle; events scheduled for the same cycle run in FIFO
    order. *)

type t

(** [create ()] is a fresh engine at cycle 0. *)
val create : unit -> t

(** [id t] is a process-unique identifier, assigned at creation in
    increasing order. Registries that outlive a single simulation
    (e.g. the m3fs server tables) key their entries by it so that
    several engines in one process never alias each other's state. *)
val id : t -> int

(** [now t] is the current simulation time. *)
val now : t -> int

(** [schedule t ~delay f] runs [f] at cycle [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)
val schedule : t -> delay:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute cycle [time], which
    must not lie in the past. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** [run t] processes events until the queue is empty and returns the
    final simulation time. *)
val run : t -> int

(** [run_until t ~time] processes events with timestamps [<= time];
    afterwards the clock is at least [time]. *)
val run_until : t -> time:int -> unit

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [processed t] is the total number of events executed so far. *)
val processed : t -> int
