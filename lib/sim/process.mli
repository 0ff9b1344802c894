(** Cooperative simulation processes built on OCaml effect handlers.

    A process is a plain OCaml function that can consume simulated time
    ([wait]) and park itself until some other party resumes it
    ([suspend]). This lets OS and application code of the simulated
    platform read as straight-line code while the engine interleaves
    all processes deterministically. *)

type status =
  | Running
  | Finished
  | Failed of exn

type t

(** Raised inside a process that someone [kill]ed. *)
exception Killed

(** [spawn engine ~name f] schedules [f] to start running at the
    current cycle and returns its handle. Exceptions escaping [f] are
    recorded in the status (and logged), not re-raised into the
    engine. *)
val spawn : Engine.t -> name:string -> (unit -> unit) -> t

(** [name p] is the name given at spawn time. *)
val name : t -> string

(** [status p] is the current lifecycle state of [p]. *)
val status : t -> status

(** [kill p] makes [p] raise {!Killed} at its next wait/suspend point.
    A no-op on finished processes. *)
val kill : t -> unit

(** [wait n] — call from inside a process — advances the process's
    local time by [n >= 0] cycles. [wait 0] yields to other events at
    the current cycle. Other events run in between exactly as if the
    wait's end were one more queued event; when none would, the
    process runs on without leaving the engine's current step
    ({!Engine.advance}). *)
val wait : int -> unit

(** [suspend register] parks the calling process. [register] receives a
    one-shot [resume] function; calling [resume v] (from any other
    process or event) schedules the parked process to continue with
    value [v] at the cycle of the [resume] call. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** Write-once synchronization cell. *)
module Ivar : sig
  type 'a ivar

  val create : unit -> 'a ivar

  (** [fill iv v] stores [v] and wakes all readers.
      @raise Invalid_argument if already filled. *)
  val fill : 'a ivar -> 'a -> unit

  val is_filled : 'a ivar -> bool

  (** [peek iv] is the stored value, if any, without blocking. *)
  val peek : 'a ivar -> 'a option

  (** [read iv] returns the value, parking the caller until [fill]. *)
  val read : 'a ivar -> 'a
end

(** Queue of parked processes, woken one by one or all at once. *)
module Waitq : sig
  type 'a waitq

  (** Handle to one registration, used to deregister it (e.g. after a
      wait on several queues at once was satisfied by another queue). *)
  type 'a entry

  val create : unit -> 'a waitq

  (** [park q] parks the caller on [q]. *)
  val park : 'a waitq -> 'a

  (** [register q resume] adds an externally created resume function
      (from {!suspend}) to the queue — used to wait on several queues
      at once — and returns its entry so the caller can {!cancel} it
      once it is no longer needed. *)
  val register : 'a waitq -> ('a -> unit) -> 'a entry

  (** [cancel e] marks [e] dead: it no longer counts in {!waiters} and
      is skipped by {!signal}/{!broadcast}. Idempotent. *)
  val cancel : 'a entry -> unit

  (** [signal q v] wakes the oldest live parked process with [v];
      returns [false] when no live process was parked (cancelled or
      already-consumed entries are swept, never "woken"). *)
  val signal : 'a waitq -> 'a -> bool

  (** [broadcast q v] wakes every live parked process with [v]. *)
  val broadcast : 'a waitq -> 'a -> unit

  (** [waiters q] is the number of live parked processes. *)
  val waiters : 'a waitq -> int
end
