(** Cycle accounting by category.

    The paper's stacked-bar figures split execution time into
    application compute, OS overhead, and data-transfer time. Every
    simulated activity charges its cycles into an account under one of
    these categories; benchmarks read the totals back out. *)

type category =
  | App   (** application computation (incl. FFT work in Fig. 7) *)
  | Os    (** OS overhead: syscalls, marshalling, services, libm3 *)
  | Xfer  (** data transfers: DTU/NoC payloads, memcpy on Linux *)

type t

val create : unit -> t

(** [charge t cat n] adds [n >= 0] cycles under [cat]. *)
val charge : t -> category -> int -> unit

(** [get t cat] is the total charged under [cat]. *)
val get : t -> category -> int

(** [total t] is the sum over all categories. *)
val total : t -> int

(** [reset t] zeroes all counters. *)
val reset : t -> unit

(** [add ~into t] accumulates [t]'s counters into [into]. *)
val add : into:t -> t -> unit

(** [pp] prints ["app=.. os=.. xfer=.."]. *)
val pp : Format.formatter -> t -> unit
