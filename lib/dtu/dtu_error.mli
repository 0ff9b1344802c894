(** Errors reported by DTU commands to the software on the same PE. *)

type t =
  | Invalid_ep        (** endpoint not configured for this operation *)
  | No_credits        (** send endpoint has no credits left *)
  | Msg_too_big       (** payload exceeds the channel's slot size *)
  | No_perm           (** memory endpoint lacks the required right *)
  | Out_of_bounds     (** access outside the memory endpoint's region *)
  | No_reply_cap      (** reply requested on a message that forbids it *)
  | Not_privileged    (** external command from an unprivileged DTU *)
  | Abort             (** command aborted (endpoint reconfigured) *)
  | Suspended         (** destination VPE parked; non-blocking send refused *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Raised by blocking waits that cannot return an error value, e.g.
    {!Dtu.wait} when the kernel invalidates the endpoint under the
    waiter. *)
exception Error of t
