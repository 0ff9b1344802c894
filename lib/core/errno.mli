(** Error codes shared by syscalls, services and libm3. *)

type t =
  | E_ok
  | E_inv_args       (** malformed request *)
  | E_no_sel         (** capability selector empty or occupied *)
  | E_no_perm        (** operation not allowed by the capability *)
  | E_no_pe          (** no free PE of the requested type *)
  | E_no_space       (** out of memory / blocks / slots *)
  | E_not_found      (** path, service or object does not exist *)
  | E_exists         (** path already exists *)
  | E_no_ep          (** no free endpoint *)
  | E_is_dir         (** expected a file, found a directory *)
  | E_not_dir        (** expected a directory *)
  | E_not_empty      (** directory not empty *)
  | E_eof            (** end of file / pipe closed *)
  | E_vpe_gone       (** VPE already dead *)
  | E_no_credits     (** send gate out of credits (flow control) *)
  | E_timeout        (** watchdog expired on a round-trip *)
  | E_vpe_dead       (** VPE crashed and was aborted by the kernel *)
  | E_pipe_broken    (** pipe peer crashed with data still in flight *)
  | E_overload       (** request rejected by admission control.  A service
                         whose bounded queue is past its watermark answers
                         the request immediately with this code instead of
                         enqueueing it; the client must treat the request
                         as never executed and either back off and resend
                         or surface the rejection.  Rejects are cheap by
                         design — the reply carries no payload beyond the
                         sequence number, so overload answers cost one
                         message each way. *)
  | E_throttled      (** request shed by the gateway's per-client token
                         bucket.  Unlike {!E_overload} (global queue
                         depth) this is a verdict on one client's rate:
                         the service is healthy, the caller is over its
                         budget and must slow down.  The request was
                         never enqueued. *)
  | E_unavailable    (** request fast-failed by an open circuit breaker.
                         The backend recently exceeded its error/timeout
                         budget; the gateway answers immediately instead
                         of burning a per-request watchdog wait.  The
                         request was never enqueued; retry after the
                         breaker's half-open probe succeeds. *)
  | E_kv_too_large   (** KV put whose value exceeds the store's
                         per-value budget.  The put was not applied —
                         the store's value files are sized for
                         single-extent writes so a put is atomic in
                         the crash model, and an oversized value would
                         break that guarantee silently. *)
  | E_dtu of string  (** unexpected hardware-level failure *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Numeric encoding used on the wire. [E_dtu] encodes as a generic
    hardware error. *)
val to_int : t -> int

val of_int : int -> t

(** Raised by libm3 convenience wrappers that do not return [result]. *)
exception Error of t

(** [ok_exn r] unwraps [Ok] or raises {!Error}. *)
val ok_exn : (('a, t) result) -> 'a
