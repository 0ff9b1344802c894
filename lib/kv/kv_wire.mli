(** Wire form of the KV tier: a whole operation packed into the u64
    argument of a {!M3_serve.Wire.Kv} request, so KV load rides the
    pool's 17-byte request slots, 13-deep batches and completion dedup
    unchanged. Keys are keyspace indices against the pre-agreed
    {!Kv_store} layout; values are generated deterministically from
    key and seq. *)

type op =
  | Get of { key : int }
  | Put of { key : int; len : int }

val op_name : op -> string

(** [pack op] encodes [op] into the low 50 bits of an int:
    [op:2 | key:24 | len:24].
    @raise Invalid_argument when a key or length exceeds 24 bits. *)
val pack : op -> int

(** @raise Invalid_argument on a malformed argument, including the op
    codes 2 and 3 that no operation uses. *)
val unpack : int -> op

(** What {!Kv_store.exec} answers; the pool folds it to an errno. *)
type resp =
  | P_value of { seq : int; value : string }
  | P_done
  | P_err of M3.Errno.t
