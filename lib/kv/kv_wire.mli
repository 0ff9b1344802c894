(** Wire form of the KV tier: a whole operation packed into the u64
    argument of a {!M3_serve.Wire.Kv} request, so KV load rides the
    pool's 17-byte request slots, 13-deep batches and completion dedup
    unchanged. Keys are keyspace indices against the pre-agreed
    {!Kv_store} layout; values are generated deterministically from
    key and seq. *)

type op =
  | Get of { key : int }
  | Put of { key : int; len : int }
  | Delete of { key : int }
  | Scan of { bucket : int; cursor : int; limit : int }

val op_name : op -> string

(** [pack op] encodes [op] into the low 50 bits of an int:
    [op:2 | a:24 | b:24] (scan packs cursor and limit into [b]).
    @raise Invalid_argument when a field exceeds its width (keys and
    lengths 24 bits, cursors 16, limits 8). *)
val pack : op -> int

(** @raise Invalid_argument on a malformed argument. *)
val unpack : int -> op

(** What {!Kv_store.exec} answers; the pool folds it to an errno. *)
type resp =
  | P_value of { seq : int; value : string }
  | P_done
  | P_page of { keys : string list; next : int; more : bool }
      (** one scan page: [next] is the cursor to resume from, [more]
          whether resuming will yield anything *)
  | P_err of M3.Errno.t
