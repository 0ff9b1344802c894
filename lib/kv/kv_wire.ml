type op =
  | Get of { key : int }
  | Put of { key : int; len : int }

let op_name = function
  | Get _ -> "get"
  | Put _ -> "put"

let field_max = 1 lsl 24

let check name v =
  if v < 0 || v >= field_max then
    invalid_arg (Printf.sprintf "Kv_wire.pack: %s %d out of range" name v)

(* [ op:2 | key:24 | len:24 ] in the low 50 bits of the u64 request
   argument: a KV op rides the pool's 17-byte request slots and
   13-deep batches like any other kind. *)
let pack = function
  | Get { key } ->
    check "key" key;
    key lsl 24
  | Put { key; len } ->
    check "key" key;
    check "len" len;
    (1 lsl 48) lor (key lsl 24) lor len

let unpack arg =
  if arg < 0 || arg lsr 50 <> 0 then invalid_arg "Kv_wire.unpack: bad argument";
  let key = (arg lsr 24) land (field_max - 1) in
  match arg lsr 48 with
  | 0 -> Get { key }
  | 1 -> Put { key; len = arg land (field_max - 1) }
  | _ -> invalid_arg "Kv_wire.unpack: unknown op"

type resp =
  | P_value of { seq : int; value : string }
  | P_done
  | P_err of M3.Errno.t
