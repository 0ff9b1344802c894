type op =
  | Get of { key : int }
  | Put of { key : int; len : int }
  | Delete of { key : int }
  | Scan of { bucket : int; cursor : int; limit : int }

let op_name = function
  | Get _ -> "get"
  | Put _ -> "put"
  | Delete _ -> "delete"
  | Scan _ -> "scan"

let field_max = 1 lsl 24
let cursor_max = 1 lsl 16
let limit_max = 1 lsl 8

let check name v bound =
  if v < 0 || v >= bound then
    invalid_arg (Printf.sprintf "Kv_wire.pack: %s %d out of range" name v)

(* [ op:2 | a:24 | b:24 ] in the low 50 bits of the u64 request
   argument: a KV op rides the pool's 17-byte request slots and
   13-deep batches like any other kind. *)
let pack = function
  | Get { key } ->
    check "key" key field_max;
    key lsl 24
  | Put { key; len } ->
    check "key" key field_max;
    check "len" len field_max;
    (1 lsl 48) lor (key lsl 24) lor len
  | Delete { key } ->
    check "key" key field_max;
    (2 lsl 48) lor (key lsl 24)
  | Scan { bucket; cursor; limit } ->
    check "bucket" bucket field_max;
    check "cursor" cursor cursor_max;
    check "limit" limit limit_max;
    (3 lsl 48) lor (bucket lsl 24) lor (cursor lsl 8) lor limit

let unpack arg =
  if arg < 0 || arg lsr 50 <> 0 then invalid_arg "Kv_wire.unpack: bad argument";
  let a = (arg lsr 24) land (field_max - 1) in
  let b = arg land (field_max - 1) in
  match arg lsr 48 with
  | 0 -> Get { key = a }
  | 1 -> Put { key = a; len = b }
  | 2 -> Delete { key = a }
  | 3 -> Scan { bucket = a; cursor = b lsr 8; limit = b land 0xff }
  | _ -> assert false

type resp =
  | P_value of { seq : int; value : string }
  | P_done
  | P_page of { keys : string list; next : int; more : bool }
  | P_err of M3.Errno.t
