module W = M3.Msgbuf.W
module R = M3.Msgbuf.R
module Errno = M3.Errno

type kind =
  | Echo of int
  | Fs_stat of int
  | Fs_read of int
  | Fft of int
  | App of int
  | Kv of int
      (* KV-store operation, the whole op packed into the u64 argument
         (see [M3_kv.Kv_wire.pack]) so it rides the same 17-byte
         request slots and 13-deep batches as every other kind *)

type request = { seq : int; rk : kind }
type done_item = { d_seq : int; d_err : Errno.t; d_cycles : int }

let kind_name = function
  | Echo _ -> "echo"
  | Fs_stat _ -> "fs_stat"
  | Fs_read _ -> "fs_read"
  | Fft _ -> "fft"
  | App _ -> "app"
  | Kv _ -> "kv"

let tag_of = function
  | Echo _ -> 0
  | Fs_stat _ -> 1
  | Fs_read _ -> 2
  | Fft _ -> 3
  | App _ -> 4
  | Kv _ -> 5

let arg_of = function
  | Echo n | Fs_stat n | Fs_read n | Fft n | App n | Kv n -> n

let kind_of ~tag ~arg =
  match tag with
  | 0 -> Echo arg
  | 1 -> Fs_stat arg
  | 2 -> Fs_read arg
  | 3 -> Fft arg
  | 4 -> App arg
  | 5 -> Kv arg
  | _ -> invalid_arg "Serve wire: unknown request kind"

let drain_tag = 255
let drain_seq = 0xFFFF_FFFF
let upgrade_tag = 254
let upgrade_seq = 0xFFFF_FFFE

let put_request w r =
  W.u64 w r.seq;
  W.u8 w (tag_of r.rk);
  W.u64 w (arg_of r.rk)

let get_request r =
  let seq = R.u64 r in
  let tag = R.u8 r in
  let arg = R.u64 r in
  { seq; rk = kind_of ~tag ~arg }

(* [List.init]'s evaluation order is unspecified; reads from the
   cursor must happen strictly in sequence. *)
let read_seq count get r =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (get r :: acc) in
  go count []

type client_msg =
  | Request of { client : int; req : request }
  | Drain
  | Upgrade of int

(* Client messages carry a trailing u64 client id (25 bytes, still
   inside the order-6 request slots).  Batches do NOT — 13 requests at
   26 bytes each would overflow the order-8 batch slots — so client
   identity lives only between client and dispatcher. *)
let encode_request ?(client = 0) req =
  let w = W.create () in
  put_request w req;
  W.u64 w client;
  W.contents w

(* Control messages share the request layout: a reserved seq and tag,
   one argument, and client id 0. *)
let control ~seq ~tag arg =
  let w = W.create () in
  W.u64 w seq;
  W.u8 w tag;
  W.u64 w arg;
  W.u64 w 0;
  W.contents w

let encode_drain () = control ~seq:drain_seq ~tag:drain_tag 0
let encode_upgrade ~worker = control ~seq:upgrade_seq ~tag:upgrade_tag worker

let decode_client_msg payload =
  let r = R.of_bytes payload in
  let seq = R.u64 r in
  let tag = R.u8 r in
  let arg = R.u64 r in
  let client = R.u64 r in
  if tag = drain_tag then Drain
  else if tag = upgrade_tag then Upgrade arg
  else Request { client; req = { seq; rk = kind_of ~tag ~arg } }

let encode_admit ~err ~seq =
  let w = W.create () in
  W.u8 w (Errno.to_int err);
  W.u64 w seq;
  W.contents w

let decode_admit payload =
  let r = R.of_bytes payload in
  let err = Errno.of_int (R.u8 r) in
  let seq = R.u64 r in
  (err, seq)

(* One byte on the wire. Wrapping cannot alias a live batch: a worker
   holds at most two batch credits, so at most two of its batches are
   outstanding, and a send past them fails with [E_no_credits], which
   replaces the worker. *)
let next_gen g = (g + 1) land 0xff

let encode_batch ~gen items =
  let w = W.create () in
  W.u8 w gen;
  W.u8 w (List.length items);
  List.iter (put_request w) items;
  W.contents w

let decode_batch payload =
  let r = R.of_bytes payload in
  let gen = R.u8 r in
  let count = R.u8 r in
  (gen, read_seq count get_request r)

let put_done w d =
  W.u64 w d.d_seq;
  W.u8 w (Errno.to_int d.d_err);
  W.u64 w d.d_cycles

let get_done r =
  let d_seq = R.u64 r in
  let d_err = Errno.of_int (R.u8 r) in
  let d_cycles = R.u64 r in
  { d_seq; d_err; d_cycles }

let encode_worker_reply ~worker ~gen items =
  let w = W.create () in
  W.u8 w worker;
  W.u8 w gen;
  W.u8 w (List.length items);
  List.iter (put_done w) items;
  W.contents w

let decode_worker_reply payload =
  let r = R.of_bytes payload in
  let worker = R.u8 r in
  let gen = R.u8 r in
  let count = R.u8 r in
  (worker, gen, read_seq count get_done r)

let encode_notice items =
  let w = W.create () in
  W.u8 w (List.length items);
  List.iter (put_done w) items;
  W.contents w

let decode_notice payload =
  let r = R.of_bytes payload in
  let count = R.u8 r in
  read_seq count get_done r
