module Store = M3_mem.Store

type t = {
  length : int;
  label : int64;
  sender_pe : int;
  crd_ep : int;
  reply_ep : int;
  reply_label : int64;
  has_reply : bool;
  is_reply : bool;
}

let size = 32

let flag_has_reply = 1
let flag_is_reply = 2

let write store ~addr h =
  Store.write_u32 store ~addr h.length;
  let flags =
    (if h.has_reply then flag_has_reply else 0)
    lor if h.is_reply then flag_is_reply else 0
  in
  Store.write_u8 store ~addr:(addr + 4) flags;
  Store.write_u8 store ~addr:(addr + 5) h.crd_ep;
  Store.write_u8 store ~addr:(addr + 6) h.reply_ep;
  Store.write_u8 store ~addr:(addr + 7) 0;
  Store.write_i64 store ~addr:(addr + 8) h.label;
  Store.write_i64 store ~addr:(addr + 16) h.reply_label;
  Store.write_u32 store ~addr:(addr + 24) h.sender_pe;
  (* Bytes 28-31 are reserved. *)
  Store.write_u32 store ~addr:(addr + 28) 0

let read store ~addr =
  let length = Store.read_u32 store ~addr in
  let flags = Store.read_u8 store ~addr:(addr + 4) in
  {
    length;
    crd_ep = Store.read_u8 store ~addr:(addr + 5);
    reply_ep = Store.read_u8 store ~addr:(addr + 6);
    label = Store.read_i64 store ~addr:(addr + 8);
    reply_label = Store.read_i64 store ~addr:(addr + 16);
    sender_pe = Store.read_u32 store ~addr:(addr + 24);
    has_reply = flags land flag_has_reply <> 0;
    is_reply = flags land flag_is_reply <> 0;
  }
