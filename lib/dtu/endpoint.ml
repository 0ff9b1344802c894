type credit =
  | Unlimited
  | Credits of int

type config =
  | Invalid
  | Send of {
      dst_pe : int;
      dst_ep : int;
      label : int64;
      msg_order : int;
      credits : credit;
    }
  | Receive of {
      buf_addr : int;
      slot_order : int;
      slot_count : int;
    }
  | Memory of {
      dst_pe : int;
      base : int;
      size : int;
      perm : M3_mem.Perm.t;
    }

type message = {
  ep : int;
  slot : int;
  header : Header.t;
  payload : Bytes.t;
}

let slot_size ~slot_order = 1 lsl slot_order
