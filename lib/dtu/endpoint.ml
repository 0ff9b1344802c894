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

let max_payload ~order = (1 lsl order) - Header.size

let pp_config ppf = function
  | Invalid -> Format.pp_print_string ppf "invalid"
  | Send s ->
    Format.fprintf ppf "send(pe=%d ep=%d label=%Ld order=%d credits=%s)"
      s.dst_pe s.dst_ep s.label s.msg_order
      (match s.credits with
      | Unlimited -> "inf"
      | Credits n -> string_of_int n)
  | Receive r ->
    Format.fprintf ppf "recv(buf=%#x order=%d slots=%d)" r.buf_addr
      r.slot_order r.slot_count
  | Memory m ->
    Format.fprintf ppf "mem(pe=%d base=%#x size=%d perm=%a)" m.dst_pe m.base
      m.size M3_mem.Perm.pp m.perm
