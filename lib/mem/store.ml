(* A store is sparse: a default platform gives every system 64 MiB of
   DRAM, of which a run touches a few MiB. The bytes live in fixed
   4 KiB pages, and every slot of [pages] is in one of three states:

   - untouched: it aliases [zero_page], which is never written, so
     reads return zeros and allocate nothing;
   - deferred: it aliases [deferred_page], and [deferred] holds the
     generator that writes its bytes and the page's offset in the
     generator's range;
   - committed: it holds a page of its own.

   An untouched page is committed on its first write, a deferred one
   on its first access of any kind. [zero_page] and [deferred_page]
   are shared by all stores; neither is ever handed to a caller, and
   [deferred_page] is empty, so an access that missed the check would
   fail rather than read a wrong byte. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'
let deferred_page = Bytes.create 0

type gen = off:int -> Bytes.t -> pos:int -> len:int -> unit

type t = {
  name : string;
  size : int;
  pages : Bytes.t array;
  mutable deferred : (int, gen * int) Hashtbl.t option;
      (* created by the first [defer] *)
}

exception Fault of string

let create ~name ~size =
  if size <= 0 then invalid_arg "Store.create: size must be positive";
  {
    name;
    size;
    pages = Array.make ((size + page_mask) lsr page_bits) zero_page;
    deferred = None;
  }

let name t = t.name

let size t = t.size

(* The accessors' common steps are inlined and their rare branches
   (a fault, a first write) kept out of line: a DTU message header
   alone is nine writes and eight reads. *)
let fault t ~addr ~len =
  raise
    (Fault
       (Printf.sprintf "%s: access [%d, %d) outside [0, %d)" t.name addr
          (addr + len) t.size))

let[@inline] check t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > t.size then fault t ~addr ~len

(* Page [i] committed: a deferred page gets its generator's bytes, an
   untouched one zeros. *)
let commit t i =
  let p =
    if t.pages.(i) != deferred_page then Bytes.make page_size '\000'
    else begin
      let gens = Option.get t.deferred in
      let gen, off = Hashtbl.find gens i in
      Hashtbl.remove gens i;
      let p = Bytes.create page_size in
      gen ~off p ~pos:0 ~len:page_size;
      p
    end
  in
  t.pages.(i) <- p;
  p

(* The page holding [addr], for reading. *)
let[@inline] page t addr =
  let i = addr lsr page_bits in
  let p = t.pages.(i) in
  if p != deferred_page then p else commit t i

(* The page holding [addr], committed for writing. *)
let[@inline] writable t addr =
  let i = addr lsr page_bits in
  let p = t.pages.(i) in
  if p != zero_page && p != deferred_page then p else commit t i

(* True when [len > 0] bytes at [addr] lie in one page: the fast path
   of one page lookup and one [Bytes] operation. A zero-length access
   is never in a page, because at [addr = size] it would name a slot
   past the end of [pages]; the loops below do nothing for it. *)
let[@inline] in_page addr len = len > 0 && (addr land page_mask) + len <= page_size

(* Page-straddling accesses move one page's share at a time. *)
let rec copy_out t ~addr dst ~pos ~len =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_size - off) in
    Bytes.blit (page t addr) off dst pos n;
    copy_out t ~addr:(addr + n) dst ~pos:(pos + n) ~len:(len - n)
  end

let rec copy_in t ~addr src ~pos ~len =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_size - off) in
    Bytes.blit src pos (writable t addr) off n;
    copy_in t ~addr:(addr + n) src ~pos:(pos + n) ~len:(len - n)
  end

(* Little-endian value of the [len] bytes at [addr]. *)
let read_le t ~addr ~len =
  let v = ref 0L in
  for a = addr + len - 1 downto addr do
    let b = Char.code (Bytes.get (page t a) (a land page_mask)) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let write_le t ~addr ~len v =
  for k = 0 to len - 1 do
    let b = Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff in
    let a = addr + k in
    Bytes.set (writable t a) (a land page_mask) (Char.unsafe_chr b)
  done

let read_u8 t ~addr =
  check t ~addr ~len:1;
  Char.code (Bytes.get (page t addr) (addr land page_mask))

let write_u8 t ~addr v =
  check t ~addr ~len:1;
  Bytes.set (writable t addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xff))

let read_u32 t ~addr =
  check t ~addr ~len:4;
  if in_page addr 4 then
    Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask))
    land 0xffffffff
  else Int64.to_int (read_le t ~addr ~len:4)

let write_u32 t ~addr v =
  check t ~addr ~len:4;
  if in_page addr 4 then
    Bytes.set_int32_le (writable t addr) (addr land page_mask) (Int32.of_int v)
  else write_le t ~addr ~len:4 (Int64.of_int v)

let read_i64 t ~addr =
  check t ~addr ~len:8;
  if in_page addr 8 then Bytes.get_int64_le (page t addr) (addr land page_mask)
  else read_le t ~addr ~len:8

let write_i64 t ~addr v =
  check t ~addr ~len:8;
  if in_page addr 8 then
    Bytes.set_int64_le (writable t addr) (addr land page_mask) v
  else write_le t ~addr ~len:8 v

let read_bytes t ~addr ~len =
  check t ~addr ~len;
  if in_page addr len then Bytes.sub (page t addr) (addr land page_mask) len
  else begin
    let dst = Bytes.create len in
    copy_out t ~addr dst ~pos:0 ~len;
    dst
  end

let write_bytes t ~addr src ~pos ~len =
  check t ~addr ~len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    raise (Fault (Printf.sprintf "%s: bad source slice" t.name));
  if in_page addr len then
    Bytes.blit src pos (writable t addr) (addr land page_mask) len
  else copy_in t ~addr src ~pos ~len

(* A straddling blit moves pieces that each lie in one page of either
   side: upwards in general, downwards from the end when the
   destination lies above the source in the same store, so that an
   overlapping blit has memmove semantics. *)
let rec blit_up ~src ~src_addr ~dst ~dst_addr ~len =
  if len > 0 then begin
    let so = src_addr land page_mask and d_o = dst_addr land page_mask in
    let n = min len (page_size - max so d_o) in
    Bytes.blit (page src src_addr) so (writable dst dst_addr) d_o n;
    blit_up ~src ~src_addr:(src_addr + n) ~dst ~dst_addr:(dst_addr + n)
      ~len:(len - n)
  end

let rec blit_down ~src ~src_addr ~dst ~dst_addr ~len =
  if len > 0 then begin
    (* Bytes of the last piece that lie in the page of each side's
       last byte. *)
    let s_end = ((src_addr + len - 1) land page_mask) + 1
    and d_end = ((dst_addr + len - 1) land page_mask) + 1 in
    let n = min len (min s_end d_end) in
    let len = len - n in
    Bytes.blit
      (page src (src_addr + len)) (s_end - n)
      (writable dst (dst_addr + len)) (d_end - n) n;
    blit_down ~src ~src_addr ~dst ~dst_addr ~len
  end

let blit ~src ~src_addr ~dst ~dst_addr ~len =
  check src ~addr:src_addr ~len;
  check dst ~addr:dst_addr ~len;
  if in_page src_addr len && in_page dst_addr len then
    Bytes.blit (page src src_addr) (src_addr land page_mask)
      (writable dst dst_addr) (dst_addr land page_mask) len
  else if src == dst && dst_addr > src_addr then
    blit_down ~src ~src_addr ~dst ~dst_addr ~len
  else blit_up ~src ~src_addr ~dst ~dst_addr ~len

(* Filling an untouched page with '\000' leaves it uncommitted. *)
let rec fill_pages t ~addr ~len c =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_size - off) in
    if c <> '\000' || t.pages.(addr lsr page_bits) != zero_page then
      Bytes.fill (writable t addr) off n c;
    fill_pages t ~addr:(addr + n) ~len:(len - n) c
  end

let fill t ~addr ~len c =
  check t ~addr ~len;
  fill_pages t ~addr ~len c

(* Whole pages that are untouched or deferred take the generator;
   every other piece is written through it now. *)
let rec defer_pages t ~addr ~len ~off gen =
  if off < len then begin
    let a = addr + off in
    let i = a lsr page_bits and po = a land page_mask in
    let n = min (len - off) (page_size - po) in
    let p = t.pages.(i) in
    if n = page_size && (p == zero_page || p == deferred_page) then begin
      let gens =
        match t.deferred with
        | Some gens -> gens
        | None ->
          let gens = Hashtbl.create 64 in
          t.deferred <- Some gens;
          gens
      in
      Hashtbl.replace gens i (gen, off);
      t.pages.(i) <- deferred_page
    end
    else gen ~off (writable t a) ~pos:po ~len:n;
    defer_pages t ~addr ~len ~off:(off + n) gen
  end

let defer t ~addr ~len gen =
  check t ~addr ~len;
  defer_pages t ~addr ~len ~off:0 gen

let read_string t ~addr ~len =
  Bytes.unsafe_to_string (read_bytes t ~addr ~len)

let write_string t ~addr s =
  write_bytes t ~addr (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
