(* Tests for stores, permissions and the region allocator. *)

module Store = M3_mem.Store
module Perm = M3_mem.Perm
module Alloc = M3_mem.Alloc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- perm --- *)

let test_perm_lattice () =
  check_bool "r subset rw" true (Perm.subset Perm.r ~of_:Perm.rw);
  check_bool "w subset rw" true (Perm.subset Perm.w ~of_:Perm.rw);
  check_bool "rw not subset r" false (Perm.subset Perm.rw ~of_:Perm.r);
  check_bool "none subset anything" true (Perm.subset Perm.none ~of_:Perm.none);
  check_bool "inter narrows" true
    (Perm.equal (Perm.inter Perm.rw Perm.r) Perm.r);
  check_bool "union widens" true
    (Perm.equal (Perm.union Perm.r Perm.w) Perm.rw);
  check_bool "x" true (Perm.can_exec Perm.rwx);
  check_bool "no x in rw" false (Perm.can_exec Perm.rw)

(* --- store --- *)

let test_store_scalar_roundtrip () =
  let s = Store.create ~name:"t" ~size:64 in
  Store.write_u8 s ~addr:0 0xAB;
  check_int "u8" 0xAB (Store.read_u8 s ~addr:0);
  Store.write_u32 s ~addr:4 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Store.read_u32 s ~addr:4);
  Store.write_i64 s ~addr:8 (-123456789L);
  Alcotest.(check int64) "i64" (-123456789L) (Store.read_i64 s ~addr:8)

let test_store_bytes_and_strings () =
  let s = Store.create ~name:"t" ~size:32 in
  Store.write_string s ~addr:3 "hello";
  Alcotest.(check string) "string" "hello" (Store.read_string s ~addr:3 ~len:5);
  let b = Store.read_bytes s ~addr:3 ~len:5 in
  Alcotest.(check string) "bytes" "hello" (Bytes.to_string b);
  Store.fill s ~addr:3 ~len:5 '!';
  Alcotest.(check string) "fill" "!!!!!" (Store.read_string s ~addr:3 ~len:5)

let test_store_blit_between_stores () =
  let a = Store.create ~name:"a" ~size:16 in
  let b = Store.create ~name:"b" ~size:16 in
  Store.write_string a ~addr:0 "0123456789abcdef";
  Store.blit ~src:a ~src_addr:4 ~dst:b ~dst_addr:8 ~len:4;
  Alcotest.(check string) "blit" "4567" (Store.read_string b ~addr:8 ~len:4)

let test_store_faults () =
  let s = Store.create ~name:"f" ~size:8 in
  let faults f = match f () with
    | exception Store.Fault _ -> true
    | _ -> false
  in
  check_bool "read past end" true (faults (fun () -> Store.read_u32 s ~addr:6));
  check_bool "negative addr" true (faults (fun () -> Store.read_u8 s ~addr:(-1)));
  check_bool "write past end" true
    (faults (fun () -> Store.write_i64 s ~addr:4 0L));
  check_bool "in-bounds ok" false (faults (fun () -> Store.read_u8 s ~addr:7))

(* --- the paged store against a flat oracle --- *)

(* Random operation sequences run on two stores and on two flat
   buffers with the semantics of a flat store. Each operation acts on
   store A or B; a blit copies from that store into itself or into the
   other one. The oracle writes a deferred range's bytes at once.
   Each store is compared whole with its oracle after every step until
   it defers a range; from then on only at [Check] steps and at the
   end, since a whole-store read commits every deferred page and the
   first access to one must come from every kind of accessor. *)
type op =
  | Write_u8 of int * int
  | Read_u8 of int
  | Write_u32 of int * int
  | Read_u32 of int
  | Write_i64 of int * int64
  | Read_i64 of int
  | Write_bytes of int * int * int (* addr, pos, len *)
  | Read_bytes of int * int
  | Read_string of int * int
  | Fill of int * int * char
  | Blit of int * bool * int * int (* src_addr, into the other, dst_addr, len *)
  | Defer of int * int * int (* addr, len, generator seed *)
  | Check

type outcome = Fault | Done | Int of int | Int64 of int64 | Str of string

let show_op = function
  | Write_u8 (a, v) -> Printf.sprintf "write_u8 %d %d" a v
  | Read_u8 a -> Printf.sprintf "read_u8 %d" a
  | Write_u32 (a, v) -> Printf.sprintf "write_u32 %d %d" a v
  | Read_u32 a -> Printf.sprintf "read_u32 %d" a
  | Write_i64 (a, v) -> Printf.sprintf "write_i64 %d %Ld" a v
  | Read_i64 a -> Printf.sprintf "read_i64 %d" a
  | Write_bytes (a, p, n) -> Printf.sprintf "write_bytes %d pos %d len %d" a p n
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes %d len %d" a n
  | Read_string (a, n) -> Printf.sprintf "read_string %d len %d" a n
  | Fill (a, n, c) -> Printf.sprintf "fill %d len %d %C" a n c
  | Blit (a, other, d, n) ->
    Printf.sprintf "blit %d -> %s %d len %d" a
      (if other then "other" else "same") d n
  | Defer (a, n, g) -> Printf.sprintf "defer %d len %d gen %d" a n g
  | Check -> "check"

let show_outcome = function
  | Fault -> "Fault"
  | Done -> "()"
  | Int v -> string_of_int v
  | Int64 v -> Int64.to_string v
  | Str s -> Printf.sprintf "%d bytes" (String.length s)

(* [write_bytes] sources: [len + 3] bytes, so [pos] 3 fits, 4 does not. *)
let source len = Bytes.init (max 0 (len + 3)) (fun i -> Char.chr ((i * 31 + 7) land 0xff))

let page = 4096

(* Byte [off] of generator [g]'s range: it depends on the offset, so a
   piece generated at the wrong offset reads differently. *)
let gen_byte g off = Char.chr ((g + (off * 167) + (off lsr 7)) land 0xff)

(* The generator [Store.defer] receives; it rejects a piece outside its
   range, as a page deferred past the range's end would ask for. *)
let generator g ~range ~off buf ~pos ~len =
  if off < 0 || len < 0 || off + len > range then
    invalid_arg
      (Printf.sprintf "generator %d: piece [%d, %d) of %d" g off (off + len) range);
  for k = 0 to len - 1 do
    Bytes.set buf (pos + k) (gen_byte g (off + k))
  done

(* Addresses near page boundaries and the end of the store, plus a few
   anywhere and a few negative. *)
let addr_gen size =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k d -> (k * page) + d) (int_bound ((size / page) + 1)) (int_range (-8) 8));
        (2, map (fun d -> size + d) (int_range (-9) 1));
        (2, int_bound (size - 1));
        (1, return 0);
        (1, int_range (-3) (-1));
      ])

(* An address and a length; [(size, 0)] has a weight of its own. *)
let span_gen size =
  QCheck.Gen.(
    frequency
      [
        (1, return (size, 0));
        ( 9,
          pair (addr_gen size)
            (frequency
               [
                 (2, return 0);
                 (4, int_range 1 16);
                 (3, map (fun d -> page + d) (int_range (-8) 8));
                 (2, int_range 1 (3 * page));
                 (1, return (-1));
               ]) );
      ])

let op_gen ~size ~other_size =
  let open QCheck.Gen in
  let addr = addr_gen size and span = span_gen size in
  frequency
    [
      (1, map2 (fun a v -> Write_u8 (a, v)) addr int);
      (1, map (fun a -> Read_u8 a) addr);
      (1, map2 (fun a v -> Write_u32 (a, v)) addr int);
      (1, map (fun a -> Read_u32 a) addr);
      (1, map2 (fun a v -> Write_i64 (a, v)) addr int64);
      (1, map (fun a -> Read_i64 a) addr);
      ( 3,
        map2 (fun (a, n) p -> Write_bytes (a, p, n)) span (oneofl [ -1; 0; 3; 4 ]) );
      (2, map (fun (a, n) -> Read_bytes (a, n)) span);
      (1, map (fun (a, n) -> Read_string (a, n)) span);
      ( 3,
        map2 (fun (a, n) c -> Fill (a, n, c)) span
          (frequency [ (1, return '\000'); (1, char) ]) );
      ( 4,
        let* src, n = span in
        let* other = bool in
        let* dst =
          if other then addr_gen other_size
          else
            (* Overlapping in either direction, or anywhere. *)
            frequency
              [ (2, map (fun d -> src + d) (int_range (-n - 2) (n + 2))); (1, addr) ]
        in
        return (Blit (src, other, dst, n)) );
      ( 6,
        let* a, n =
          (* Often whole pages, so that the next accesses find deferred
             pages and re-deferring a range replaces a generator. *)
          frequency
            [
              (2, span);
              ( 3,
                map2 (fun k m -> (k * page, m * page))
                  (int_bound ((size / page) + 1)) (int_range 1 3) );
            ]
        in
        map (fun g -> Defer (a, n, g)) (int_bound 255) );
      (1, return Check);
    ]

let model_gen =
  let open QCheck.Gen in
  let size =
    frequency
      [ (1, oneofl [ 1; 7; 4095; 4096; 4097; 8192; 12289 ]); (1, int_range 1 (5 * page)) ]
  in
  let* size_a = size and* size_b = size in
  let+ ops =
    list_size (int_range 1 40)
      (let* on_b = bool in
       let size, other_size = if on_b then (size_b, size_a) else (size_a, size_b) in
       map (fun op -> (on_b, op)) (op_gen ~size ~other_size))
  in
  ((size_a, size_b), ops)

let print_model ((size_a, size_b), ops) =
  Printf.sprintf "A %d bytes, B %d bytes:\n%s" size_a size_b
    (String.concat "\n"
       (List.map (fun (on_b, op) -> (if on_b then "B " else "A ") ^ show_op op) ops))

let oracle_step o o' op =
  let fits b addr len = addr >= 0 && len >= 0 && addr + len <= Bytes.length b in
  let guard addr len f = if fits o addr len then f () else Fault in
  match op with
  | Write_u8 (addr, v) ->
    guard addr 1 (fun () -> Bytes.set o addr (Char.chr (v land 0xff)); Done)
  | Read_u8 addr -> guard addr 1 (fun () -> Int (Char.code (Bytes.get o addr)))
  | Write_u32 (addr, v) ->
    guard addr 4 (fun () -> Bytes.set_int32_le o addr (Int32.of_int v); Done)
  | Read_u32 addr ->
    guard addr 4 (fun () ->
        Int (Int32.to_int (Bytes.get_int32_le o addr) land 0xffffffff))
  | Write_i64 (addr, v) -> guard addr 8 (fun () -> Bytes.set_int64_le o addr v; Done)
  | Read_i64 addr -> guard addr 8 (fun () -> Int64 (Bytes.get_int64_le o addr))
  | Write_bytes (addr, pos, len) ->
    let src = source len in
    guard addr len (fun () ->
        if fits src pos len then (Bytes.blit src pos o addr len; Done) else Fault)
  | Read_bytes (addr, len) | Read_string (addr, len) ->
    guard addr len (fun () -> Str (Bytes.sub_string o addr len))
  | Fill (addr, len, c) -> guard addr len (fun () -> Bytes.fill o addr len c; Done)
  | Blit (src_addr, other, dst_addr, len) ->
    let d = if other then o' else o in
    guard src_addr len (fun () ->
        if fits d dst_addr len then (Bytes.blit o src_addr d dst_addr len; Done)
        else Fault)
  | Defer (addr, len, g) ->
    guard addr len (fun () ->
        for k = 0 to len - 1 do
          Bytes.set o (addr + k) (gen_byte g k)
        done;
        Done)
  | Check -> Done

let store_step s s' op =
  match
    match op with
    | Write_u8 (addr, v) -> Store.write_u8 s ~addr v; Done
    | Read_u8 addr -> Int (Store.read_u8 s ~addr)
    | Write_u32 (addr, v) -> Store.write_u32 s ~addr v; Done
    | Read_u32 addr -> Int (Store.read_u32 s ~addr)
    | Write_i64 (addr, v) -> Store.write_i64 s ~addr v; Done
    | Read_i64 addr -> Int64 (Store.read_i64 s ~addr)
    | Write_bytes (addr, pos, len) ->
      Store.write_bytes s ~addr (source len) ~pos ~len;
      Done
    | Read_bytes (addr, len) -> Str (Bytes.to_string (Store.read_bytes s ~addr ~len))
    | Read_string (addr, len) -> Str (Store.read_string s ~addr ~len)
    | Fill (addr, len, c) -> Store.fill s ~addr ~len c; Done
    | Blit (src_addr, other, dst_addr, len) ->
      Store.blit ~src:s ~src_addr ~dst:(if other then s' else s) ~dst_addr ~len;
      Done
    | Defer (addr, len, g) ->
      Store.defer s ~addr ~len (generator g ~range:len);
      Done
    | Check -> Done
  with
  | r -> r
  | exception Store.Fault _ -> Fault

(* Runs a script on two stores and their flat oracles (see [op]). *)
let agrees_with_flat ((size_a, size_b), ops) =
  let a = Store.create ~name:"a" ~size:size_a
  and b = Store.create ~name:"b" ~size:size_b in
  let oa = Bytes.make size_a '\000' and ob = Bytes.make size_b '\000' in
  (* [deferring.(k)]: store k may hold deferred pages, so only a
     [Check] or the end of the script reads it whole. *)
  let deferring = [| false; false |] in
  let compare ~all after =
    List.iteri
      (fun k (s, o) ->
        if all || not deferring.(k) then begin
          deferring.(k) <- false;
          if Store.read_string s ~addr:0 ~len:(Bytes.length o) <> Bytes.to_string o
          then QCheck.Test.fail_reportf "%s: store %s diverged" after (Store.name s)
        end)
      [ (a, oa); (b, ob) ]
  in
  List.iteri
    (fun i (on_b, op) ->
      let s, s', o, o' = if on_b then (b, a, ob, oa) else (a, b, oa, ob) in
      let want = oracle_step o o' op in
      let got = store_step s s' op in
      if got <> want then
        QCheck.Test.fail_reportf "op %d (%s): store gave %s, oracle %s" i
          (show_op op) (show_outcome got) (show_outcome want);
      (match op with Defer _ -> deferring.(Bool.to_int on_b) <- true | _ -> ());
      compare ~all:(op = Check) (Printf.sprintf "op %d (%s)" i (show_op op)))
    ops;
  compare ~all:true "end of script";
  true

let qcheck_store_matches_flat =
  QCheck.Test.make ~name:"paged store matches a flat buffer" ~count:1000
    (QCheck.make ~print:print_model model_gen)
    agrees_with_flat

(* The first access to a deferred page by each kind of accessor, within
   one page and across two: store A deferred but for 5 bytes at either
   end (so its middle page alone is deferred), store B whole, then one
   access to either store and a whole-store check. *)
let test_store_first_access_to_deferred () =
  let size = 3 * page in
  let defer_both = [ (false, Defer (5, size - 10, 7)); (true, Defer (0, size, 9)) ] in
  let accesses at =
    [
      Read_u8 at; Write_u8 (at, 5); Read_u32 at; Write_u32 (at, 7);
      Read_i64 at; Write_i64 (at, 9L); Read_bytes (at, 10);
      Read_string (at, 10); Write_bytes (at, 3, 10); Fill (at, 10, '\000');
      Fill (at, 10, 'x'); Blit (at, true, at + 5, 10); Blit (at, false, at + 4, 10);
      Blit (at + 4, false, at, 10);
    ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun on_b ->
          try
            ignore
              (agrees_with_flat
                 ((size, size), defer_both @ [ (on_b, op); (on_b, Check) ]))
          with QCheck.Test.Test_fail (_, msgs) ->
            Alcotest.failf "%s %s: %s" (if on_b then "B" else "A") (show_op op)
              (String.concat "; " msgs))
        [ false; true ])
    (accesses (page + 100) @ accesses (page - 3)
    @ [ Fill (page, page, '\000'); Blit (page - 3, true, page - 3, page + 6) ])

(* --- alloc --- *)

let test_alloc_basic () =
  let a = Alloc.create ~base:0x1000 ~size:0x1000 in
  check_int "initially all free" 0x1000 (Alloc.avail a);
  let r1 = Option.get (Alloc.alloc a ~size:256) in
  let r2 = Option.get (Alloc.alloc a ~size:256) in
  check_bool "disjoint" true (abs (r1 - r2) >= 256);
  check_int "avail" (0x1000 - 512) (Alloc.avail a);
  Alloc.free a ~addr:r1 ~size:256;
  Alloc.free a ~addr:r2 ~size:256;
  check_int "all back" 0x1000 (Alloc.avail a);
  check_int "coalesced" 0x1000 (Alloc.largest_hole a)

let test_alloc_alignment () =
  let a = Alloc.create ~base:1 ~size:4096 in
  let r = Option.get (Alloc.alloc a ~size:64 ~align:64) in
  check_int "aligned" 0 (r mod 64)

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~size:128 in
  let r1 = Alloc.alloc a ~size:100 in
  check_bool "first fits" true (r1 <> None);
  check_bool "second does not" true (Alloc.alloc a ~size:100 = None);
  Alloc.free a ~addr:(Option.get r1) ~size:100;
  check_bool "fits again" true (Alloc.alloc a ~size:100 <> None)

let test_alloc_double_free_rejected () =
  let a = Alloc.create ~base:0 ~size:128 in
  let r = Option.get (Alloc.alloc a ~size:32) in
  Alloc.free a ~addr:r ~size:32;
  check_bool "double free raises" true
    (match Alloc.free a ~addr:r ~size:32 with
    | exception Invalid_argument _ -> true
    | () -> false)

let qcheck_alloc_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:200
    QCheck.(list (int_range 1 64))
    (fun sizes ->
      let a = Alloc.create ~base:0 ~size:65536 in
      let regions =
        List.filter_map (fun size ->
            Option.map (fun addr -> (addr, size)) (Alloc.alloc a ~size))
          sizes
      in
      let sorted = List.sort compare regions in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 <= a2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint sorted)

let qcheck_alloc_free_restores =
  QCheck.Test.make ~name:"free restores all bytes and coalesces" ~count:200
    QCheck.(list (int_range 1 128))
    (fun sizes ->
      let a = Alloc.create ~base:64 ~size:8192 in
      let regions =
        List.filter_map (fun size ->
            Option.map (fun addr -> (addr, size)) (Alloc.alloc a ~size))
          sizes
      in
      List.iter (fun (addr, size) -> Alloc.free a ~addr ~size) regions;
      Alloc.avail a = 8192 && Alloc.largest_hole a = 8192)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ("mem.perm", [ tc "permission lattice" test_perm_lattice ]);
    ( "mem.store",
      [
        tc "scalar roundtrip" test_store_scalar_roundtrip;
        tc "bytes and strings" test_store_bytes_and_strings;
        tc "blit between stores" test_store_blit_between_stores;
        tc "faults on out-of-bounds" test_store_faults;
        QCheck_alcotest.to_alcotest qcheck_store_matches_flat;
        tc "first access to a deferred page" test_store_first_access_to_deferred;
      ] );
    ( "mem.alloc",
      [
        tc "basic alloc/free/coalesce" test_alloc_basic;
        tc "alignment" test_alloc_alignment;
        tc "exhaustion and reuse" test_alloc_exhaustion;
        tc "double free rejected" test_alloc_double_free_rejected;
        QCheck_alcotest.to_alcotest qcheck_alloc_no_overlap;
        QCheck_alcotest.to_alcotest qcheck_alloc_free_restores;
      ] );
  ]
