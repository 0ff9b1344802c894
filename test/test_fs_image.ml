(* Direct tests of the m3fs on-DRAM image: extents, bitmaps,
   directories, truncation — checked with fsck after every mutation
   sequence, including randomized ones. *)

module Store = M3_mem.Store
module Rng = M3_sim.Rng
module Fs = M3.Fs_image
module Errno = M3.Errno

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = Errno.ok_exn

let make ?(size = 2 * 1024 * 1024) ?(block_size = 1024) () =
  let store = Store.create ~name:"img" ~size:(size + 64) in
  Fs.format store ~base:64 ~size ~block_size ~inode_count:128

let assert_fsck fs =
  match Fs.fsck fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fsck: %s" e

let test_format_and_root () =
  let fs = make () in
  check_bool "root is dir" true (Fs.is_dir fs ~ino:0);
  check_int "root empty" 0 (Fs.file_size fs ~ino:0);
  check_bool "plenty of free blocks" true (Fs.free_blocks fs > 1900);
  assert_fsck fs

let test_create_lookup_unlink () =
  let fs = make () in
  let ino = ok (Fs.create_file fs "/a") in
  let found, _scanned = ok (Fs.lookup fs "/a") in
  check_int "lookup finds it" ino found;
  check_bool "missing is not found" true
    (match Fs.lookup fs "/b" with Error Errno.E_not_found -> true | _ -> false);
  ok (Fs.unlink fs "/a");
  check_bool "gone after unlink" true
    (match Fs.lookup fs "/a" with Error Errno.E_not_found -> true | _ -> false);
  assert_fsck fs

let test_nested_dirs () =
  let fs = make () in
  ok (Fs.mkdir fs "/d1");
  ok (Fs.mkdir fs "/d1/d2");
  let ino = ok (Fs.create_file fs "/d1/d2/f") in
  let found, scanned = ok (Fs.lookup fs "/d1/d2/f") in
  check_int "deep lookup" ino found;
  check_bool "scanned some dirents" true (scanned >= 3);
  check_bool "unlink non-empty dir fails" true
    (match Fs.unlink fs "/d1" with Error Errno.E_not_empty -> true | _ -> false);
  check_bool "file in file fails" true
    (match Fs.create_file fs "/d1/d2/f/x" with
    | Error Errno.E_not_dir -> true
    | _ -> false);
  assert_fsck fs

let test_extent_append_and_layout () =
  let fs = make () in
  let ino = ok (Fs.create_file fs "/f") in
  let e1 = ok (Fs.append_extent fs ~ino ~blocks:4) in
  let e2 = ok (Fs.append_extent fs ~ino ~blocks:4) in
  check_int "first extent full" 4 e1.Fs.e_len;
  (* A fresh image is unfragmented: consecutive appends are adjacent. *)
  check_int "contiguous allocation" (e1.Fs.e_start + 4) e2.Fs.e_start;
  check_int "two extents" 2 (List.length (Fs.extents fs ~ino));
  assert_fsck fs

let test_indirect_extents () =
  let fs = make () in
  let ino = ok (Fs.create_file fs "/many") in
  (* More than the 8 direct slots: goes through the indirect block. *)
  for _ = 1 to 20 do
    ignore (ok (Fs.append_extent fs ~ino ~blocks:2))
  done;
  check_int "20 extents recorded" 20 (List.length (Fs.extents fs ~ino));
  Fs.set_file_size fs ~ino (20 * 2 * 1024);
  assert_fsck fs;
  (* Truncating back below the direct limit frees the tail. *)
  let free_before = Fs.free_blocks fs in
  Fs.truncate fs ~ino ~size:(3 * 2 * 1024);
  check_int "3 extents left" 3 (List.length (Fs.extents fs ~ino));
  check_bool "blocks freed" true (Fs.free_blocks fs > free_before);
  assert_fsck fs

let test_truncate_partial_extent () =
  let fs = make () in
  let ino = ok (Fs.create_file fs "/t") in
  ignore (ok (Fs.append_extent fs ~ino ~blocks:10));
  Fs.set_file_size fs ~ino (10 * 1024);
  (* Keep 3.5 blocks worth: extent must shrink to 4 blocks. *)
  Fs.truncate fs ~ino ~size:(3 * 1024 + 512);
  (match Fs.extents fs ~ino with
  | [ e ] -> check_int "extent shrunk to 4 blocks" 4 e.Fs.e_len
  | l -> Alcotest.failf "expected 1 extent, got %d" (List.length l));
  check_int "size set" (3 * 1024 + 512) (Fs.file_size fs ~ino);
  assert_fsck fs

let test_truncate_to_zero () =
  let fs = make () in
  (* First file in the root allocates a directory block; create before
     taking the baseline. *)
  let ino = ok (Fs.create_file fs "/z") in
  let free0 = Fs.free_blocks fs in
  ignore (ok (Fs.append_extent fs ~ino ~blocks:32));
  Fs.truncate fs ~ino ~size:0;
  check_int "no extents" 0 (List.length (Fs.extents fs ~ino));
  check_int "all blocks back" free0 (Fs.free_blocks fs);
  assert_fsck fs

let test_allocator_fragmentation_fallback () =
  (* Tiny image: after exhausting contiguous space, the allocator
     returns the largest remaining run instead of failing outright. *)
  let fs = make ~size:(96 * 1024) () in
  let ino = ok (Fs.create_file fs "/big") in
  let total_free = Fs.free_blocks fs in
  let e1 = ok (Fs.append_extent fs ~ino ~blocks:(total_free - 5)) in
  check_int "got the big run" (total_free - 5) e1.Fs.e_len;
  let e2 = ok (Fs.append_extent fs ~ino ~blocks:100) in
  check_bool "partial run returned" true (e2.Fs.e_len <= 5 && e2.Fs.e_len > 0);
  Fs.set_file_size fs ~ino ((e1.Fs.e_len + e2.Fs.e_len) * 1024);
  assert_fsck fs

let test_seed_file_fragmentation () =
  let fs = make () in
  let rng = Rng.create ~seed:9 in
  let ino = ok (Fs.seed_file fs ~path:"/seed" ~size:(64 * 1024) ~blocks_per_extent:16 ~rng) in
  check_int "size" (64 * 1024) (Fs.file_size fs ~ino);
  check_int "64 blocks in 16-block extents" 4 (List.length (Fs.extents fs ~ino));
  List.iter (fun e -> check_int "extent size" 16 e.Fs.e_len) (Fs.extents fs ~ino);
  assert_fsck fs

let test_seed_file_content_deterministic () =
  let content fs ino =
    let e = List.hd (Fs.extents fs ~ino) in
    (e.Fs.e_start, e.Fs.e_len)
  in
  let fs1 = make () in
  let i1 =
    ok
      (Fs.seed_file fs1 ~path:"/s" ~size:4096 ~blocks_per_extent:8
         ~rng:(Rng.create ~seed:4))
  in
  let fs2 = make () in
  let i2 =
    ok
      (Fs.seed_file fs2 ~path:"/s" ~size:4096 ~blocks_per_extent:8
         ~rng:(Rng.create ~seed:4))
  in
  check_bool "same layout for same seed" true (content fs1 i1 = content fs2 i2)

let test_readdir_order_and_growth () =
  let fs = make () in
  (* More entries than fit one directory block (32 per block). *)
  for i = 0 to 49 do
    ignore (ok (Fs.create_file fs (Printf.sprintf "/f%02d" i)))
  done;
  let rec collect i acc =
    match Fs.readdir fs ~dir:0 ~index:i with
    | Some (name, _) -> collect (i + 1) (name :: acc)
    | None -> List.rev acc
  in
  let names = collect 0 [] in
  check_int "all 50 entries" 50 (List.length names);
  check_bool "insertion order preserved" true
    (names = List.init 50 (Printf.sprintf "f%02d"));
  assert_fsck fs

let test_dirent_slot_reuse () =
  let fs = make () in
  ignore (ok (Fs.create_file fs "/a"));
  ignore (ok (Fs.create_file fs "/b"));
  ok (Fs.unlink fs "/a");
  ignore (ok (Fs.create_file fs "/c"));
  (* /c reuses /a's slot: directory stays one block. *)
  let st = ok (Fs.stat fs ~ino:0) in
  check_int "root has one extent" 1 st.Fs.extents;
  assert_fsck fs

let test_stat_fields () =
  let fs = make () in
  let ino = ok (Fs.create_file fs "/s") in
  ignore (ok (Fs.append_extent fs ~ino ~blocks:3));
  Fs.set_file_size fs ~ino 2500;
  let st = ok (Fs.stat fs ~ino) in
  check_int "size" 2500 st.Fs.size;
  check_bool "not dir" false st.Fs.is_dir;
  check_int "extents" 1 st.Fs.extents;
  check_bool "bad ino" true
    (match Fs.stat fs ~ino:77 with Error Errno.E_not_found -> true | _ -> false)

(* Random interleavings of create/append/truncate/unlink keep the image
   consistent. *)
let qcheck_random_ops_fsck =
  QCheck.Test.make ~name:"random op sequences keep fsck clean" ~count:60
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(int_range 10 60) (int_bound 5)))
    (fun (seed, script) ->
      let fs = make ~size:(512 * 1024) () in
      let rng = Rng.create ~seed in
      let live = ref [] in
      let fresh_name =
        let n = ref 0 in
        fun () ->
          incr n;
          Printf.sprintf "/r%d" !n
      in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            (* create *)
            let name = fresh_name () in
            (match Fs.create_file fs name with
            | Ok ino -> live := (name, ino) :: !live
            | Error _ -> ())
          | 1 | 2 -> (
            (* append to a random live file *)
            match !live with
            | [] -> ()
            | files ->
              let name, ino = List.nth files (Rng.int rng (List.length files)) in
              ignore name;
              (match Fs.append_extent fs ~ino ~blocks:(1 + Rng.int rng 32) with
              | Ok e ->
                Fs.set_file_size fs ~ino
                  (Fs.file_size fs ~ino + (e.Fs.e_len * 1024))
              | Error _ -> ()))
          | 3 -> (
            (* truncate *)
            match !live with
            | [] -> ()
            | files ->
              let _, ino = List.nth files (Rng.int rng (List.length files)) in
              let size = Fs.file_size fs ~ino in
              if size > 0 then Fs.truncate fs ~ino ~size:(Rng.int rng size))
          | _ -> (
            (* unlink *)
            match !live with
            | [] -> ()
            | (name, _) :: rest ->
              (match Fs.unlink fs name with Ok () -> () | Error _ -> ());
              live := rest))
        script;
      Fs.fsck fs = Ok ())

let qcheck_truncate_frees_exactly =
  QCheck.Test.make ~name:"truncate frees exactly the tail blocks" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 0 64))
    (fun (blocks, keep_blocks) ->
      QCheck.assume (keep_blocks <= blocks);
      let fs = make () in
      let ino = ok (Fs.create_file fs "/q") in
      let free0 = Fs.free_blocks fs in
      ignore (ok (Fs.append_extent fs ~ino ~blocks));
      Fs.set_file_size fs ~ino (blocks * 1024);
      Fs.truncate fs ~ino ~size:(keep_blocks * 1024);
      Fs.free_blocks fs = free0 - keep_blocks && Fs.fsck fs = Ok ())

(* --- first fit against a bit-by-bit model ------------------------- *)

(* The model reads the image's bitmaps from the store one bit at a
   time: the inode bitmap is block 1 of the image, the block bitmap
   block 2, and the superblock holds the first data block at byte 20.
   It picks blocks and inodes by the first-fit rule the allocator has
   always used; the word-wise allocator must pick the same ones. *)
module Model = struct
  type t = {
    store : Store.t;
    base : int;
    block_size : int;
    total : int;
    first_data : int;
    inodes : int;
  }

  let bit m ~block i =
    let a = m.base + (block * m.block_size) + (i / 8) in
    Store.read_u8 m.store ~addr:a land (1 lsl (i mod 8)) <> 0

  let blocks m = Array.init m.total (fun b -> bit m ~block:2 b)

  let first_free_ino m =
    let rec go i =
      if i >= m.inodes then None
      else if bit m ~block:1 i then go (i + 1)
      else Some i
    in
    go 0

  (* The allocator's original scan, one bit at a time: the first run
     of at least [want] free blocks, cut to [want]; else the first of
     the longest runs. *)
  let first_fit m used ~want =
    let best = ref None in
    let run_start = ref (-1) in
    let run_len = ref 0 in
    let consider () =
      if !run_len > 0 then
        match !best with
        | Some (_, len) when len >= !run_len -> ()
        | Some _ | None -> best := Some (!run_start, !run_len)
    in
    let b = ref m.first_data in
    let found = ref None in
    while !found = None && !b < m.total do
      if used.(!b) then begin
        consider ();
        run_start := -1;
        run_len := 0
      end
      else begin
        if !run_start < 0 then run_start := !b;
        incr run_len;
        if !run_len >= want then found := Some (!run_start, want)
      end;
      incr b
    done;
    consider ();
    match !found with Some run -> Some run | None -> !best

  let free m used =
    let n = ref 0 in
    for b = m.first_data to m.total - 1 do
      if not used.(b) then incr n
    done;
    !n
end

(* Blocks that are used in [after] and were free in [before]. *)
let newly_used before after =
  List.filter
    (fun b -> after.(b) && not before.(b))
    (List.init (Array.length after) Fun.id)

let with_used used b =
  let used = Array.copy used in
  used.(b) <- true;
  used

(* A block claimed besides an operation's own extent can only be the
   one-block first fit taken before it (a directory or indirect-table
   block); the extent is then the first fit after that block. *)
let fits m before ~extra ~want ~extent =
  match extra with
  | [] -> Model.first_fit m before ~want = extent
  | [ b ] ->
    Model.first_fit m before ~want:1 = Some (b, 1)
    && Model.first_fit m (with_used before b) ~want = extent
  | _ -> false

let qcheck_first_fit_model =
  QCheck.Test.make ~name:"allocator picks the bit-by-bit first fit" ~count:80
    QCheck.(
      triple (int_bound 1_000_000)
        (pair (int_range 64 700) (int_range 1 8))
        (list_of_size Gen.(int_range 20 80) (int_bound 5)))
    (fun (seed, (total, ino_eighths), script) ->
      (* Most totals leave a ragged bitmap tail (not a multiple of 64
         blocks), and the first data block (block 4 to 19 here) is
         never 64-aligned. *)
      let block_size = if seed mod 2 = 0 then 512 else 1024 in
      let inodes = ino_eighths * 8 in
      let store = Store.create ~name:"ff" ~size:((total + 1) * block_size) in
      let base = block_size / 2 in
      let fs =
        Fs.format store ~base ~size:(total * block_size) ~block_size
          ~inode_count:inodes
      in
      let m =
        {
          Model.store;
          base;
          block_size;
          total;
          first_data = Store.read_u32 store ~addr:(base + 20);
          inodes;
        }
      in
      let rng = Rng.create ~seed in
      let live = ref [] and next = ref 0 in
      let pick () = List.nth !live (Rng.int rng (List.length !live)) in
      let step op =
        let before = Model.blocks m in
        let ok_op =
          match op with
          | 0 | 1 -> (
            incr next;
            let name = Printf.sprintf "/f%d" !next in
            let expect = Model.first_free_ino m in
            let fresh () = newly_used before (Model.blocks m) in
            match Fs.create_file fs name with
            | Ok ino -> (
              live := (name, ino) :: !live;
              Some ino = expect
              &&
              (* A full root directory grows by one block. *)
              match fresh () with
              | [] -> true
              | [ b ] -> Model.first_fit m before ~want:1 = Some (b, 1)
              | _ -> false)
            | Error _ ->
              fresh () = []
              && (expect = None || Model.first_fit m before ~want:1 = None))
          | 2 | 3 -> (
            match !live with
            | [] -> true
            | _ -> (
              let _, ino = pick () in
              let want = 1 + Rng.int rng 48 in
              match Fs.append_extent fs ~ino ~blocks:want with
              | Ok e ->
                let fresh = newly_used before (Model.blocks m) in
                let own = List.init e.Fs.e_len (fun i -> e.Fs.e_start + i) in
                let extra = List.filter (fun b -> not (List.mem b own)) fresh in
                List.for_all (fun b -> List.mem b fresh) own
                && fits m before ~extra ~want
                     ~extent:(Some (e.Fs.e_start, e.Fs.e_len))
              | Error _ -> (
                match newly_used before (Model.blocks m) with
                | [] -> true
                | [ b ] -> Model.first_fit m before ~want:1 = Some (b, 1)
                | _ -> false)))
          | 4 -> (
            match !live with
            | [] -> true
            | _ ->
              let _, ino = pick () in
              let blocks =
                List.fold_left
                  (fun n e -> n + e.Fs.e_len)
                  0 (Fs.extents fs ~ino)
              in
              let bytes = blocks * block_size in
              Fs.truncate fs ~ino ~size:(Rng.int rng (bytes + 1));
              newly_used before (Model.blocks m) = [])
          | _ -> (
            match !live with
            | [] -> true
            | _ ->
              let name, ino = pick () in
              live := List.filter (fun (_, i) -> i <> ino) !live;
              Fs.unlink fs name = Ok ()
              && newly_used before (Model.blocks m) = []
              && not (Model.bit m ~block:1 ino))
        in
        ok_op
        && Fs.free_blocks fs = Model.free m (Model.blocks m)
        && Fs.fsck fs = Ok ()
      in
      List.for_all step script)

(* The directory functions as the image had them before a request
   walked a directory once: every slot found by re-walking the extent
   list from its start, every name read into a string, [readdir] the
   [index]-th of [dir_live_entries]. Written against the public
   interface, they are the reference for the one-walk versions. *)
module Ref_dir = struct
  let dirent_bytes = 32

  let per_block fs = Fs.block_size fs / dirent_bytes
  let baddr fs b = Fs.base fs + Fs.block_addr fs b

  let dirent_addr fs ~dir ~index =
    let blk_index = index / per_block fs in
    let rec find exts covered =
      match exts with
      | [] -> None
      | (e : Fs.extent) :: rest ->
        if blk_index < covered + e.e_len then
          Some
            (baddr fs (e.e_start + blk_index - covered)
            + (index mod per_block fs * dirent_bytes))
        else find rest (covered + e.e_len)
    in
    find (Fs.extents fs ~ino:dir) 0

  let dir_capacity fs ~dir =
    List.fold_left (fun acc (e : Fs.extent) -> acc + e.e_len) 0 (Fs.extents fs ~ino:dir)
    * per_block fs

  let dirent_read fs addr =
    let store = Fs.store fs in
    let ino = Store.read_u32 store ~addr in
    let used = Store.read_u8 store ~addr:(addr + 4) = 1 in
    let len = Store.read_u8 store ~addr:(addr + 5) in
    (used, Store.read_string store ~addr:(addr + 6) ~len, ino)

  let dir_find fs ~dir ~name =
    let cap = dir_capacity fs ~dir in
    let rec go i =
      if i >= cap then (None, i)
      else
        match dirent_addr fs ~dir ~index:i with
        | None -> (None, i)
        | Some a ->
          let used, n, ino = dirent_read fs a in
          if used && n = name then (Some (ino, a), i + 1) else go (i + 1)
    in
    go 0

  (* [dir_add]'s choice: [Some addr] of the first free slot, or [None]
     when the directory must grow. *)
  let free_slot fs ~dir =
    let cap = dir_capacity fs ~dir in
    let rec go i =
      if i >= cap then None
      else
        match dirent_addr fs ~dir ~index:i with
        | None -> None
        | Some a ->
          let used, _, _ = dirent_read fs a in
          if used then go (i + 1) else Some a
    in
    go 0

  let dir_live_entries fs ~dir =
    let cap = dir_capacity fs ~dir in
    let rec go i acc =
      if i >= cap then List.rev acc
      else
        match dirent_addr fs ~dir ~index:i with
        | None -> List.rev acc
        | Some a ->
          let used, name, ino = dirent_read fs a in
          go (i + 1) (if used then (name, ino) :: acc else acc)
    in
    go 0 []

  let lookup fs path =
    let rec walk ino scanned = function
      | [] -> Ok (ino, scanned)
      | name :: rest ->
        if not (Fs.is_dir fs ~ino) then Error Errno.E_not_dir
        else (
          match dir_find fs ~dir:ino ~name with
          | Some (child, _), n -> walk child (scanned + n) rest
          | None, _ -> Error Errno.E_not_found)
    in
    walk 0 0 (List.filter (fun c -> c <> "") (String.split_on_char '/' path))
end

type dir_op =
  | Mkdir of string
  | Create of string
  | Unlink of string

let show_dir_op = function
  | Mkdir p -> "mkdir " ^ p
  | Create p -> "create " ^ p
  | Unlink p -> "unlink " ^ p

(* Parents that may or may not exist (or be files), and names that
   share prefixes and lengths, fill several directory blocks, and
   reach and pass the 26-byte name limit. *)
let dir_parents = [ ""; "/d0"; "/d1"; "/d0/d2"; "/f0" ]

let dir_names =
  [ "d0"; "d1"; "d2"; "f0"; "f1"; "fa"; "f"; "ff";
    String.make 26 'n'; String.make 27 'n' ]
  @ List.init 14 (Printf.sprintf "g%d")

let dir_op_gen =
  let open QCheck.Gen in
  (* The root half the time, so that it spans several blocks. *)
  let path =
    map2 (fun p n -> p ^ "/" ^ n)
      (frequency [ (4, return ""); (1, oneofl (List.tl dir_parents)) ])
      (oneofl dir_names)
  in
  frequency
    [
      (2, map (fun p -> Mkdir p) path);
      (6, map (fun p -> Create p) path);
      (3, map (fun p -> Unlink p) path);
    ]

let split_parent path =
  let i = String.rindex path '/' in
  (String.sub path 0 i, String.sub path (i + 1) (String.length path - i - 1))

(* Random mkdir/create/unlink scripts on 512-byte blocks (16
   entries each). After every step the one-walk functions must agree
   with [Ref_dir]: [lookup]'s (ino, scanned) for every live path, the
   parents and the step's own paths; every directory's entries through
   [readdir] and [readdir_batch]; the slot [dir_add] fills (or the
   block it grows by); and the slot [unlink] clears. *)
let qcheck_dirs_match_reference =
  QCheck.Test.make ~name:"one-walk directories match the re-walking reference"
    ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_dir_op ops))
       QCheck.Gen.(list_size (int_range 1 100) dir_op_gen))
    (fun script ->
      let fs = make ~size:(256 * 1024) ~block_size:512 () in
      let store = Fs.store fs in
      let fail step op fmt =
        Printf.ksprintf
          (fun m -> QCheck.Test.fail_reportf "step %d (%s): %s" step (show_dir_op op) m)
          fmt
      in
      let dir_of path =
        match Ref_dir.lookup fs (if path = "" then "/" else path) with
        | Ok (ino, _) when Fs.is_dir fs ~ino -> Some ino
        | Ok _ | Error _ -> None
      in
      (* The slot [dir_add] will fill for [path], if the add can happen:
         [`Slot a] or [`Grow cap]. *)
      let add_slot path =
        let parent, name = split_parent path in
        match dir_of parent with
        | Some dir
          when name <> "" && String.length name <= 26
               && fst (Ref_dir.dir_find fs ~dir ~name) = None -> (
          match Ref_dir.free_slot fs ~dir with
          | Some a -> Some (dir, name, `Slot a)
          | None -> Some (dir, name, `Grow (Ref_dir.dir_capacity fs ~dir)))
        | Some _ | None -> None
      in
      let found_slot path =
        let parent, name = split_parent path in
        Option.bind (dir_of parent) (fun dir ->
            Option.map snd (fst (Ref_dir.dir_find fs ~dir ~name)))
      in
      let check_added step op expect result =
        match (expect, result) with
        | Some (dir, name, want), Ok _ -> (
          let got = Option.map snd (fst (Ref_dir.dir_find fs ~dir ~name)) in
          match want with
          | `Slot a -> if got <> Some a then fail step op "not added at the free slot"
          | `Grow cap ->
            if Ref_dir.dir_capacity fs ~dir <> cap + Ref_dir.per_block fs
               || got <> Ref_dir.dirent_addr fs ~dir ~index:cap
               || Fs.file_size fs ~ino:dir <> Ref_dir.dir_capacity fs ~dir * 32
            then fail step op "growth differs")
        | Some _, Error _ | None, (Ok _ | Error _) -> ()
      in
      let check_cleared step op slot result =
        match (slot, result) with
        | Some a, Ok _ ->
          if Store.read_u8 store ~addr:(a + 4) = 1 then fail step op "slot not cleared"
        | Some _, Error _ | None, (Ok _ | Error _) -> ()
      in
      let ok_unit = function Ok () -> Ok 0 | Error e -> Error e in
      List.iteri
        (fun step op ->
          (match op with
          | Mkdir p ->
            let expect = add_slot p in
            check_added step op expect (ok_unit (Fs.mkdir fs p))
          | Create p ->
            let expect = add_slot p in
            check_added step op expect (Fs.create_file fs p)
          | Unlink p ->
            let slot = found_slot p in
            check_cleared step op slot (ok_unit (Fs.unlink fs p)));
          let live_paths =
            List.concat_map
              (fun parent ->
                match dir_of parent with
                | None -> []
                | Some dir ->
                  List.map (fun (name, _) -> parent ^ "/" ^ name)
                    (Ref_dir.dir_live_entries fs ~dir))
              dir_parents
          in
          let op_paths =
            match op with
            | Mkdir p | Create p | Unlink p -> [ p ]
          in
          List.iter
            (fun p ->
              if Fs.lookup fs p <> Ref_dir.lookup fs p then
                fail step op "lookup %s differs" p)
            (("/" :: dir_parents) @ op_paths @ live_paths);
          List.iter
            (fun parent ->
              Option.iter
                (fun dir ->
                  let live = Ref_dir.dir_live_entries fs ~dir in
                  for index = 0 to List.length live + 1 do
                    if Fs.readdir fs ~dir ~index <> List.nth_opt live index then
                      fail step op "readdir %s %d differs" parent index;
                    List.iter
                      (fun max ->
                        let want =
                          List.filteri (fun i _ -> i >= index && i < index + max) live
                        in
                        if Fs.readdir_batch fs ~dir ~index ~max <> want then
                          fail step op "readdir_batch %s %d %d differs" parent index max)
                      [ 1; 3; 8 ]
                  done)
                (dir_of parent))
            dir_parents;
          match Fs.fsck fs with
          | Ok () -> ()
          | Error e -> fail step op "fsck: %s" e)
        script;
      true)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "fs_image.basics",
      [
        tc "format and root" test_format_and_root;
        tc "create/lookup/unlink" test_create_lookup_unlink;
        tc "nested directories" test_nested_dirs;
        tc "stat fields" test_stat_fields;
      ] );
    ( "fs_image.extents",
      [
        tc "append and contiguous layout" test_extent_append_and_layout;
        tc "indirect extent table" test_indirect_extents;
        tc "truncate shrinks partial extent" test_truncate_partial_extent;
        tc "truncate to zero frees all" test_truncate_to_zero;
        tc "fragmented allocator falls back" test_allocator_fragmentation_fallback;
        QCheck_alcotest.to_alcotest qcheck_truncate_frees_exactly;
      ] );
    ( "fs_image.seeding",
      [
        tc "seed file fragmentation control" test_seed_file_fragmentation;
        tc "seed determinism" test_seed_file_content_deterministic;
      ] );
    ( "fs_image.directories",
      [
        tc "readdir order across blocks" test_readdir_order_and_growth;
        tc "dirent slot reuse" test_dirent_slot_reuse;
        QCheck_alcotest.to_alcotest qcheck_dirs_match_reference;
      ] );
    ( "fs_image.random",
      [ QCheck_alcotest.to_alcotest qcheck_random_ops_fsck ] );
    ( "fs_image.first_fit",
      [ QCheck_alcotest.to_alcotest qcheck_first_fit_model ] );
  ]
