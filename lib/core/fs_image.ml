module Store = M3_mem.Store

type t = {
  store : Store.t;
  base : int;
  block_size : int;
  total_blocks : int;
  inode_count : int;
  ibmap_block : int;
  bbmap_block : int;
  bbmap_blocks : int;
  itable_block : int;
  first_data_block : int;
}

type extent = { e_start : int; e_len : int }

type stat = {
  size : int;
  is_dir : bool;
  ino : int;
  extents : int;
}

let magic = 0x4D33_4653 (* "M3FS" *)
let inode_bytes = 128
let direct_extents = 8
let dirent_bytes = 32
let name_max = 26

let store t = t.store
let base t = t.base
let block_size t = t.block_size
let total_blocks t = t.total_blocks
let block_addr t b = b * t.block_size

(* --- raw access ----------------------------------------------------- *)

let addr t off = t.base + off
let baddr t b = addr t (b * t.block_size)

let read_u32 t ~off = Store.read_u32 t.store ~addr:(addr t off)
let write_u32 t ~off v = Store.write_u32 t.store ~addr:(addr t off) v
let read_u64 t ~off = Int64.to_int (Store.read_i64 t.store ~addr:(addr t off))
let write_u64 t ~off v = Store.write_i64 t.store ~addr:(addr t off) (Int64.of_int v)

(* --- bitmaps --------------------------------------------------------- *)

(* Bit [i] of a bitmap is bit [i mod 8] of its byte [i / 8], so the
   little-endian 64-bit word [w] holds bits [64 w] to [64 w + 63], bit
   [i] at position [i mod 64]. Single bits are read a byte at a time;
   scans load a word at a time and ranges are set a byte at a time. *)

let bit_get t ~off ~index =
  let byte = Store.read_u8 t.store ~addr:(addr t (off + (index / 8))) in
  byte land (1 lsl (index mod 8)) <> 0

let word t ~off w = Store.read_i64 t.store ~addr:(addr t (off + (w * 8)))

(* Lowest set bit of a nonzero 32-bit value. *)
let ctz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xffff = 0 then (n := 16; x := !x lsr 16);
  if !x land 0xff = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xf = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr n;
  !n

(* Lowest set bit of a nonzero word. *)
let[@inline] ctz64 x =
  let lo = Int64.to_int x land 0xffff_ffff in
  if lo <> 0 then ctz32 lo
  else 32 + ctz32 (Int64.to_int (Int64.shift_right_logical x 32))

(* The first index in [from, until) whose bit is [v], or [until]. *)
let find_bit t ~off ~v ~from ~until =
  let rec go w skip =
    let base = w * 64 in
    if base >= until then until
    else begin
      let x = word t ~off w in
      (* Set bits mark the sought value, from bit [skip] on. *)
      let x = if v then x else Int64.lognot x in
      let x = Int64.logand x (Int64.shift_left (-1L) skip) in
      if Int64.equal x 0L then go (w + 1) 0 else min until (base + ctz64 x)
    end
  in
  if from >= until then until else go (from / 64) (from mod 64)

(* Sets bits [first, first + n) to [v]: the ragged ends by masking
   their bytes, the whole bytes between them in one fill. *)
let set_bits t ~off ~first ~n v =
  let last = first + n in
  let update byte mask =
    let a = addr t (off + byte) in
    let b = Store.read_u8 t.store ~addr:a in
    Store.write_u8 t.store ~addr:a (if v then b lor mask else b land lnot mask)
  in
  (* Bits [lo, hi) of one byte, as a mask. *)
  let mask lo hi = ((1 lsl (hi - lo)) - 1) lsl lo in
  if n > 0 then begin
    let b0 = first / 8 and b1 = (last - 1) / 8 in
    if b0 = b1 then update b0 (mask (first mod 8) (((last - 1) mod 8) + 1))
    else begin
      update b0 (mask (first mod 8) 8);
      update b1 (mask 0 (((last - 1) mod 8) + 1));
      if b1 > b0 + 1 then
        Store.fill t.store
          ~addr:(addr t (off + b0 + 1))
          ~len:(b1 - b0 - 1)
          (if v then '\xff' else '\000')
    end
  end

let ibmap_off t = t.ibmap_block * t.block_size
let bbmap_off t = t.bbmap_block * t.block_size

let block_used t b = bit_get t ~off:(bbmap_off t) ~index:b

let set_blocks_used t ~start ~len v =
  set_bits t ~off:(bbmap_off t) ~first:start ~n:len v

let ino_used t i = bit_get t ~off:(ibmap_off t) ~index:i

let set_ino_used t i v = set_bits t ~off:(ibmap_off t) ~first:i ~n:1 v

(* First fit over the free runs of the data blocks: the first run of
   at least [want] blocks, cut to [want]; else the first of the
   longest runs. A run's end is sought no further than [want] blocks. *)
let find_free_run t ~want =
  let off = bbmap_off t and until = t.total_blocks in
  let rec go from best best_len =
    let start = find_bit t ~off ~v:false ~from ~until in
    if start >= until then best
    else begin
      let stop =
        find_bit t ~off ~v:true ~from:start
          ~until:(min until (start + min want until))
      in
      let len = stop - start in
      if len >= want then Some (start, want)
      else if len > best_len then go stop (Some (start, len)) len
      else go stop best best_len
    end
  in
  go t.first_data_block None 0

let alloc_run t ~want =
  match find_free_run t ~want with
  | None -> None
  | Some (start, len) ->
    set_blocks_used t ~start ~len true;
    Some { e_start = start; e_len = len }

let free_run t ~start ~len = set_blocks_used t ~start ~len false

let free_blocks t =
  let off = bbmap_off t and until = t.total_blocks in
  let rec go from n =
    let start = find_bit t ~off ~v:false ~from ~until in
    if start >= until then n
    else begin
      let stop = find_bit t ~off ~v:true ~from:start ~until in
      go stop (n + stop - start)
    end
  in
  go t.first_data_block 0

(* --- inodes ----------------------------------------------------------- *)

let inode_off t ino = (t.itable_block * t.block_size) + (ino * inode_bytes)

let flag_used = 1
let flag_dir = 2

let inode_flags t ino = read_u32 t ~off:(inode_off t ino)
let set_inode_flags t ino v = write_u32 t ~off:(inode_off t ino) v
let inode_nextents t ino = read_u32 t ~off:(inode_off t ino + 4)
let set_inode_nextents t ino v = write_u32 t ~off:(inode_off t ino + 4) v
let file_size t ~ino = read_u64 t ~off:(inode_off t ino + 8)
let set_file_size t ~ino v = write_u64 t ~off:(inode_off t ino + 8) v
let inode_indirect t ino = read_u32 t ~off:(inode_off t ino + 16)
let set_inode_indirect t ino v = write_u32 t ~off:(inode_off t ino + 16) v

let is_dir t ~ino = inode_flags t ino land flag_dir <> 0

let max_indirect t = t.block_size / 8

(* Extent [i] of an inode lives in the inode for i < direct_extents and
   in the indirect block otherwise. *)
let extent_slot t ino i =
  if i < direct_extents then inode_off t ino + 24 + (i * 8)
  else begin
    let ind = inode_indirect t ino in
    assert (ind <> 0);
    (ind * t.block_size) + ((i - direct_extents) * 8)
  end

let get_extent t ino i =
  let off = extent_slot t ino i in
  { e_start = read_u32 t ~off; e_len = read_u32 t ~off:(off + 4) }

let set_extent t ino i e =
  let off = extent_slot t ino i in
  write_u32 t ~off e.e_start;
  write_u32 t ~off:(off + 4) e.e_len

let extents t ~ino =
  List.init (inode_nextents t ino) (fun i -> get_extent t ino i)

let alloc_ino t =
  let i =
    find_bit t ~off:(ibmap_off t) ~v:false ~from:0 ~until:t.inode_count
  in
  if i >= t.inode_count then None
  else begin
    set_ino_used t i true;
    Some i
  end

let init_inode t ino ~dir =
  set_inode_flags t ino (flag_used lor if dir then flag_dir else 0);
  set_inode_nextents t ino 0;
  set_file_size t ~ino 0;
  set_inode_indirect t ino 0

let append_extent t ~ino ~blocks =
  if blocks <= 0 then Error Errno.E_inv_args
  else begin
    let n = inode_nextents t ino in
    if n >= direct_extents + max_indirect t then Error Errno.E_no_space
    else begin
      (* The indirect extent table is allocated on first use. *)
      let need_indirect = n >= direct_extents && inode_indirect t ino = 0 in
      let indirect_ok =
        if not need_indirect then true
        else
          match alloc_run t ~want:1 with
          | Some { e_start; _ } ->
            Store.fill t.store ~addr:(baddr t e_start) ~len:t.block_size '\000';
            set_inode_indirect t ino e_start;
            true
          | None -> false
      in
      if not indirect_ok then Error Errno.E_no_space
      else
        match alloc_run t ~want:blocks with
        | None -> Error Errno.E_no_space
        | Some e ->
          set_extent t ino n e;
          set_inode_nextents t ino (n + 1);
          Ok e
    end
  end

let truncate t ~ino ~size =
  let keep_blocks = (size + t.block_size - 1) / t.block_size in
  let n = inode_nextents t ino in
  let kept = ref 0 in
  let covered = ref 0 in
  for i = 0 to n - 1 do
    let e = get_extent t ino i in
    if !covered >= keep_blocks then
      (* Whole extent beyond the end. *)
      free_run t ~start:e.e_start ~len:e.e_len
    else if !covered + e.e_len > keep_blocks then begin
      (* Partially kept: shrink; later extents are freed above. *)
      let keep = keep_blocks - !covered in
      free_run t ~start:(e.e_start + keep) ~len:(e.e_len - keep);
      set_extent t ino i { e with e_len = keep };
      kept := i + 1
    end
    else kept := i + 1;
    covered := !covered + e.e_len
  done;
  set_inode_nextents t ino !kept;
  (* The indirect extent table itself is freed once unused. *)
  if !kept <= direct_extents then begin
    let ind = inode_indirect t ino in
    if ind <> 0 then begin
      free_run t ~start:ind ~len:1;
      set_inode_indirect t ino 0
    end
  end;
  set_file_size t ~ino size

let free_inode t ino =
  List.iter (fun e -> free_run t ~start:e.e_start ~len:e.e_len) (extents t ~ino);
  let ind = inode_indirect t ino in
  if ind <> 0 then free_run t ~start:ind ~len:1;
  set_inode_flags t ino 0;
  set_inode_nextents t ino 0;
  set_file_size t ~ino 0;
  set_inode_indirect t ino 0;
  set_ino_used t ino false

(* --- directories ------------------------------------------------------- *)

(* A directory's data (via its extents) is an array of 32-byte entries:
   u32 ino, u8 used, u8 namelen, name bytes. A request walks the
   extent list once and reads entries in place. *)

(* The first entry slot of [dir], in index order, at whose address
   [stop] holds: [Ok (index, addr)], or [Error capacity] when none
   does. *)
let find_dirent t ~dir stop =
  let per_block = t.block_size / dirent_bytes in
  let n = inode_nextents t dir in
  let rec extent i index =
    if i >= n then Error index
    else begin
      let e = get_extent t dir i in
      let rec block b index =
        if b >= e.e_len then extent (i + 1) index
        else begin
          let base = baddr t (e.e_start + b) in
          let rec slot k =
            if k >= per_block then block (b + 1) (index + per_block)
            else begin
              let a = base + (k * dirent_bytes) in
              if stop a then Ok (index + k, a) else slot (k + 1)
            end
          in
          slot 0
        end
      in
      block 0 index
    end
  in
  extent 0 0

let dirent_used t addr = Store.read_u8 t.store ~addr:(addr + 4) = 1
let dirent_ino t addr = Store.read_u32 t.store ~addr

let dirent_name t addr =
  Store.read_string t.store ~addr:(addr + 6)
    ~len:(Store.read_u8 t.store ~addr:(addr + 5))

(* Is the entry at [addr] a live one called [name]? Compared in place. *)
let dirent_is t addr name =
  let len = String.length name in
  let rec same k =
    k >= len
    || Store.read_u8 t.store ~addr:(addr + 6 + k) = Char.code name.[k]
       && same (k + 1)
  in
  dirent_used t addr && Store.read_u8 t.store ~addr:(addr + 5) = len && same 0

let dirent_write t addr ~used ~name ~ino =
  Store.write_u32 t.store ~addr ino;
  Store.write_u8 t.store ~addr:(addr + 4) (if used then 1 else 0);
  Store.write_u8 t.store ~addr:(addr + 5) (String.length name);
  Store.write_string t.store ~addr:(addr + 6) name

(* Scans a directory; returns (result, entries scanned). *)
let dir_find t ~dir ~name =
  match find_dirent t ~dir (fun a -> dirent_is t a name) with
  | Ok (i, a) -> (Some (dirent_ino t a, a), i + 1)
  | Error cap -> (None, cap)

let dir_add t ~dir ~name ~ino =
  if String.length name > name_max || name = "" then Error Errno.E_inv_args
  else begin
    let slot =
      match find_dirent t ~dir (fun a -> not (dirent_used t a)) with
      | Ok (_, a) -> Ok a
      | Error cap -> (
        (* Grow the directory by one block. *)
        match append_extent t ~ino:dir ~blocks:1 with
        | Error e -> Error e
        | Ok e ->
          Store.fill t.store ~addr:(baddr t e.e_start) ~len:t.block_size '\000';
          set_file_size t ~ino:dir
            ((cap + (e.e_len * (t.block_size / dirent_bytes))) * dirent_bytes);
          Ok (baddr t e.e_start))
    in
    match slot with
    | Error e -> Error e
    | Ok a ->
      dirent_write t a ~used:true ~name ~ino;
      Ok ()
  end

(* Up to [max] live entries, from the [index]-th on, in one walk. *)
let readdir_batch t ~dir ~index ~max =
  let skip = ref index and taken = ref 0 and acc = ref [] in
  let take a =
    if dirent_used t a then
      if !skip > 0 then decr skip
      else begin
        acc := (dirent_name t a, dirent_ino t a) :: !acc;
        incr taken
      end;
    !taken >= max
  in
  if index >= 0 && max > 0 then ignore (find_dirent t ~dir take);
  List.rev !acc

let readdir t ~dir ~index =
  match readdir_batch t ~dir ~index ~max:1 with [ e ] -> Some e | _ -> None

let dir_live_entries t ~dir = readdir_batch t ~dir ~index:0 ~max:max_int

let dir_is_empty t ~dir = Result.is_error (find_dirent t ~dir (dirent_used t))

(* --- paths -------------------------------------------------------------- *)

let split_path path =
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

(* Resolves [path]; returns (ino, entries scanned). *)
let lookup t path =
  let rec walk ino scanned = function
    | [] -> Ok (ino, scanned)
    | name :: rest ->
      if not (is_dir t ~ino) then Error Errno.E_not_dir
      else (
        match dir_find t ~dir:ino ~name with
        | Some (child, _), n -> walk child (scanned + n) rest
        | None, n ->
          ignore n;
          Error Errno.E_not_found)
  in
  walk 0 0 (split_path path)

let lookup_parent t path =
  match List.rev (split_path path) with
  | [] -> Error Errno.E_inv_args
  | name :: rev_dirs -> (
    let dir_path = String.concat "/" (List.rev rev_dirs) in
    match lookup t dir_path with
    | Error e -> Error e
    | Ok (dir, scanned) ->
      if is_dir t ~ino:dir then Ok (dir, name, scanned) else Error Errno.E_not_dir)

let create_node t path ~dir =
  match lookup_parent t path with
  | Error e -> Error e
  | Ok (parent, name, _) -> (
    match dir_find t ~dir:parent ~name with
    | Some _, _ -> Error Errno.E_exists
    | None, _ -> (
      match alloc_ino t with
      | None -> Error Errno.E_no_space
      | Some ino -> (
        init_inode t ino ~dir;
        match dir_add t ~dir:parent ~name ~ino with
        | Ok () -> Ok ino
        | Error e ->
          free_inode t ino;
          Error e)))

let create_file t path = create_node t path ~dir:false

let mkdir t path =
  match create_node t path ~dir:true with Ok _ -> Ok () | Error e -> Error e

let unlink t path =
  match lookup_parent t path with
  | Error e -> Error e
  | Ok (parent, name, _) -> (
    match dir_find t ~dir:parent ~name with
    | None, _ -> Error Errno.E_not_found
    | Some (ino, slot_addr), _ ->
      if is_dir t ~ino && not (dir_is_empty t ~dir:ino) then
        Error Errno.E_not_empty
      else begin
        dirent_write t slot_addr ~used:false ~name:"" ~ino:0;
        free_inode t ino;
        Ok ()
      end)

let stat t ~ino =
  if ino < 0 || ino >= t.inode_count || not (ino_used t ino) then
    Error Errno.E_not_found
  else
    Ok
      {
        size = file_size t ~ino;
        is_dir = is_dir t ~ino;
        ino;
        extents = inode_nextents t ino;
      }

(* --- format -------------------------------------------------------------- *)

let format store ~base ~size ~block_size ~inode_count =
  if block_size < 512 || size < 64 * block_size then
    invalid_arg "Fs_image.format: image too small";
  if inode_count > block_size * 8 then
    invalid_arg "Fs_image.format: too many inodes for one bitmap block";
  let total_blocks = size / block_size in
  let bbmap_blocks = (total_blocks + (block_size * 8) - 1) / (block_size * 8) in
  let itable_blocks =
    ((inode_count * inode_bytes) + block_size - 1) / block_size
  in
  let t =
    {
      store;
      base;
      block_size;
      total_blocks;
      inode_count;
      ibmap_block = 1;
      bbmap_block = 2;
      bbmap_blocks;
      itable_block = 2 + bbmap_blocks;
      first_data_block = 2 + bbmap_blocks + itable_blocks;
    }
  in
  Store.fill store ~addr:base ~len:(t.first_data_block * block_size) '\000';
  write_u32 t ~off:0 magic;
  write_u32 t ~off:4 block_size;
  write_u32 t ~off:8 total_blocks;
  write_u32 t ~off:12 inode_count;
  write_u32 t ~off:16 t.itable_block;
  write_u32 t ~off:20 t.first_data_block;
  (* Metadata blocks are marked used in the block bitmap. *)
  set_blocks_used t ~start:0 ~len:t.first_data_block true;
  (* Root directory. *)
  set_ino_used t 0 true;
  init_inode t 0 ~dir:true;
  t

(* The superblock alone is enough to reconstruct the handle. *)
let attach store ~base =
  let probe =
    { store; base; block_size = 512; total_blocks = 1; inode_count = 0;
      ibmap_block = 1; bbmap_block = 2; bbmap_blocks = 0; itable_block = 0;
      first_data_block = 0 }
  in
  if read_u32 probe ~off:0 <> magic then Error "bad magic: not an m3fs image"
  else begin
    let block_size = read_u32 probe ~off:4 in
    let total_blocks = read_u32 probe ~off:8 in
    let inode_count = read_u32 probe ~off:12 in
    let itable_block = read_u32 probe ~off:16 in
    let first_data_block = read_u32 probe ~off:20 in
    if block_size < 512 || total_blocks <= 0 || inode_count <= 0 then
      Error "corrupt superblock"
    else
      Ok
        {
          store;
          base;
          block_size;
          total_blocks;
          inode_count;
          ibmap_block = 1;
          bbmap_block = 2;
          bbmap_blocks = itable_block - 2;
          itable_block;
          first_data_block;
        }
  end

(* --- seeding ---------------------------------------------------------------- *)

let seed_file t ~path ~size ~blocks_per_extent ~rng =
  if blocks_per_extent <= 0 then Error Errno.E_inv_args
  else
    match create_file t path with
    | Error e -> Error e
    | Ok ino ->
      let blocks = (size + t.block_size - 1) / t.block_size in
      let rec fill remaining =
        if remaining <= 0 then Ok ()
        else begin
          let want = min remaining blocks_per_extent in
          match append_extent t ~ino ~blocks:want with
          | Error e -> Error e
          | Ok e ->
            let len = e.e_len * t.block_size in
            Store.defer t.store ~addr:(baddr t e.e_start) ~len
              (M3_sim.Rng.defer_bytes rng ~len);
            fill (remaining - e.e_len)
        end
      in
      (match fill blocks with
      | Error e -> Error e
      | Ok () ->
        set_file_size t ~ino size;
        Ok ino)

(* --- fsck ---------------------------------------------------------------------- *)

let fsck t =
  let claimed = Array.make t.total_blocks (-2) in
  for b = 0 to t.first_data_block - 1 do
    claimed.(b) <- -1 (* metadata *)
  done;
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let claim ~ino b =
    if b < 0 || b >= t.total_blocks then fail "ino %d: extent block %d out of range" ino b
    else if claimed.(b) = -1 then fail "ino %d: claims metadata block %d" ino b
    else if claimed.(b) >= 0 then
      fail "block %d claimed by both ino %d and ino %d" b claimed.(b) ino
    else if not (block_used t b) then
      fail "ino %d: block %d in extent but free in bitmap" ino b
    else claimed.(b) <- ino
  in
  for ino = 0 to t.inode_count - 1 do
    let used = ino_used t ino in
    let flags = inode_flags t ino in
    if used <> (flags land flag_used <> 0) then
      fail "ino %d: bitmap and flags disagree" ino;
    if used then begin
      List.iter
        (fun e ->
          for b = e.e_start to e.e_start + e.e_len - 1 do
            claim ~ino b
          done)
        (extents t ~ino);
      let ind = inode_indirect t ino in
      if ind <> 0 then claim ~ino ind;
      (* Size must fit into the allocated extents. *)
      let blocks =
        List.fold_left (fun acc e -> acc + e.e_len) 0 (extents t ~ino)
      in
      if file_size t ~ino > blocks * t.block_size then
        fail "ino %d: size %d exceeds %d allocated blocks" ino
          (file_size t ~ino) blocks;
      if is_dir t ~ino then
        List.iter
          (fun (name, child) ->
            if child < 0 || child >= t.inode_count || not (ino_used t child)
            then fail "dirent %s in ino %d points at dead ino %d" name ino child)
          (dir_live_entries t ~dir:ino)
    end
  done;
  (* Every used data block must be claimed by exactly one inode. *)
  for b = t.first_data_block to t.total_blocks - 1 do
    if block_used t b && claimed.(b) = -2 then fail "block %d used but unclaimed" b
  done;
  match !error with None -> Ok () | Some e -> Error e
