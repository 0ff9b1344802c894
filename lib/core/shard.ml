type t = {
  names : string array;
  points : (int * int) array; (* (hash, shard index), sorted by hash *)
}

let hash s =
  (* FNV-1a with the 64-bit prime (OCaml ints are 63-bit so the basis
     is truncated and the fold wraps mod 2^63), then a murmur-style
     finalizer: FNV alone leaves strings that differ only in their
     last characters — exactly our "i0".."i15" top-level directories —
     within ~delta*prime of each other, i.e. on one narrow arc of the
     ring, which starves all but one shard. *)
  let h = ref 0x4bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  let h = !h in
  let h = h lxor (h lsr 33) in
  let h = h * 0x7f51afd7ed558ccd in
  let h = h lxor (h lsr 29) in
  let h = h * 0x64dd9de1d8f24f3 in
  let h = h lxor (h lsr 32) in
  h land max_int

(* Virtual nodes per shard on the ring. *)
let vnodes = 64

let create ~names =
  if Array.length names = 0 then invalid_arg "Shard.create: no shard names";
  let points =
    Array.init
      (Array.length names * vnodes)
      (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (hash (Printf.sprintf "%s#%d" names.(shard) v), shard))
  in
  Array.sort compare points;
  { names; points }

let shards t = Array.length t.names

let top_component path =
  let n = String.length path in
  let start = if n > 0 && path.[0] = '/' then 1 else 0 in
  let stop =
    match String.index_from_opt path start '/' with
    | Some i -> i
    | None -> n
  in
  String.sub path start (stop - start)

let owner t ~path =
  if Array.length t.names = 1 then 0
  else begin
    let key = hash (top_component path) in
    (* First ring point with hash >= key, wrapping to the start. *)
    let lo = ref 0 and hi = ref (Array.length t.points) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < key then lo := mid + 1 else hi := mid
    done;
    let i = if !lo = Array.length t.points then 0 else !lo in
    snd t.points.(i)
  end
