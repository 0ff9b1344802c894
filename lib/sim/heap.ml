(* Keys, insertion sequence numbers and values sit in three parallel
   arrays, so a push or a pop allocates nothing once the arrays have
   grown. Slots at index >= size hold [dummy], so that popped events —
   and everything their closures capture — become collectable at once:
   a heap that keeps moved or popped entries referenced beyond [size]
   pins dead event closures and their simulation state for its life. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy () =
  { keys = [||]; seqs = [||]; values = [||]; dummy; size = 0; next_seq = 0 }

let is_empty h = h.size = 0

let length h = h.size

let grow h =
  let capacity = Array.length h.keys in
  let capacity' = if capacity = 0 then 64 else capacity * 2 in
  let keys = Array.make capacity' 0 and seqs = Array.make capacity' 0 in
  let values = Array.make capacity' h.dummy in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.values 0 values 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.values <- values

(* Both sifts move a hole instead of swapping entries: each step
   copies one entry, and the entry being placed is written once, at
   the end. *)
let[@inline] move h ~src ~dst =
  h.keys.(dst) <- h.keys.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.values.(dst) <- h.values.(src)

let[@inline] place h i ~key ~seq v =
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.values.(i) <- v

(* Does the entry at [i] come out before ([key], [seq])? *)
let[@inline] before h i ~key ~seq =
  let k = h.keys.(i) in
  k < key || (k = key && h.seqs.(i) < seq)

(* The hole at [i] rises past every parent with a larger key and
   ends where an entry with [key] belongs. A new entry has the largest
   sequence number, so it passes no parent with an equal key: FIFO
   among equal keys. *)
let rec sift_up h i ~key =
  if i = 0 then 0
  else begin
    let parent = (i - 1) / 2 in
    if key < h.keys.(parent) then begin
      move h ~src:parent ~dst:i;
      sift_up h parent ~key
    end
    else i
  end

(* The hole at [i], in a heap of [n] entries, sinks below every child
   that comes out before ([key], [seq]). *)
let rec sift_down h i ~n ~key ~seq =
  let left = (2 * i) + 1 in
  if left >= n then i
  else begin
    let right = left + 1 in
    let child =
      if right < n && before h right ~key:h.keys.(left) ~seq:h.seqs.(left)
      then right
      else left
    in
    if before h child ~key ~seq then begin
      move h ~src:child ~dst:i;
      sift_down h child ~n ~key ~seq
    end
    else i
  end

let push h ~key value =
  if h.size = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = sift_up h h.size ~key in
  h.size <- h.size + 1;
  place h i ~key ~seq value

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

(* The last entry fills the root's hole; its own slot is cleared. *)
let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.values.(0) in
  let n = h.size - 1 in
  h.size <- n;
  let key = h.keys.(n) and seq = h.seqs.(n) and value = h.values.(n) in
  h.values.(n) <- h.dummy;
  if n > 0 then place h (sift_down h 0 ~n ~key ~seq) ~key ~seq value;
  top
