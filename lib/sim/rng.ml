type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Extract 62 non-negative bits and reduce; bias is negligible for the
     small bounds used by workload generators. *)
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let byte t = int t 256

let float t =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

(* [len] successive [byte] draws, with the state kept unboxed in a
   local for the whole loop: a draw through [t] boxes a fresh [int64]. *)
let fill_bytes t buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Rng.fill_bytes: slice outside the buffer";
  let state = ref t.state in
  for i = pos to pos + len - 1 do
    state := Int64.add !state golden_gamma;
    let raw = Int64.to_int (Int64.shift_right_logical (mix !state) 2) in
    Bytes.unsafe_set buf i (Char.unsafe_chr (raw land 0xff))
  done;
  t.state <- !state

(* splitmix64 draws by adding [golden_gamma] to the state, so the state
   after [k] draws is [state + k * golden_gamma] (modulo 2^64) and any
   byte of a [fill_bytes] can be drawn on its own. *)
let skip state k = Int64.add state (Int64.mul (Int64.of_int k) golden_gamma)

let defer_bytes t ~len =
  if len < 0 then invalid_arg "Rng.defer_bytes: negative length";
  let start = t.state in
  t.state <- skip start len;
  fun ~off buf ~pos ~len:n ->
    if off < 0 || n < 0 || off > len - n then
      invalid_arg "Rng.defer_bytes: piece outside the range";
    fill_bytes { state = skip start off } buf ~pos ~len:n
