module Rng = M3_sim.Rng

type arrival = { at : int; client : int; req : Wire.request }
type mix = (int * (int -> Wire.kind)) list
type picker = Rng.t -> int

let pure k = [ (1, fun _ -> k) ]
let uniform_clients ~n rng = Rng.int rng n

let zipf_clients ~n ~theta =
  if n < 1 then invalid_arg "Load.zipf_clients: n < 1";
  if theta < 0.0 then invalid_arg "Load.zipf_clients: negative theta";
  (* Inverse-transform over the precomputed CDF of p(i) ~ 1/(i+1)^theta.
     Client 0 is the hottest; theta = 0 degenerates to uniform. *)
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !total
  done;
  fun rng ->
    let u = Rng.float rng *. !total in
    let rec go i = if i >= n - 1 || cdf.(i) > u then i else go (i + 1) in
    go 0

let pick_of ~rng ~mix =
  if mix = [] then invalid_arg "Load: empty mix";
  if List.exists (fun (w, _) -> w <= 0) mix then
    invalid_arg "Load: non-positive weight";
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 mix in
  fun seq ->
    let rec go draw = function
      | [] -> assert false
      | (w, make) :: tl -> if draw < w then make seq else go (draw - w) tl
    in
    go (Rng.int rng total) mix

(* Inverse-transform sampling; [Rng.float] is in [0, 1) so the log
   argument stays positive. *)
let exp_gap rng ~mean =
  let u = Rng.float rng in
  Stdlib.max 1 (int_of_float (Float.round (-.mean *. log (1.0 -. u))))

let poisson ?clients ~rng ~mean_gap ~count ~mix () =
  let pick = pick_of ~rng ~mix in
  if mean_gap <= 0.0 then invalid_arg "Load.poisson: non-positive mean gap";
  let arrivals =
    Array.make count { at = 0; client = 0; req = { Wire.seq = 0; rk = Echo 0 } }
  in
  let t = ref 0 in
  for seq = 0 to count - 1 do
    t := !t + exp_gap rng ~mean:mean_gap;
    let rk = pick seq in
    arrivals.(seq) <- { at = !t; client = 0; req = { Wire.seq; rk } }
  done;
  (* Client ids draw from the tail of the stream, after every gap and
     kind: attaching a picker never perturbs the arrival times or
     kinds of an existing seed, and pickerless schedules burn no extra
     draws at all. *)
  (match clients with
  | None -> ()
  | Some p ->
    for seq = 0 to count - 1 do
      arrivals.(seq) <- { arrivals.(seq) with client = p rng }
    done);
  arrivals

let ramp ?clients ~rng ~phases ~mix () =
  if phases = [] then invalid_arg "Load.ramp: no phases";
  let segments =
    List.map
      (fun (mean_gap, count) -> poisson ?clients ~rng ~mean_gap ~count ~mix ())
      phases
  in
  let total = List.fold_left (fun acc s -> acc + Array.length s) 0 segments in
  let out =
    Array.make total { at = 0; client = 0; req = { Wire.seq = 0; rk = Echo 0 } }
  in
  let seq = ref 0 in
  let base = ref 0 in
  List.iter
    (fun seg ->
      Array.iter
        (fun a ->
          out.(!seq) <-
            { a with at = !base + a.at; req = { a.req with Wire.seq = !seq } };
          incr seq)
        seg;
      if Array.length seg > 0 then base := !base + seg.(Array.length seg - 1).at)
    segments;
  out

let offered_rate schedule =
  let n = Array.length schedule in
  if n < 2 then 0.0
  else
    let span = schedule.(n - 1).at - schedule.(0).at in
    if span <= 0 then 0.0 else float_of_int (n - 1) /. float_of_int span

(* --- composition -------------------------------------------------------- *)

(* Interleave two schedules by arrival time and renumber: seq must
   stay the array index (the pool's client tracks request state in a
   seq-indexed array). The sort is stable, so equal-time arrivals keep
   a-before-b order and the result is deterministic. *)
let merge a b =
  let all = Array.append a b in
  Array.stable_sort (fun x y -> compare x.at y.at) all;
  Array.mapi (fun i a -> { a with req = { a.req with Wire.seq = i } }) all

(* --- flash crowd and think times ------------------------------------------ *)

(* Flash crowd: a well-behaved base stream plus a sudden crowd — extra
   arrivals at [flash_factor] times the base rate confined to
   [flash_at, flash_at + flash_len), each from one of [crowd_n] fresh
   client ids starting at [crowd_base]. The base stream (including its
   client tail) is drawn first and is byte-identical to plain
   {!poisson} from the same Rng — the flash is a pure extension of the
   draw stream, which is what the non-perturbation test pins. *)
let flash ?clients ~rng ~mean_gap ~count ~mix ~flash_at ~flash_len ~flash_factor
    ~crowd_base ~crowd_n () =
  if flash_factor <= 0.0 then invalid_arg "Load.flash: non-positive factor";
  if crowd_n < 1 then invalid_arg "Load.flash: empty crowd";
  let base = poisson ?clients ~rng ~mean_gap ~count ~mix () in
  let pick = pick_of ~rng ~mix in
  let burst_gap = mean_gap /. flash_factor in
  let rec draw t seq acc =
    let t = t + exp_gap rng ~mean:burst_gap in
    if t >= flash_at + flash_len then List.rev acc
    else
      let rk = pick seq in
      draw t (seq + 1)
        ({ at = t; client = 0; req = { Wire.seq = seq; rk } } :: acc)
  in
  let burst = Array.of_list (draw flash_at 0 []) in
  for i = 0 to Array.length burst - 1 do
    burst.(i) <- { burst.(i) with client = crowd_base + Rng.int rng crowd_n }
  done;
  merge base burst

(* Pre-drawn exponential think times for {!Pool.run_closed}: the k-th
   resolution thinks [samples.(k mod count)] cycles, so the closed
   loop stays deterministic without threading the Rng through the
   client. *)
let think_times ~rng ~mean ~count =
  if mean <= 0.0 then invalid_arg "Load.think_times: non-positive mean";
  if count < 1 then invalid_arg "Load.think_times: no samples";
  let samples = Array.init count (fun _ -> exp_gap rng ~mean) in
  fun k -> samples.(k mod count)
