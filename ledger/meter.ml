(* Host-side measurement helpers: wall clock, resident memory, and the
   order statistics the ledger reports. *)

let now = Unix.gettimeofday

(* A [/proc/self/status] field in KiB ("VmHWM", "VmRSS"); 0 where the
   file does not exist. *)
let status_kib field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let prefix = field ^ ":" in
    let n = String.length prefix in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > n && String.sub line 0 n = prefix ->
        Scanf.sscanf (String.sub line n (String.length line - n)) " %d" Fun.id
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_rss_mib () = float_of_int (status_kib "VmHWM") /. 1024.0
let rss_mib () = float_of_int (status_kib "VmRSS") /. 1024.0

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so that quartiles printed here match
   ones computed elsewhere from the same values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let pct st p = M3_sim.Stats.percentile st p
