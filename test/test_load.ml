(* Regression tests for the load models beyond plain arrivals:

   - every model ([flash], [think_times]) is a pure function of its
     Rng: same seed, same schedule, cycle for cycle,
   - the draw-order convention holds: attaching a client picker to
     [poisson] never perturbs arrival times or kinds, and [flash]'s
     base stream is byte-identical to plain [poisson] from the same
     seed — the crowd is a pure extension of the draw stream,
   - the shapes are real: the flash crowd lands inside its window with
     fresh identities, and think times respect their floor,
   - bad arguments are refused up front. *)

module Rng = M3_sim.Rng
module Load = M3_serve.Load
module Wire = M3_serve.Wire

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mix = Load.pure (Wire.Echo 1_000)

let same_schedule name a b =
  check_int (name ^ ": same length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Load.arrival) ->
      let y = b.(i) in
      check_int (name ^ ": same arrival time") x.Load.at y.Load.at;
      check_int (name ^ ": same client") x.Load.client y.Load.client;
      check_bool (name ^ ": same request") true (x.Load.req = y.Load.req))
    a

(* --- poisson ------------------------------------------------------------- *)

(* Client ids draw from the tail of the stream, after every gap and
   kind: attaching a picker never moves an arrival or changes its
   kind. A two-kind mix makes the kind check bite. *)
let test_poisson_clients_do_not_perturb () =
  let poisson ?clients () =
    Load.poisson ?clients ~rng:(Rng.create ~seed:43) ~mean_gap:1_000.0
      ~count:300
      ~mix:[ (3, fun _ -> Wire.Echo 1_000); (1, fun seq -> Wire.Fs_stat seq) ]
      ()
  in
  let bare = poisson () in
  let picked = poisson ~clients:(Load.uniform_clients ~n:4) () in
  check_int "same length" (Array.length bare) (Array.length picked);
  check_bool "the picker drew clients" true
    (Array.exists (fun (a : Load.arrival) -> a.Load.client <> 0) picked);
  Array.iteri
    (fun i (x : Load.arrival) ->
      let y = picked.(i) in
      check_int "picker does not move arrivals" x.Load.at y.Load.at;
      check_bool "picker does not change kinds" true (x.Load.req = y.Load.req))
    bare

(* --- flash --------------------------------------------------------------- *)

let flash_at = 50_000
let flash_len = 30_000

let flash ~seed () =
  Load.flash
    ~clients:(Load.uniform_clients ~n:3)
    ~rng:(Rng.create ~seed) ~mean_gap:1_000.0 ~count:200 ~mix ~flash_at
    ~flash_len ~flash_factor:6.0 ~crowd_base:100 ~crowd_n:4 ()

let test_flash_deterministic () =
  same_schedule "flash" (flash ~seed:45 ()) (flash ~seed:45 ())

(* The base stream is drawn first, client tail included: the flash
   schedule's non-crowd arrivals are byte-identical to plain poisson
   from the same seed. *)
let test_flash_extends_poisson () =
  let flashed = flash ~seed:46 () in
  let plain =
    Load.poisson
      ~clients:(Load.uniform_clients ~n:3)
      ~rng:(Rng.create ~seed:46) ~mean_gap:1_000.0 ~count:200 ~mix ()
  in
  let base =
    Array.of_list
      (List.filter
         (fun (a : Load.arrival) -> a.Load.client < 100)
         (Array.to_list flashed))
  in
  (* Sequence numbers are restamped when the crowd is spliced in, so
     compare times, clients and kinds. *)
  check_int "flash adds, never replaces" (Array.length plain) (Array.length base);
  Array.iteri
    (fun i (x : Load.arrival) ->
      let y = base.(i) in
      check_int "same arrival time" x.Load.at y.Load.at;
      check_int "same client" x.Load.client y.Load.client;
      check_bool "same kind" true (x.Load.req.Wire.rk = y.Load.req.Wire.rk))
    plain

let test_flash_crowd_in_window () =
  let flashed = flash ~seed:47 () in
  let crowd =
    List.filter
      (fun (a : Load.arrival) -> a.Load.client >= 100)
      (Array.to_list flashed)
  in
  check_bool "the crowd showed up" true (List.length crowd > 0);
  List.iter
    (fun (a : Load.arrival) ->
      check_bool "crowd identity in range" true
        (a.Load.client >= 100 && a.Load.client < 104);
      check_bool "crowd confined to its window" true
        (a.Load.at >= flash_at && a.Load.at < flash_at + flash_len))
    crowd

(* --- think times --------------------------------------------------------- *)

let test_think_times_deterministic_and_clamped () =
  let think ~seed = Load.think_times ~rng:(Rng.create ~seed) ~mean:800.0 ~count:32 in
  let a = think ~seed:48 and b = think ~seed:48 in
  for k = 0 to 99 do
    check_int "same seed, same think time" (a k) (b k);
    check_bool "think time respects the floor" true (a k >= 1);
    check_int "lookup wraps at count" (a k) (a (k + 32))
  done;
  match Load.think_times ~rng:(Rng.create ~seed:1) ~mean:0.0 ~count:4 with
  | exception Invalid_argument _ -> ()
  | (_ : int -> int) -> Alcotest.fail "non-positive mean was accepted"

let suites =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "serve.load-models",
      [
        tc "poisson clients do not perturb arrivals"
          test_poisson_clients_do_not_perturb;
        tc "flash is deterministic" test_flash_deterministic;
        tc "flash extends poisson" test_flash_extends_poisson;
        tc "flash crowd stays in its window" test_flash_crowd_in_window;
        tc "think times deterministic and clamped"
          test_think_times_deterministic_and_clamped;
      ] );
  ]
