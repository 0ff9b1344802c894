(* In-process replay: a seeded full-system sim run twice back to back
   in one process must log a byte-identical event stream. Registries
   that outlive one simulation are keyed by engine id or env uid (m3fs
   images and servers, VFS mounts, file notify state, EP counters), so
   a leak of one system's state into the next shows up here. *)

module Obs = M3_obs.Obs
module Runner = M3_harness.Runner
module Fig6x = M3_harness.Fig6x

let check_bool = Alcotest.(check bool)

(* [logged run] runs [run] with an in-memory sink on the bus of the
   system it boots and returns that system's event log. *)
let logged run =
  let captured = ref None in
  let prev = !Runner.observer in
  Runner.observer :=
    Some
      (fun o ->
        let m = Obs.Memory.create () in
        Obs.attach o (Obs.Memory.sink m);
        captured := Some m);
  Fun.protect ~finally:(fun () -> Runner.observer := prev) run;
  match !captured with
  | Some m -> Obs.Memory.to_string m
  | None -> Alcotest.fail "observer hook did not fire"

(* A figS-style serving-pool sim: boot, pool bring-up, a short seeded
   open-loop burst, drain. *)
let figs_sim () =
  ignore
    (Runner.run_m3 ~pe_count:8 ~dram_mib:4 ~no_fs:true (fun env ~measured ->
         let schedule =
           M3_serve.Load.poisson
             ~rng:(M3_sim.Rng.create ~seed:42)
             ~mean_gap:500.0 ~count:16
             ~mix:(M3_serve.Load.pure (M3_serve.Wire.Echo 1000))
             ()
         in
         let pool =
           M3.Errno.ok_exn
             (M3_serve.Pool.start env
                (M3_serve.Pool.default_config ~name:"trep" ~workers:2 ()))
         in
         measured (fun () ->
             ignore (M3_serve.Pool.run_open env pool ~schedule));
         M3.Errno.ok_exn (M3_serve.Pool.stop env pool)))

let test_replay_determinism () =
  List.iter
    (fun (name, sim) ->
      let first = logged sim in
      let second = logged sim in
      check_bool (name ^ ": log is non-trivial") true
        (String.length first > 1000);
      check_bool (name ^ ": replay log byte-identical") true
        (String.equal first second))
    [
      ("fig6x warm find, primed", fun () ->
          ignore (Fig6x.warm_find_pass ~primed:true ()));
      ("fig6x warm find, unprimed", fun () ->
          ignore (Fig6x.warm_find_pass ~primed:false ()));
      ("figS pool", figs_sim);
    ]

let suites =
  [
    ( "replay",
      [
        Alcotest.test_case "back-to-back runs: byte-identical logs" `Slow
          test_replay_determinism;
      ] );
  ]
