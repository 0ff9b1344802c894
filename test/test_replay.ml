(* History independence: a seeded full-system sim must log the same
   event stream whatever ran before it in the process, and leave
   nothing reachable once it finished. Every piece of host-side state a
   simulation creates — the program registry and its lambda names, the
   m3fs instance tables, VFS mounts, file notify state — hangs off its
   engine ({!M3_sim.Engine.local}), so a leak of one system's state
   into the next, or past its end, shows up here. *)

module Engine = M3_sim.Engine
module Obs = M3_obs.Obs
module Runner = M3_harness.Runner
module Fig6 = M3_harness.Fig6
module Fig6x = M3_harness.Fig6x

let check_bool = Alcotest.(check bool)
let ok = M3.Errno.ok_exn

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

(* Each system numbers its lambdas from 1, in its own registry: the
   name travels in the [vpe_start] syscall, so a process-wide counter
   would make message sizes depend on what ran earlier. *)
let test_lambda_names_per_engine () =
  let boot () =
    let engine = Engine.create () in
    let sys = M3.Bootstrap.start ~no_fs:true engine in
    let exit =
      M3.Bootstrap.launch sys ~name:"parent" (fun env ->
          let child =
            ok
              (M3.Vpe_api.create env ~name:"child"
                 ~core:M3_hw.Core_type.General_purpose)
          in
          ok (M3.Vpe_api.run env child (fun _ -> 0));
          ignore (ok (M3.Vpe_api.wait env child));
          0)
    in
    ignore (Engine.run engine);
    M3.Bootstrap.expect_exit sys exit;
    engine
  in
  List.iter
    (fun (name, engine) ->
      check_bool (name ^ ": first child is lambda.1") true
        (M3.Program.find engine "lambda.1" <> None);
      check_bool (name ^ ": and the only lambda") true
        (M3.Program.find engine "lambda.2" = None))
    [ ("first system", boot ()); ("second system", boot ()) ]

let test_pool_log_history_independent () =
  let first = logged figs_sim in
  for _ = 1 to 4 do
    figs_sim ()
  done;
  Alcotest.(check string)
    "pool sim after four others logs what it logged first" first
    (logged figs_sim)

let live_mib () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).live_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* A finished system is garbage once its caller drops it: nothing
   outside the engine keeps its DRAM, servers or closures reachable,
   and no frame has to call [M3fs.forget]. *)
let test_finished_systems_are_collected () =
  let fig6 () =
    ignore
      (Fig6.run_multi ~instances:4 ~pes_per_instance:1
         ~seeds_of:(fun _ -> [])
         ~body:(fun ~instance:_ env ~measured ->
           measured (fun () -> ok (M3.Syscalls.noop env)))
         ())
  in
  let crash () = ignore (M3_harness.Crash.run ~quick:true "fsclient") in
  List.iter
    (fun (name, run) ->
      (* The first run warms lazily built tables. *)
      run ();
      let before = live_mib () in
      for _ = 1 to 3 do
        run ()
      done;
      let grown = (live_mib () -. before) /. 3.0 in
      check_bool
        (Printf.sprintf "%s: %.3f MiB live heap left per run" name grown)
        true (grown < 0.02))
    [ ("4-instance Fig6.run_multi", fig6); ("crash sweep fsclient", crash) ];
  let collected = ref false in
  (let engine = Engine.create () in
   Gc.finalise (fun _ -> collected := true) engine;
   let sys = M3.Bootstrap.start engine in
   let exit =
     M3.Bootstrap.launch sys ~name:"app" (fun env ->
         Runner.mounted env;
         0)
   in
   ignore (Engine.run engine);
   M3.Bootstrap.expect_exit sys exit);
  Gc.full_major ();
  check_bool "a finished system's engine is collected" true !collected

(* [Runner.observer] reaches every harness frame, including the
   multi-instance one that has its own [?observe]. *)
let test_hook_traces_run_multi () =
  let log =
    logged (fun () ->
        ignore
          (Fig6.run_multi ~instances:1 ~pes_per_instance:1
             ~seeds_of:(fun _ -> [])
             ~body:(fun ~instance:_ env ~measured ->
               measured (fun () -> ok (M3.Syscalls.noop env)))
             ()))
  in
  check_bool "run_multi logs events under the hook" true (String.length log > 0)

let suites =
  [
    ( "replay",
      [
        Alcotest.test_case "back-to-back runs: byte-identical logs" `Slow
          test_replay_determinism;
        Alcotest.test_case "lambda names are per engine" `Quick
          test_lambda_names_per_engine;
        Alcotest.test_case "pool log independent of history" `Slow
          test_pool_log_history_independent;
        Alcotest.test_case "finished systems are collected" `Slow
          test_finished_systems_are_collected;
        Alcotest.test_case "observer hook traces run_multi" `Quick
          test_hook_traces_run_multi;
      ] );
  ]
