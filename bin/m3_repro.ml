(* Command-line driver for the M3 reproduction: run individual
   experiments, inspect the platform, or boot a small demo.

   Examples:
     m3_repro run fig3 fig5
     m3_repro run --all -v
     m3_repro platform --pes 16
     m3_repro demo *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let ppf = Format.std_formatter

(* Dumps one sweep's machine-readable results next to its printout. *)
let write_results path json =
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Format.fprintf ppf "results written to %s@." path

(* Each experiment prints its figure and returns the paper claims its
   results cover ({!M3_harness.Report}); [run] ends with their summary.
   Each takes a [quick] flag; most ignore it (their full runs are
   already CI-sized), the sweeps (fig6x, figS, figS2) shrink. *)
let experiments =
  let open M3_harness in
  let fig print verdicts t =
    print ppf t;
    verdicts t
  in
  let sweep print to_json path t =
    print ppf t;
    write_results path (to_json t);
    []
  in
  [
    ("fig3", fun ~quick:_ -> fig Fig3.print Report.fig3_verdicts (Fig3.run ()));
    ("fig4", fun ~quick:_ -> fig Fig4.print Report.fig4_verdicts (Fig4.run ()));
    ("fig5", fun ~quick:_ -> fig Fig5.print Report.fig5_verdicts (Fig5.run ()));
    ("fig6", fun ~quick:_ -> fig Fig6.print Report.fig6_verdicts (Fig6.run ()));
    ( "fig6x",
      fun ~quick ->
        sweep Fig6x.print Fig6x.to_json "FIG6X_results.json"
          (Fig6x.run ~quick ()) );
    ("fig7", fun ~quick:_ -> fig Fig7.print Report.fig7_verdicts (Fig7.run ()));
    ( "figS",
      fun ~quick ->
        sweep Figs.print Figs.to_json "SERVE_results.json" (Figs.run ~quick ())
    );
    ( "figS2",
      fun ~quick ->
        sweep Figs2.print Figs2.to_json "FIGS2_results.json"
          (Figs2.run ~quick ()) );
    ( "t1",
      fun ~quick:_ -> fig Tables.print_t1 Report.t1_verdicts (Tables.run_t1 ())
    );
    ( "t2",
      fun ~quick:_ -> fig Tables.print_t2 Report.t2_verdicts (Tables.run_t2 ())
    );
    ( "ablations",
      fun ~quick:_ -> fig Ablations.print (fun _ -> []) (Ablations.run ()) );
  ]

let names = List.map fst experiments

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
  let which =
    let doc =
      Printf.sprintf "Experiments to run (any of %s)."
        (String.concat ", " names)
    in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~doc ~docv:"EXPERIMENT")
  in
  let all =
    Arg.(value & flag & info [ "all"; "a" ] ~doc:"Run every experiment.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Shrink sweeps to a CI-sized smoke (honored by fig6x, figS and \
             figS2).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")
  in
  let run which all quick verbose =
    setup_logs verbose;
    let which = if all || which = [] then names else which in
    let verdicts =
      List.concat_map
        (fun name ->
          let verdicts = (List.assoc name experiments) ~quick in
          Format.fprintf ppf "@.";
          verdicts)
        which
    in
    if verdicts <> [] then M3_harness.Report.print ppf verdicts
  in
  let doc = "Reproduce the paper's evaluation figures and tables." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ which $ all $ quick $ verbose)

(* --- platform ------------------------------------------------------------ *)

let platform_cmd =
  let pes =
    Arg.(value & opt int 16 & info [ "pes" ] ~doc:"Number of PEs." ~docv:"N")
  in
  let show pes =
    let engine = M3_sim.Engine.create () in
    let config = { M3_hw.Platform.default_config with pe_count = pes } in
    let platform = M3_hw.Platform.create ~config engine in
    let topo = M3_noc.Fabric.topology (M3_hw.Platform.fabric platform) in
    Format.fprintf ppf "Tomahawk-like platform:@.";
    Format.fprintf ppf "  PEs: %d (+1 DRAM node) on a %dx%d mesh@."
      (M3_hw.Platform.pe_count platform)
      (M3_noc.Topology.cols topo) (M3_noc.Topology.rows topo);
    List.iter
      (fun pe ->
        Format.fprintf ppf "  pe%-3d %a, %d KiB SPM, %d endpoints@."
          (M3_hw.Pe.id pe) M3_hw.Core_type.pp (M3_hw.Pe.core pe)
          (M3_mem.Store.size (M3_hw.Pe.spm pe) / 1024)
          (M3_dtu.Dtu.ep_count (M3_hw.Pe.dtu pe)))
      (M3_hw.Platform.pes platform);
    Format.fprintf ppf "  DRAM: %d MiB on node %d@."
      (M3_mem.Store.size (M3_hw.Platform.dram platform) / 1024 / 1024)
      (M3_hw.Platform.dram_node platform)
  in
  let doc = "Describe the simulated platform." in
  Cmd.v (Cmd.info "platform" ~doc) Term.(const show $ pes)

(* --- demo ------------------------------------------------------------------ *)

let demo_cmd =
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")
  in
  let demo verbose =
    setup_logs verbose;
    let engine = M3_sim.Engine.create () in
    let sys = M3.Bootstrap.start engine in
    let status =
      M3.Bootstrap.launch sys ~name:"demo" (fun env ->
          M3.Errno.ok_exn (M3.Vfs.mount_root env);
          let file =
            M3.Errno.ok_exn
              (M3.Vfs.open_ env "/demo.txt"
                 ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_create))
          in
          M3.Errno.ok_exn
            (M3.File.write_string env file
               "M3 booted: kernel PE + m3fs + demo VPE\n");
          M3.Errno.ok_exn (M3.File.close env file);
          let file =
            M3.Errno.ok_exn
              (M3.Vfs.open_ env "/demo.txt" ~flags:M3.Fs_proto.o_read)
          in
          let s = M3.Errno.ok_exn (M3.File.read_all env file ~max:1024) in
          M3.Errno.ok_exn (M3.File.close env file);
          print_string s;
          0)
    in
    let cycles = M3_sim.Engine.run engine in
    match M3_sim.Process.Ivar.peek status with
    | Some 0 -> Format.fprintf ppf "demo completed after %d cycles@." cycles
    | Some c ->
      Format.fprintf ppf "demo FAILED with code %d@." c;
      exit 1
    | None ->
      Format.fprintf ppf "demo did not terminate@.";
      exit 1
  in
  let doc = "Boot the system and exercise the filesystem once." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const demo $ verbose)

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let which =
    let doc =
      Printf.sprintf "Experiment to trace (any of %s)."
        (String.concat ", " names)
    in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [] ~doc ~docv:"EXPERIMENT")
  in
  let out =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "output" ]
          ~doc:"Chrome trace-event JSON output path (chrome://tracing, Perfetto)."
          ~docv:"FILE")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")
  in
  let trace which out verbose =
    setup_logs verbose;
    let chrome = M3_obs.Chrome.create () in
    let metrics = M3_obs.Metrics.create () in
    (* One experiment boots several systems (M3 variants, scaling
       points); each gets its own pid namespace in the trace. *)
    M3_harness.Runner.observer :=
      Some
        (fun obs ->
          M3_obs.Chrome.begin_run chrome;
          M3_obs.Obs.attach obs (M3_obs.Chrome.sink chrome);
          M3_obs.Obs.attach obs (M3_obs.Metrics.sink metrics));
    Fun.protect
      ~finally:(fun () -> M3_harness.Runner.observer := None)
      (fun () ->
        ignore ((List.assoc which experiments) ~quick:false);
        Format.fprintf ppf "@.");
    M3_obs.Chrome.write_file chrome out;
    M3_harness.Report.print_obs ppf metrics;
    Format.fprintf ppf "trace written to %s@." out
  in
  let doc =
    "Run one experiment with tracing on and export a Chrome trace."
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace $ which $ out $ verbose)

(* --- faults ----------------------------------------------------------------- *)

let faults_cmd =
  let fault_names = M3_harness.Faults.names in
  let which =
    let doc =
      Printf.sprintf "Workloads to sweep (any of %s)."
        (String.concat ", " fault_names)
    in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) fault_names)) []
      & info [] ~doc ~docv:"EXPERIMENT")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")
  in
  let faults which verbose =
    setup_logs verbose;
    let which = if which = [] then fault_names else which in
    List.iter
      (fun name ->
        M3_harness.Faults.print ppf (M3_harness.Faults.run name);
        Format.fprintf ppf "@.")
      which
  in
  let doc =
    "Sweep injected message-drop rates against a workload and report how \
     the DTU's retransmit/NACK machinery absorbs them."
  in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const faults $ which $ verbose)

(* --- crash ------------------------------------------------------------------ *)

let crash_cmd =
  let role_names = M3_harness.Crash.names in
  let which =
    let doc =
      Printf.sprintf "Roles to crash (any of %s)."
        (String.concat ", " role_names)
    in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) role_names)) []
      & info [] ~doc ~docv:"ROLE")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Run a single mid-life crash point per role (CI smoke).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")
  in
  let crash which quick verbose =
    setup_logs verbose;
    let which = if which = [] then role_names else which in
    let results = List.map (M3_harness.Crash.run ~quick) which in
    List.iter
      (fun r ->
        M3_harness.Crash.print ppf r;
        Format.fprintf ppf "@.")
      results;
    if List.for_all M3_harness.Crash.all_pass results then
      Format.fprintf ppf "crash sweep: all cells passed@."
    else begin
      Format.fprintf ppf "crash sweep: FAILURES (see verdicts above)@.";
      exit 1
    end
  in
  let doc =
    "Kill a PE at several points of a workload's lifetime and verify the \
     kernel detects it, contains the damage, and restarts the work on a \
     spare PE."
  in
  Cmd.v (Cmd.info "crash" ~doc) Term.(const crash $ which $ quick $ verbose)

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let stats () =
    let engine = M3_sim.Engine.create () in
    let sys = M3.Bootstrap.start engine in
    (* A small workload so the counters have something to say. *)
    let status =
      M3.Bootstrap.launch sys ~name:"workload" (fun env ->
          M3.Errno.ok_exn (M3.Vfs.mount_root env);
          let f =
            M3.Errno.ok_exn
              (M3.Vfs.open_ env "/stats-demo"
                 ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_create))
          in
          let buf = M3.Env.alloc_spm env ~size:4096 in
          for _ = 1 to 64 do
            M3.Errno.ok_exn (M3.File.write env f ~local:buf ~len:4096)
          done;
          M3.Errno.ok_exn (M3.File.close env f);
          0)
    in
    let cycles = M3_sim.Engine.run engine in
    let clean = M3_sim.Process.Ivar.peek status = Some 0 in
    if not clean then
      Format.fprintf ppf "warning: workload did not finish cleanly@.";
    let platform = sys.M3.Bootstrap.platform in
    Format.fprintf ppf
      "Counters after writing a 256 KiB file (%d simulated cycles):@." cycles;
    Format.fprintf ppf "  kernel: %d syscalls handled@."
      (M3.Kernel.syscalls_handled sys.M3.Bootstrap.kernel);
    let fabric = M3_hw.Platform.fabric platform in
    Format.fprintf ppf "  noc: %d packets, %d payload bytes@."
      (M3_noc.Fabric.packets_sent fabric)
      (M3_noc.Fabric.bytes_sent fabric);
    List.iter
      (fun pe ->
        let dtu = M3_hw.Pe.dtu pe in
        let sent = M3_dtu.Dtu.msgs_sent dtu
        and recv = M3_dtu.Dtu.msgs_received dtu
        and dropped = M3_dtu.Dtu.msgs_dropped dtu
        and rd = M3_dtu.Dtu.mem_bytes_read dtu
        and wr = M3_dtu.Dtu.mem_bytes_written dtu in
        if sent + recv + rd + wr > 0 then
          Format.fprintf ppf
            "  pe%-3d dtu: %4d msgs out, %4d in, %d dropped, %8d B read, %8d B written@."
            (M3_hw.Pe.id pe) sent recv dropped rd wr)
      (M3_hw.Platform.pes platform);
    if not clean then exit 1
  in
  let doc = "Run a small workload and dump hardware/OS counters." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const stats $ const ())

let () =
  let doc = "M3 (ASPLOS'16) hardware/OS co-design reproduction" in
  let info = Cmd.info "m3_repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            trace_cmd;
            faults_cmd;
            crash_cmd;
            platform_cmd;
            demo_cmd;
            stats_cmd;
          ]))
