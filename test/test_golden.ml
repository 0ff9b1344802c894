(* Golden digests: the MD5 of each paper figure's printed table and of
   the results JSON of each quick sweep, as recorded before the host
   fast paths (word-wise m3fs bitmaps, unboxed seeding, the flat event
   heap, ring unread counts and cached routes) went in; and the MD5 of
   the obs event logs of every system that fig3 and the quick fig6x
   and figS runs boot, as recorded before the engine fast-forwarded
   waits (Engine.advance), with the quick figS2 run's added before the
   pool dispatcher became a core and a driver (Serve.Dispatch); and
   the MD5 of the seeded bytes of the Fig. 4 images and the
   16-instance Fig. 6 untar image, as recorded before seed data was
   generated on first access (Store.defer); and the MD5 of the event
   logs of the kernel scheduler's own scenarios, as recorded before
   the scheduler lost its time-slicing and virtual VPEs; and the MD5
   of what [m3_repro trace] renders from the fig3 systems and from
   those scenarios (Chrome JSON and summary), as recorded after the
   always-false [cold] flag and the never-emitted [sched.switch] left
   the event vocabulary.
   Those are host changes only, and every later refactor must keep
   these outputs too. A change that means to alter an output updates
   its constant here and says why in CHANGES.md. *)

open M3_harness
module Obs = M3_obs.Obs

let md5 s = Digest.to_hex (Digest.string s)

let printed print lazy_result =
  Format.asprintf "%a" print (Lazy.force lazy_result)

(* [swept print results] is what [m3_repro faults] and [m3_repro
   crash] print for [results]: each one followed by a blank line. *)
let swept print results =
  Format.asprintf "%a"
    (fun ppf -> List.iter (fun r -> Format.fprintf ppf "%a@." print r))
    results

let fig6x_quick = lazy (Fig6x.run ~quick:true ())
let figs2_quick = lazy (Figs2.run ~quick:true ())

let golden =
  [
    ("fig3 table", "801ef2996b555ed29fdf2b31ea7b5a8d", fun () ->
        printed Fig3.print Test_harness.fig3);
    ("fig4 table", "517f1e74c1bccc45e471c11eacf8ca70", fun () ->
        printed Fig4.print Test_harness.fig4);
    ("fig5 table", "1b18060e61d959c2699c464704dd79b5", fun () ->
        printed Fig5.print Test_harness.fig5);
    ("fig6 table", "b6c5c96b0d694fc22d253bac03f9a589", fun () ->
        printed Fig6.print Test_harness.fig6);
    ("fig7 table", "9e400cda82643159a2fef449f1a3b17e", fun () ->
        printed Fig7.print Test_harness.fig7);
    ("T1 table", "55ac2a48838b76e0fc157c0d1a6b7e7a", fun () ->
        printed Tables.print_t1 Test_harness.t1);
    ("T2 table", "d91f48093ab057a3bf2426a6b1c2ffe8", fun () ->
        printed Tables.print_t2 Test_harness.t2);
    ("fig6x --quick JSON", "570d75d1cdaeb904120cb259ff9488bd", fun () ->
        Fig6x.to_json (Lazy.force fig6x_quick));
    ("figS --quick JSON", "394cecbb527e8d67ece4a85199d7b739", fun () ->
        Figs.to_json (Lazy.force Test_serve.figs_quick));
    ("figS2 --quick JSON", "71ead41236aa34f022db871e8a8be04b", fun () ->
        Figs2.to_json (Lazy.force figs2_quick));
    ("faults sweep", "869c72268b16330777906ddc8be6bf21", fun () ->
        swept Faults.print (List.map Faults.run Faults.names));
    ("crash sweep", "c2b82d989d607898558470e3c9d38c2a", fun () ->
        let results = List.map Crash.run Crash.names in
        swept Crash.print results
        ^
        if List.for_all Crash.all_pass results then
          "crash sweep: all cells passed\n"
        else "crash sweep: FAILURES (see verdicts above)\n");
  ]

(* [observing attach run] runs [run] with [attach] hooked onto the
   bus of every system the harness boots. *)
let observing attach run =
  let prev = !Runner.observer in
  Runner.observer := Some attach;
  Fun.protect ~finally:(fun () -> Runner.observer := prev) run

(* [event_logs run] is "<n> systems, <m> events, <md5>" over the obs
   event log of every system [run] boots: the MD5 of the systems' log
   MD5s, in boot order. Frames run their systems one after another, so
   a system's log is complete when the next one boots, and only one
   log is held at a time. *)
let event_logs run =
  let systems = ref 0 and events = ref 0 and digests = ref [] in
  let current = ref None in
  let close () =
    Option.iter
      (fun m ->
        events := !events + Obs.Memory.count m;
        digests := Digest.string (Obs.Memory.to_string m) :: !digests)
      !current;
    current := None
  in
  observing
    (fun o ->
      close ();
      incr systems;
      let m = Obs.Memory.create () in
      Obs.attach o (Obs.Memory.sink m);
      current := Some m)
    run;
  close ();
  Printf.sprintf "%d systems, %d events, %s" !systems !events
    (md5 (String.concat "" (List.rev !digests)))

(* [logs_digest mems] is the same summary over logs already taken. *)
let logs_digest mems =
  Printf.sprintf "%d systems, %d events, %s" (List.length mems)
    (List.fold_left (fun n m -> n + Obs.Memory.count m) 0 mems)
    (md5
       (String.concat ""
          (List.map (fun m -> Digest.string (Obs.Memory.to_string m)) mems)))

let golden_logs =
  [
    ( "fig3 event logs",
      "6 systems, 86574 events, 75364e81cfd3b56298f6b6725cb0482a",
      fun () -> ignore (Fig3.run ()) );
    ( "fig6x --quick event logs",
      "6 systems, 11453 events, 82763ce70a0d7bf9efda28b63b78243c",
      fun () -> ignore (Fig6x.run ~quick:true ()) );
    ( "figS --quick event logs",
      "21 systems, 191954 events, 45345530dee30e8f7530f80c97ef8204",
      fun () -> ignore (Figs.run ~quick:true ()) );
    ( "figS2 --quick event logs",
      "11 systems, 329367 events, de008eb3d5b23f01b8cc696a2ebdf1f2",
      fun () -> ignore (Figs2.run ~quick:true ()) );
  ]

(* The kernel scheduler's own scenarios (test/test_sched.ml), as
   recorded before the scheduler lost its time-slicing and virtual
   VPEs: a mid-run suspend/resume round trip, the abort of a parked
   VPE, and a timed wait migrated to another PE (with and without a
   receive gate on the PE it left). *)
let golden_sched =
  [
    ( "sched round-trip event log",
      "1 systems, 796 events, cfc6baa1ef787bf2f3e1bdb67a67c9b7",
      fun () ->
        [ (Test_sched.run_scenario ~with_sched:true ~suspend_mid:true ()).o_mem ] );
    ( "sched parked-abort event log",
      "1 systems, 460 events, 4ac59aa75d4fd834320a98eee6998a2e",
      fun () ->
        let _, _, _, mem = Test_sched.abort_parked () in
        [ mem ] );
    ( "sched migrated-wait event logs",
      "2 systems, 1702 events, 04a33e6825b57ca61127be208549ac21",
      fun () ->
        List.map
          (fun b_gate -> snd (Test_sched.isolation ~b_gate ()))
          [ true; false ] );
  ]

(* [trace_render run] is what [m3_repro trace] makes of the systems
   [run] hands its attach hook, one call per system: the Chrome JSON
   (a pid namespace per system) and the [Report.print_obs] summary. *)
let trace_render run =
  let chrome = M3_obs.Chrome.create () and metrics = M3_obs.Metrics.create () in
  run (fun obs ->
      M3_obs.Chrome.begin_run chrome;
      Obs.attach obs (M3_obs.Chrome.sink chrome);
      Obs.attach obs (M3_obs.Metrics.sink metrics));
  (M3_obs.Chrome.to_string chrome, Format.asprintf "%a" Report.print_obs metrics)

let fig3_trace =
  lazy
    (trace_render (fun attach ->
         observing attach (fun () -> ignore (Fig3.run ()))))

(* The scheduler scenarios' logs replayed through a fresh bus each:
   the only golden logs with [vpe.suspend] and [vpe.resume]. *)
let sched_trace =
  lazy
    (trace_render (fun attach ->
         List.iter
           (fun (_, _, run) ->
             List.iter
               (fun mem ->
                 let obs = Obs.create ~clock:(fun () -> 0) in
                 attach obs;
                 List.iter
                   (fun (at, ev) -> Obs.emit_at obs ~at ev)
                   (Obs.Memory.events mem))
               (run ()))
           golden_sched))

let golden_traces =
  [
    ("fig3 trace JSON", "c81fa7de73caed170a76e62716f74b37", fun () ->
        fst (Lazy.force fig3_trace));
    ("fig3 trace summary", "33e5a72cb3e7665bbae637d5d2b9df17", fun () ->
        snd (Lazy.force fig3_trace));
    ("sched trace JSON", "e7b44ec05d7b331861ac86efd2675ef5", fun () ->
        fst (Lazy.force sched_trace));
    ("sched trace summary", "18c35752a127206dadb5faf2fce578d3", fun () ->
        snd (Lazy.force sched_trace));
  ]

(* [seeded_bytes systems] boots each system in turn, each handing
   back its engine and m3fs seed list, and is "<n> files, <m> bytes,
   <md5>" over every seeded file's extents, in boot and seed order:
   the MD5 of their per-file MD5s. The bytes are read straight from
   the DRAM store in chunks of at most 4 KiB, so this pins the seeded
   image itself, not what a client's transfers make of it. *)
let seeded_bytes systems =
  let files = ref 0 and bytes = ref 0 and digests = ref [] in
  let image (engine, seeds) =
    let fs = Option.get (M3.M3fs.current_image engine) in
    let store = M3.Fs_image.store fs and bs = M3.Fs_image.block_size fs in
    let file (sd : M3.M3fs.seed) =
      let ino, _ = M3.Errno.ok_exn (M3.Fs_image.lookup fs sd.sd_path) in
      let buf = Buffer.create sd.sd_size in
      List.iter
        (fun (e : M3.Fs_image.extent) ->
          let addr = M3.Fs_image.base fs + M3.Fs_image.block_addr fs e.e_start in
          let len = e.e_len * bs in
          let rec chunk off =
            if off < len then begin
              let n = min 4096 (len - off) in
              Buffer.add_bytes buf
                (M3_mem.Store.read_bytes store ~addr:(addr + off) ~len:n);
              chunk (off + n)
            end
          in
          chunk 0)
        (M3.Fs_image.extents fs ~ino);
      incr files;
      bytes := !bytes + Buffer.length buf;
      digests := Digest.string (Buffer.contents buf) :: !digests
    in
    List.iter (fun (sd : M3.M3fs.seed) -> if not sd.sd_dir then file sd) seeds
  in
  List.iter (fun boot -> image (boot ())) systems;
  Printf.sprintf "%d files, %d bytes, %s" !files !bytes
    (md5 (String.concat "" (List.rev !digests)))

(* The Fig. 4 read images, one 2 MiB file per fragmentation. *)
let fig4_image bpe () =
  let seeds =
    [ { M3.M3fs.sd_path = "/frag.dat"; sd_size = Fig3.total_bytes;
        sd_blocks_per_extent = bpe; sd_dir = false } ]
  in
  let engine = ref None in
  ignore (Runner.run_m3 ~seeds (fun env ~measured:_ -> engine := Some env.M3.Env.engine));
  (Option.get !engine, seeds)

(* The 16-instance, one-shard Fig. 6 untar image. *)
let fig6_untar_image () =
  let pes_per_instance, seeds_of, _ = List.assoc "untar" (Fig6.benches ()) in
  let engine = ref None in
  ignore
    (Fig6.run_multi ~instances:16 ~pes_per_instance ~seeds_of
       ~body:(fun ~instance:_ env ~measured:_ -> engine := Some env.M3.Env.engine)
       ());
  (Option.get !engine, List.concat_map seeds_of (List.init 16 Fun.id))

let golden_images =
  [
    ( "fig4 seeded images",
      "8 files, 16777216 bytes, 9f8444f7245036acb7c66e53c3a2b007",
      List.map fig4_image Fig4.sweep );
    ( "fig6 untar x16 seeded image",
      "16 files, 20692992 bytes, 3a1449f976bbeae72228165b28abbfb8",
      [ fig6_untar_image ] );
  ]

let suites =
  [
    ( "golden",
      List.map
        (fun (name, digest, output) ->
          Alcotest.test_case name `Quick (fun () ->
              Alcotest.(check string)
                (name ^ " digest") digest
                (md5 (output ()))))
        (golden @ golden_traces)
      @ List.map
          (fun (name, expected, run) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name expected (event_logs run)))
          golden_logs
      @ List.map
          (fun (name, expected, run) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name expected (logs_digest (run ()))))
          golden_sched
      @ List.map
          (fun (name, expected, systems) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name expected (seeded_bytes systems)))
          golden_images );
  ]
