(* The perf ledger: one seeded workload per process, measured end to
   end and layer by layer.

     ledger.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
     ledger.exe compare PARENT CHANGE
     ledger.exe selftest

   A run repeats the workload's unit — identical inputs drawn from the
   seed — until the time budget is spent, and reports host metrics
   over its units. Every unit must produce the same simulated
   outputs (the sim digest), traced or not. With [--trace 1] units
   alternate untraced and traced: the untraced ones give the host
   timers, the traced ones the span table, the obs-derived counters
   and the tracing overhead. *)

open M3_harness.Figs

let workloads =
  [
    ("boot-churn", Churn.run);
    ("fs-scale", Fsscale.run);
    ("serve-open", Openloop.run);
    ("kv-read", Kvload.run ~reads:9 ~writes:1 ~requests:24_000);
    ("kv-write", Kvload.run ~reads:1 ~writes:1 ~requests:32_000);
  ]

let end_to_end =
  [
    ("host_s", "s");
    ("setup_s", "s");
    ("peak_rss_mib", "MiB");
    ("sim_mcycles", "Mcycles");
    ("p50_cyc", "cycles");
    ("p99_cyc", "cycles");
    ("capacity_rpmc", "req/Mcycle");
  ]

type sample = {
  traced : bool;
  speed : Calib.t;  (** the host-speed reference timed before the unit *)
  host : float;
  user : float;
  sys : float;
  minor : float;
  major : float;
  collections : int;
  rss0 : float;  (** MiB resident when the unit started *)
  peak : float;  (** MiB, the unit process's [VmHWM] *)
  ctx : Ctx.t;
  digest : string;
}

let run_unit ~run ~seed ~tiny ~spans =
  let ctx = Ctx.create ~seed ~tiny ~spans in
  let rss0 = Meter.rss_mib () in
  let g0 = Gc.quick_stat () and c0 = Unix.times () and h0 = Meter.now () in
  run ctx;
  let h1 = Meter.now () and c1 = Unix.times () and g1 = Gc.quick_stat () in
  let spans = ctx.Ctx.spans in
  Option.iter Span.close_unit spans;
  let digest = Ctx.finish ctx in
  ctx.Ctx.spans <- None;
  let delta (f : Unix.process_times -> float) = f c1 -. f c0 in
  ( {
      traced = spans <> None;
      speed = { Calib.compute = nan; fault = nan };
      host = h1 -. h0;
      user = delta (fun t -> t.Unix.tms_utime);
      sys = delta (fun t -> t.Unix.tms_stime);
      minor = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
      major = (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6;
      collections = g1.Gc.major_collections - g0.Gc.major_collections;
      rss0;
      peak = nan;
      ctx;
      digest;
    },
    spans )

(* Units until [seconds] have passed, and at least three untraced or
   (when tracing) two pairs of an untraced and a traced unit. Returns
   the samples and the span recorder. *)
let run_units ~run ~seed ~seconds ~trace =
  let spans = ref (if trace then Some (Span.create ()) else None) in
  let min_units = if trace then 4 else 3 in
  let start = Meter.now () in
  let rec loop acc i =
    let traced = trace && i mod 2 = 1 in
    let spans_in = if traced then !spans else None in
    let speed = Calib.measure () in
    (* Each unit runs in a child process, so every unit starts from the
       same process-global library state, and everything the library
       keeps reachable after a simulation counts in that unit's peak. *)
    match Isolate.run (fun () -> run_unit ~run ~seed ~tiny:false ~spans:spans_in) with
    | Error msg -> Error msg
    | Ok ((s, sp), rss) ->
      let s = { s with speed; peak = rss } in
      if traced then spans := sp;
      let acc = s :: acc in
      if i + 1 < min_units || Meter.now () -. start < seconds then
        loop acc (i + 1)
      else Ok (List.rev acc)
  in
  Result.map (fun samples -> (samples, !spans)) (loop [] 0)

let med f samples = Meter.median (List.map f samples)

let lower_quartile f samples =
  let q1, _, _ = Meter.quartiles (List.map f samples) in
  q1
let finite v = if Float.is_finite v then v else 0.0

(* [at_reference samples] maps a unit to its host seconds on the
   reference host (see Calib): user CPU time scaled by the run's median
   compute reference, system time by its median fault reference. *)
let at_reference samples =
  let compute = med (fun s -> s.speed.Calib.compute) samples
  and fault = med (fun s -> s.speed.Calib.fault) samples in
  fun s ->
    (s.user *. Calib.reference.compute /. compute)
    +. (s.sys *. Calib.reference.fault /. fault)

(* Simulated per-layer values: obs-derived ones from the first traced
   unit, the rest from the accessors every unit records. *)
let sim_value samples name =
  let layer =
    List.find_map
      (fun s -> if s.traced then Hashtbl.find_opt s.ctx.Ctx.layer name else None)
      samples
  in
  match layer with Some v -> v | None -> Ctx.get (List.hd samples).ctx name

let per_layer ~samples ~probes =
  let plain = List.filter (fun s -> not s.traced) samples in
  let traced = List.filter (fun s -> s.traced) samples in
  let at_ref = at_reference samples in
  let all f = List.concat_map (fun s -> f s.ctx) plain in
  let first = (List.hd samples).ctx in
  let sim name unit = (name, sim_value samples name, unit) in
  let attempted = List.fold_left (fun a s -> a + s.ctx.Ctx.attempted) 0 samples in
  let failed = List.fold_left (fun a s -> a + s.ctx.Ctx.failed) 0 samples in
  [
    ("host.wall_s", med (fun s -> s.host) plain, "s");
    ("host.cpu_s", med (fun s -> s.user +. s.sys) plain, "s");
    ("host.ref_compute_s", med (fun s -> s.speed.Calib.compute) samples, "s");
    ("host.ref_fault_s", med (fun s -> s.speed.Calib.fault) samples, "s");
    ("bootstrap.start_ms", Meter.median (all (fun c -> c.Ctx.boot_ms)), "ms");
    ( "bootstrap.host_frac",
      med
        (fun s -> List.fold_left ( +. ) 0.0 s.ctx.Ctx.boot_ms /. 1e3 /. s.host)
        plain,
      "frac" );
    ("engine.boot_ms", Meter.median (all (fun c -> c.Ctx.engine_boot_ms)), "ms");
    ("engine.events", float_of_int first.Ctx.events, "count");
    ( "engine.ns_per_event",
      med
        (fun s ->
          s.ctx.Ctx.body_host /. float_of_int (max 1 s.ctx.Ctx.body_events) *. 1e9)
        plain,
      "ns" );
    ("gc.minor_mwords", med (fun s -> s.minor) plain, "Mwords");
    ("gc.major_mwords", med (fun s -> s.major) plain, "Mwords");
    ("gc.major_collections", med (fun s -> float_of_int s.collections) plain, "count");
    ("host.sys_frac", med (fun s -> s.sys /. Float.max 1e-9 (s.user +. s.sys)) plain, "frac");
    ( "host.retained_mib_per_system",
      med (fun s -> (s.peak -. s.rss0) /. float_of_int (max 1 s.ctx.Ctx.systems)) plain,
      "MiB" );
    ( "obs.trace_overhead_frac",
      med at_ref traced /. med at_ref plain -. 1.0,
      "frac" );
  ]
  @ probes
  @ [
      sim "kernel.syscalls" "count";
      sim "kernel.syscall_p99_cyc" "cycles";
      sim "dtu.msgs" "count";
      sim "dtu.mem_kib" "KiB";
      sim "dtu.retransmits" "count";
      sim "noc.kib" "KiB";
      sim "noc.max_link_util" "frac";
      sim "noc.queue_p99_cyc" "cycles";
      sim "m3fs.op_p99_cyc" "cycles";
      sim "m3fs.queue_p95" "count";
      sim "fs.replay_p50_cyc" "cycles";
      sim "vfs.round_trips" "count";
      sim "fs_cache.hit_ratio" "frac";
      sim "fs_cache.invals" "count";
      sim "fs_cache.kept" "count";
      sim "serve.service_p99_cyc" "cycles";
      sim "serve.disp_p99_cyc" "cycles";
      sim "serve.batch_mean" "count";
      sim "serve.max_depth" "count";
      sim "serve.gen_late_p99_cyc" "cycles";
      sim "serve.p99_cyc_u50" "cycles";
      sim "serve.p99_cyc_u95" "cycles";
      sim "kv.exec_p99_cyc" "cycles";
      sim "kv.dup_skips" "count";
      sim "kv.double_applied" "count";
      ( "fail_frac",
        float_of_int failed /. float_of_int (max 1 attempted),
        "frac" );
    ]

let num v = Printf.sprintf "%.17g" (finite v)

(* Chrome traces land here, relative to the repository root. *)
let out_dir = "ledger/out"

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* Print a finished run: metric lines, digest, span table and Chrome
   trace, the run record, and last the result object. *)
let report ~name ~seed ~seconds ~trace (samples, spans) =
  let plain = List.filter (fun s -> not s.traced) samples in
  let first = (List.hd samples).ctx in
  (* Host times at the reference host speed, set-up at its unit's scale.
     Interference on a shared host only ever slows a unit down, so the
     lower quartile over units estimates the undisturbed time more
     steadily than the median. *)
  let at_ref = at_reference samples in
  let setup s = s.ctx.Ctx.setup *. at_ref s /. Float.max 1e-9 (s.user +. s.sys) in
  let e2e =
    List.map
      (fun (m, unit) ->
        let v =
          match m with
          | "host_s" -> lower_quartile at_ref plain
          | "setup_s" -> lower_quartile setup plain
          | "peak_rss_mib" -> List.fold_left (fun m s -> Float.max m s.peak) 0.0 samples
          | m -> Ctx.get first m
        in
        (m, v, unit))
      end_to_end
  in
  let layer =
    if trace then per_layer ~samples ~probes:(Probes.all ()) else []
  in
  let errors = List.concat_map (fun s -> List.rev s.ctx.Ctx.errors) samples in
  let digest = (List.hd samples).digest in
  let digests_agree = List.for_all (fun s -> s.digest = digest) samples in
  let e2e_ok = List.for_all (fun (_, v, _) -> Float.is_finite v && v > 0.0) e2e in
  let correct = errors = [] && digests_agree && e2e_ok in
  List.iter (prerr_endline) (List.filteri (fun i _ -> i < 20) errors);
  if not digests_agree then
    prerr_endline "ledger: units of one run disagree on their simulated outputs";
  if not e2e_ok then prerr_endline "ledger: an end-to-end metric is not a positive number";
  let attempted = List.fold_left (fun a s -> a + s.ctx.Ctx.attempted) 0 samples in
  let failed = List.fold_left (fun a s -> a + s.ctx.Ctx.failed) 0 samples in
  let shown = e2e @ layer in
  List.iter (fun (m, v, unit) -> Printf.printf "%s %.6g %s\n" m (finite v) unit) shown;
  Printf.printf "units %d (%d traced)\n" (List.length samples)
    (List.length (List.filter (fun s -> s.traced) samples));
  Printf.printf "sim_digest %s\n" digest;
  Option.iter
    (fun sp ->
      Span.print_table Format.std_formatter sp;
      mkdir_p out_dir;
      let path = Filename.concat out_dir (Printf.sprintf "%s-s%d.trace.json" name seed) in
      Span.write_chrome sp path;
      Printf.printf "chrome trace: %s\n" path)
    spans;
  print_endline
    (jobj
       [
         ("workload", jstr name);
         ("seed", string_of_int seed);
         ("trace", jbool trace);
         ("seconds", num seconds);
         ("units", string_of_int (List.length samples));
         ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("sim_digest", jstr digest);
         ("correct", jbool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", jobj (List.map (fun (m, v, _) -> (m, num v)) shown));
         ("unit_host_s", jarr (List.map (fun s -> num s.host) samples));
       ]);
  let reported = if trace then layer else e2e in
  print_endline
    (jobj
       [
         ("correct", jbool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           jobj
             (List.map
                (fun (m, v, unit) -> (m, jobj [ ("value", num v); ("unit", jstr unit) ]))
                reported) );
       ]);
  if correct then 0 else 1

let run_cmd ~name ~seed ~seconds ~trace =
  match List.assoc_opt name workloads with
  | None ->
    Printf.eprintf "ledger: unknown workload %S (one of: %s)\n" name
      (String.concat ", " (List.map fst workloads));
    2
  | Some run -> (
    match run_units ~run ~seed ~seconds ~trace with
    | Error msg ->
      prerr_endline ("ledger: " ^ name ^ ": " ^ msg);
      1
    | Ok result -> report ~name ~seed ~seconds ~trace result)

(* Every workload at a tiny size: the same seed twice gives the same
   digest, tracing leaves it unchanged, and another seed changes it. *)
let selftest () =
  let ok = ref true in
  List.iter
    (fun (name, run) ->
      let unit ?spans seed =
        match
          Isolate.run (fun () ->
              let s, _ = run_unit ~run ~seed ~tiny:true ~spans in
              (s.digest, s.ctx.Ctx.errors))
        with
        | Ok (r, _) -> r
        | Error msg -> ("", [ msg ])
      in
      let a, ea = unit 11 and a', _ = unit 11 in
      let t, _ = unit ~spans:(Span.create ()) 11 in
      let b, eb = unit 12 in
      let fails =
        List.filter_map
          (fun (cond, msg) -> if cond then None else Some msg)
          [
            (ea = [] && eb = [], String.concat "; " (ea @ eb));
            (a = a', "seed 11 twice gave two digests");
            (a = t, "tracing changed the simulated outputs");
            (a <> b, "seeds 11 and 12 gave the same digest");
          ]
      in
      if fails <> [] then ok := false;
      Printf.printf "selftest %-10s %s\n%!" name
        (if fails = [] then "ok" else "FAIL: " ^ String.concat "; " fails))
    workloads;
  if !ok then 0 else 1

let usage =
  "usage: ledger.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
  \       ledger.exe compare PARENT CHANGE\n\
  \       ledger.exe selftest"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "run" :: rest ->
      let name = ref "" and seed = ref 11 and seconds = ref 20.0 and trace = ref false in
      let rec parse = function
        | "--workload" :: v :: r -> name := v; parse r
        | "--seed" :: v :: r -> seed := int_of_string v; parse r
        | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
        | "--trace" :: v :: r -> trace := int_of_string v <> 0; parse r
        | v :: r when !name = "" && v <> "" && v.[0] <> '-' ->
          name := v;
          parse r
        | [] -> ()
        | a :: _ -> failwith ("unexpected argument " ^ a)
      in
      (match parse rest with
      | () -> run_cmd ~name:!name ~seed:!seed ~seconds:!seconds ~trace:!trace
      | exception (Failure msg | Invalid_argument msg) ->
        prerr_endline ("ledger: " ^ msg);
        prerr_endline usage;
        2)
    | [ "compare"; a; b ] -> Compare.run ~bench:"BENCHMARK.json" a b
    | [ "selftest" ] -> selftest ()
    | _ ->
      prerr_endline usage;
      2
  in
  exit code
