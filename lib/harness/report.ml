type verdict = {
  claim : string;
  measured : string;
  pass : bool;
}

let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b)

let v claim measured pass = { claim; measured; pass }

let fig3_verdicts (t : Fig3.t) =
  let m3_sys = t.Fig3.syscall.Fig3.m3.Runner.m_cycles in
  let ordering name (b : Fig3.bars) =
    v
      (Printf.sprintf "%s: M3 < Lx-$ < Lx" name)
      (Printf.sprintf "%s < %s < %s"
         (Runner.fmt_k b.Fig3.m3.Runner.m_cycles)
         (Runner.fmt_k b.Fig3.lx_ideal.Runner.m_cycles)
         (Runner.fmt_k b.Fig3.lx.Runner.m_cycles))
      (b.Fig3.m3.Runner.m_cycles < b.Fig3.lx_ideal.Runner.m_cycles
      && b.Fig3.lx_ideal.Runner.m_cycles < b.Fig3.lx.Runner.m_cycles)
  in
  [
    v "null syscall ≈ 200 cycles on M3, 410 on Linux"
      (Printf.sprintf "%d vs %d" m3_sys t.Fig3.syscall.Fig3.lx.Runner.m_cycles)
      (m3_sys >= 170 && m3_sys <= 240
      && t.Fig3.syscall.Fig3.lx.Runner.m_cycles = 410);
    ordering "read" t.Fig3.read;
    ordering "write" t.Fig3.write;
    ordering "pipe" t.Fig3.pipe;
  ]

let fig4_verdicts points =
  let find bpe = List.find (fun p -> p.Fig4.blocks_per_extent = bpe) points in
  let r16 = (find 16).Fig4.read.Runner.m_cycles in
  let r256 = (find 256).Fig4.read.Runner.m_cycles in
  let r2048 = (find 2048).Fig4.read.Runner.m_cycles in
  [
    v "fragmentation: steep until 256 blocks/extent, then flat"
      (Printf.sprintf "read %s @16 -> %s @256 -> %s @2048" (Runner.fmt_k r16)
         (Runner.fmt_k r256) (Runner.fmt_k r2048))
      (r16 > r256 && r256 > r2048 && r16 - r256 > 4 * (r256 - r2048));
  ]

let fig5_verdicts rows =
  let row name = List.find (fun r -> r.Fig5.name = name) rows in
  let ratio name =
    let r = row name in
    pct r.Fig5.m3.Runner.m_cycles r.Fig5.lx.Runner.m_cycles
  in
  [
    v "cat+tr ≈ 2x faster on M3"
      (Printf.sprintf "%.0f%% of Linux" (ratio "cat+tr"))
      (ratio "cat+tr" > 40.0 && ratio "cat+tr" < 70.0);
    v "tar ≈ 20% / untar ≈ 16% of Linux time"
      (Printf.sprintf "%.0f%% / %.0f%%" (ratio "tar") (ratio "untar"))
      (ratio "tar" < 35.0 && ratio "untar" < 35.0);
    v "find slightly slower on M3"
      (Printf.sprintf "%.0f%% of Linux" (ratio "find"))
      (ratio "find" > 100.0 && ratio "find" < 170.0);
    v "sqlite about equal (compute-bound)"
      (Printf.sprintf "%.0f%% of Linux" (ratio "sqlite"))
      (ratio "sqlite" > 85.0 && ratio "sqlite" <= 102.0);
  ]

let fig6_verdicts curves =
  let norm bench n =
    let c = List.find (fun c -> c.Fig6.bench = bench) curves in
    match List.find_opt (fun p -> p.Fig6.instances = n) c.Fig6.points with
    | Some p -> Some p.Fig6.normalized
    | None -> None
  in
  match (norm "find" 16, norm "sqlite" 16, norm "cat+tr" 16) with
  | Some find16, Some sqlite16, Some cat16 ->
    [
      v "at 16 instances: find degrades most, sqlite and cat+tr stay low"
        (Printf.sprintf "find %.2f, cat+tr %.2f, sqlite %.2f" find16 cat16
           sqlite16)
        (find16 > cat16 && find16 > sqlite16 && sqlite16 < 1.2 && cat16 < 1.6);
    ]
  | _ -> []

let fig7_verdicts (t : Fig7.t) =
  (* The App category also contains the parent's sample generation;
     compare the FFT work itself via the cost model. *)
  let points = M3_hw.Fft.points_of_bytes Fig7.data_bytes in
  let fft_ratio =
    float_of_int (M3_hw.Cost_model.fft_cycles ~accel:false ~points)
    /. float_of_int (max 1 (M3_hw.Cost_model.fft_cycles ~accel:true ~points))
  in
  [
    v "FFT accelerator ≈ 30x faster than software FFT"
      (Printf.sprintf "%.1fx" fft_ratio)
      (fft_ratio > 25.0 && fft_ratio < 35.0);
    v "M3 chain beats Linux; accelerator far ahead"
      (Printf.sprintf "Lx %s, M3 %s, M3+acc %s"
         (Runner.fmt_k t.Fig7.linux.Runner.m_cycles)
         (Runner.fmt_k t.Fig7.m3_software.Runner.m_cycles)
         (Runner.fmt_k t.Fig7.m3_accel.Runner.m_cycles))
      (t.Fig7.m3_software.Runner.m_cycles < t.Fig7.linux.Runner.m_cycles
      && t.Fig7.m3_accel.Runner.m_cycles * 5 < t.Fig7.m3_software.Runner.m_cycles);
  ]

let t1_verdicts (t : Tables.t1) =
  [
    v "syscall splits into ~30 transfer + ~170 software"
      (Printf.sprintf "%d = %d + %d" t.Tables.m3_total t.Tables.m3_xfer
         t.Tables.m3_other)
      (t.Tables.m3_xfer >= 10 && t.Tables.m3_xfer <= 45
      && t.Tables.m3_other >= 140 && t.Tables.m3_other <= 210);
  ]

let t2_verdicts rows =
  let get name = List.find (fun r -> r.Tables.arch = name) rows in
  let near target value = abs (value - target) < target / 5 in
  let x = get "xtensa" and a = get "arm-a15" in
  [
    v "Xtensa/ARM overheads ≈ 2.2/2.4 M (create), 3.2 M (copy)"
      (Printf.sprintf "create %s/%s, copy %s/%s"
         (Runner.fmt_k x.Tables.create_overhead)
         (Runner.fmt_k a.Tables.create_overhead)
         (Runner.fmt_k x.Tables.copy_overhead)
         (Runner.fmt_k a.Tables.copy_overhead))
      (near 2_200_000 x.Tables.create_overhead
      && near 2_400_000 a.Tables.create_overhead
      && near 3_200_000 x.Tables.copy_overhead
      && near 3_200_000 a.Tables.copy_overhead);
  ]

let print ppf verdicts =
  Format.fprintf ppf "Reproduction summary (%d/%d claims hold)@."
    (List.length (List.filter (fun r -> r.pass) verdicts))
    (List.length verdicts);
  List.iter
    (fun r ->
      Format.fprintf ppf "  [%s] %-55s %s@."
        (if r.pass then "PASS" else "FAIL")
        r.claim r.measured)
    verdicts

(* --- observability summary ------------------------------------------- *)

module Metrics = M3_obs.Metrics
module Stats = M3_sim.Stats

let pcts st =
  Printf.sprintf "p50 %.0f  p95 %.0f  p99 %.0f" (Stats.percentile st 50.0)
    (Stats.percentile st 95.0) (Stats.percentile st 99.0)

(* Caps long per-key listings at the busiest entries to keep the table
   readable on wide fabrics. *)
let top n xs ~weight =
  let sorted = List.stable_sort (fun a b -> compare (weight b) (weight a)) xs in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  (take n sorted, max 0 (List.length xs - n))

let print_obs ppf m =
  Format.fprintf ppf "Observability summary (%d events)@."
    (Metrics.event_total m);
  Format.fprintf ppf "  events by kind:@.";
  List.iter
    (fun (kind, n) -> Format.fprintf ppf "    %-14s %8d@." kind n)
    (Metrics.kinds m);
  Format.fprintf ppf
    "  dtu: %d msgs, %d wire bytes, %d dropped; mem %d B read, %d B written@."
    (Metrics.dtu_sent_msgs m) (Metrics.dtu_sent_bytes m) (Metrics.dtu_dropped m)
    (Metrics.mem_read_bytes m)
    (Metrics.mem_written_bytes m);
  Format.fprintf ppf "  noc: %d transfers, %d payload bytes, %d transfer cycles@."
    (Metrics.noc_xfers m) (Metrics.noc_xfer_bytes m) (Metrics.noc_xfer_cycles m);
  let pushed, popped = Metrics.pipe_bytes m in
  if pushed > 0 || popped > 0 then
    Format.fprintf ppf "  pipe: %d B pushed, %d B popped@." pushed popped;
  Format.fprintf ppf "  vpes: %d created, %d exited@." (Metrics.vpes_created m)
    (Metrics.vpes_exited m);
  (match Metrics.endpoints m with
  | [] -> ()
  | eps ->
    Format.fprintf ppf "  busiest send endpoints (pe,ep -> msgs, bytes):@.";
    let shown, elided = top 8 eps ~weight:(fun (_, _, bytes) -> bytes) in
    List.iter
      (fun ((pe, ep), msgs, bytes) ->
        Format.fprintf ppf "    pe%-2d ep%-2d  %6d msgs  %8d B@." pe ep msgs
          bytes)
      shown;
    if elided > 0 then Format.fprintf ppf "    ... %d more@." elided);
  (match Metrics.links m with
  | [] -> ()
  | links ->
    Format.fprintf ppf
      "  busiest links (src>dst -> busy cycles, queue delay):@.";
    let shown, elided = top 8 links ~weight:(fun (_, busy, _) -> busy) in
    List.iter
      (fun ((src, dst), busy, queue) ->
        Format.fprintf ppf "    %2d>%-2d  %8d busy  %s@." src dst busy
          (pcts queue))
      shown;
    if elided > 0 then Format.fprintf ppf "    ... %d more@." elided);
  (match Metrics.syscalls m with
  | [] -> ()
  | ops ->
    Format.fprintf ppf "  syscall latency (cycles):@.";
    List.iter
      (fun (op, st) ->
        Format.fprintf ppf "    %-14s %5d calls  %s@." op (Stats.count st)
          (pcts st))
      ops);
  (match Metrics.fs_ops m with
  | [] -> ()
  | ops ->
    Format.fprintf ppf "  m3fs handling latency (cycles):@.";
    List.iter
      (fun (op, st) ->
        Format.fprintf ppf "    %-14s %5d reqs   %s@." op (Stats.count st)
          (pcts st))
      ops);
  (match Metrics.fs_queues m with
  | [] -> ()
  | queues ->
    Format.fprintf ppf "  m3fs queue depth at request pickup:@.";
    let resolves = Metrics.shard_resolves m in
    List.iter
      (fun (srv, st) ->
        Format.fprintf ppf "    %-14s %5d reqs   %s%s@." srv (Stats.count st)
          (pcts st)
          (match List.assoc_opt srv resolves with
          | Some n -> Printf.sprintf "  (%d resolves)" n
          | None -> ""))
      queues);
  (match Metrics.shard_resolves m with
  | [] -> ()
  | resolves when Metrics.fs_queues m <> [] ->
    ignore resolves (* already folded into the queue table above *)
  | resolves ->
    Format.fprintf ppf "  shard resolutions:@.";
    List.iter
      (fun (srv, n) -> Format.fprintf ppf "    %-14s %8d@." srv n)
      resolves);
  (let hits = Metrics.cache_hits m
   and misses = Metrics.cache_misses m
   and invals = Metrics.cache_invals m in
   if hits <> [] || misses <> [] || invals <> [] then begin
     Format.fprintf ppf "  mount cache (hit rate %.0f%%):@."
       (100.0 *. Metrics.cache_hit_rate m);
     let n kind alist = Option.value ~default:0 (List.assoc_opt kind alist) in
     let kinds =
       List.sort_uniq compare
         (List.map fst hits @ List.map fst misses @ List.map fst invals)
     in
     List.iter
       (fun kind ->
         Format.fprintf ppf "    %-14s %6d hits  %6d misses  %6d invals@."
           kind (n kind hits) (n kind misses) (n kind invals))
       kinds;
     if Metrics.cache_flushes m > 0 then
       Format.fprintf ppf "    %-14s %6d wholesale flushes@." ""
         (Metrics.cache_flushes m)
   end);
  (if Metrics.sched_suspends m > 0 then begin
     Format.fprintf ppf
       "  sched: %d suspends (%d B captured), %d resumes (%d migrated)@."
       (Metrics.sched_suspends m)
       (Metrics.sched_suspend_bytes m)
       (Metrics.sched_resumes m)
       (Metrics.sched_migrations m);
     match Metrics.pool_scales m with
     | [] -> ()
     | scales ->
       Format.fprintf ppf "  pool scaling (pool -> ups, downs):@.";
       List.iter
         (fun (pool, ups, downs) ->
           Format.fprintf ppf "    %-14s %5d up  %5d down@." pool ups downs)
         scales
   end);
  (match Metrics.serve_latencies m with
  | [] -> ()
  | lats ->
    Format.fprintf ppf "  serve pools (per pool):@.";
    let queues = Metrics.serve_queues m
    and batches = Metrics.serve_batches m
    and rejects = Metrics.serve_rejects m
    and restarts = Metrics.serve_restarts m in
    let n pool alist = Option.value ~default:0 (List.assoc_opt pool alist) in
    List.iter
      (fun (pool, st) ->
        Format.fprintf ppf "    %-14s %5d done   latency %s@." pool
          (Stats.count st) (pcts st);
        (match List.assoc_opt pool queues with
        | Some q ->
          Format.fprintf ppf "    %-14s queue depth at admit: %s@." "" (pcts q)
        | None -> ());
        (match List.assoc_opt pool batches with
        | Some b ->
          Format.fprintf ppf
            "    %-14s %5d batches (mean size %.1f)@." "" (Stats.count b)
            (Stats.mean b)
        | None -> ());
        let rej = n pool rejects and rst = n pool restarts in
        if rej > 0 || rst > 0 then
          Format.fprintf ppf "    %-14s %5d rejected, %d worker restarts@." ""
            rej rst)
      lats);
  let throttles = Metrics.gw_throttles m
  and breaks = Metrics.gw_breaks m
  and upgrades = Metrics.gw_upgrades m in
  if throttles <> [] || breaks <> [] || upgrades <> [] then begin
    Format.fprintf ppf "  gateway:@.";
    List.iter
      (fun (pool, n) ->
        Format.fprintf ppf "    %-14s %5d throttled@." pool n)
      throttles;
    List.iter
      (fun (pool, trips, probes, closes) ->
        Format.fprintf ppf
          "    %-14s breaker: %d trips, %d probes, %d closes@." pool trips
          probes closes)
      breaks;
    List.iter
      (fun (target, st) ->
        Format.fprintf ppf "    %-14s %5d upgrades  swap %s@." target
          (Stats.count st) (pcts st))
      upgrades
  end
