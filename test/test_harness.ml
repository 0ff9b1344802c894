(* Shape tests of the reproduced experiments: the paper's qualitative
   claims must hold — who wins, by roughly what factor, where the
   crossovers are. These are the repository's "does it reproduce the
   paper" regression tests. *)

let check_bool = Alcotest.(check bool)

let ratio a b = float_of_int a /. float_of_int (max 1 b)

open M3_harness

(* --- Figure 3 --------------------------------------------------------- *)

let fig3 = lazy (Fig3.run ())

let test_fig3_syscall () =
  let t = Lazy.force fig3 in
  let m3 = t.Fig3.syscall.Fig3.m3.Runner.m_cycles in
  let lx = t.Fig3.syscall.Fig3.lx.Runner.m_cycles in
  check_bool (Printf.sprintf "M3 syscall ≈ 200 (got %d)" m3) true
    (m3 >= 170 && m3 <= 240);
  check_bool "Linux = 410" true (lx = 410);
  check_bool "M3 about half of Linux" true (ratio lx m3 > 1.7)

let test_fig3_ordering () =
  let t = Lazy.force fig3 in
  List.iter
    (fun (name, bars) ->
      let m3 = bars.Fig3.m3.Runner.m_cycles in
      let ideal = bars.Fig3.lx_ideal.Runner.m_cycles in
      let lx = bars.Fig3.lx.Runner.m_cycles in
      check_bool (name ^ ": M3 < Lx-$") true (m3 < ideal);
      check_bool (name ^ ": Lx-$ < Lx") true (ideal < lx))
    [ ("read", t.Fig3.read); ("write", t.Fig3.write); ("pipe", t.Fig3.pipe) ]

let test_fig3_magnitudes () =
  let t = Lazy.force fig3 in
  (* Reading 2 MiB at 8 B/cycle cannot beat 262144 cycles; M3 should be
     within 2x of that bound, Linux read ≈ 4–7x slower than M3. *)
  let m3_read = t.Fig3.read.Fig3.m3.Runner.m_cycles in
  check_bool "read above DTU bound" true (m3_read >= 2 * 1024 * 1024 / 8);
  check_bool "read within 2x of bound" true (m3_read < 2 * (2 * 1024 * 1024 / 8));
  let r = ratio t.Fig3.read.Fig3.lx.Runner.m_cycles m3_read in
  check_bool (Printf.sprintf "Linux read 3.5–8x slower (got %.1f)" r) true
    (r > 3.5 && r < 8.0);
  (* Write is worse for Linux than read (zeroing); pipe worst (double
     copy plus context switches). *)
  let wr = ratio t.Fig3.write.Fig3.lx.Runner.m_cycles t.Fig3.write.Fig3.m3.Runner.m_cycles in
  check_bool (Printf.sprintf "Linux write 5-12x slower (got %.1f)" wr) true
    (wr > 5.0 && wr < 12.0);
  check_bool "write ratio worse than read ratio" true (wr > r)

let test_fig3_m3_transfer_share () =
  (* On M3 the data transfers dominate the file ops — that is the
     whole point of the DTU (§5.4). *)
  let t = Lazy.force fig3 in
  List.iter
    (fun (name, bars) ->
      let m = bars.Fig3.m3 in
      check_bool (name ^ ": xfers are majority") true
        (m.Runner.m_xfer * 2 > m.Runner.m_cycles))
    [ ("read", t.Fig3.read); ("write", t.Fig3.write) ]

(* --- Figure 4 ------------------------------------------------------------ *)

let fig4 = lazy (Fig4.run ())

let test_fig4_shape () =
  let points = Lazy.force fig4 in
  let find bpe =
    List.find (fun p -> p.Fig4.blocks_per_extent = bpe) points
  in
  let r16 = (find 16).Fig4.read.Runner.m_cycles in
  let r256 = (find 256).Fig4.read.Runner.m_cycles in
  let r2048 = (find 2048).Fig4.read.Runner.m_cycles in
  check_bool "read cost falls with extent size" true (r16 > r256 && r256 > r2048);
  (* The sweet spot: beyond 256 the curve is nearly flat (§5.5). *)
  check_bool "steep before 256" true (r16 - r256 > 4 * (r256 - r2048));
  let w16 = (find 16).Fig4.write.Runner.m_cycles in
  let w256 = (find 256).Fig4.write.Runner.m_cycles in
  check_bool "write falls too" true (w16 > w256);
  (* Fragmentation hurts writes more than reads (allocation per extent). *)
  check_bool "write at 16 worse than read at 16" true (w16 > r16)

(* --- Figure 5 --------------------------------------------------------------- *)

let fig5 = lazy (Fig5.run ())

let row name =
  List.find (fun r -> r.Fig5.name = name) (Lazy.force fig5)

let test_fig5_cat_tr () =
  let r = row "cat+tr" in
  let ratio = ratio r.Fig5.m3.Runner.m_cycles r.Fig5.lx.Runner.m_cycles in
  (* paper: "about twice as fast" *)
  check_bool (Printf.sprintf "cat+tr M3 at 40-70%% of Linux (got %.2f)" ratio)
    true
    (ratio > 0.40 && ratio < 0.70)

let test_fig5_tar_untar () =
  List.iter
    (fun name ->
      let r = row name in
      let ratio = ratio r.Fig5.m3.Runner.m_cycles r.Fig5.lx.Runner.m_cycles in
      (* paper: 20% (tar) and 16% (untar) of Linux's time *)
      check_bool
        (Printf.sprintf "%s M3 at 10-35%% of Linux (got %.2f)" name ratio)
        true
        (ratio > 0.10 && ratio < 0.35))
    [ "tar"; "untar" ]

let test_fig5_find () =
  let r = row "find" in
  let ratio = ratio r.Fig5.m3.Runner.m_cycles r.Fig5.lx.Runner.m_cycles in
  (* paper: "Linux is slightly faster than M3" *)
  check_bool (Printf.sprintf "find M3 slightly slower (got %.2f)" ratio) true
    (ratio > 1.0 && ratio < 1.7)

let test_fig5_sqlite () =
  let r = row "sqlite" in
  let ratio = ratio r.Fig5.m3.Runner.m_cycles r.Fig5.lx.Runner.m_cycles in
  (* paper: "only slightly faster on M3 because computation dominates" *)
  check_bool (Printf.sprintf "sqlite within 10%% (got %.2f)" ratio) true
    (ratio > 0.85 && ratio <= 1.02);
  check_bool "compute dominates" true
    (r.Fig5.m3.Runner.m_app * 2 > r.Fig5.m3.Runner.m_cycles)

(* --- Figure 6 ------------------------------------------------------------------ *)

let fig6 = lazy (Fig6.run ())

let test_fig6_shape () =
  let curves = Lazy.force fig6 in
  let norm bench n =
    let c = List.find (fun c -> c.Fig6.bench = bench) curves in
    (List.find (fun p -> p.Fig6.instances = n) c.Fig6.points).Fig6.normalized
  in
  List.iter
    (fun bench ->
      check_bool (bench ^ " base is 1.0") true (abs_float (norm bench 1 -. 1.0) < 0.001);
      check_bool
        (Printf.sprintf "%s scales well to 4 (%.2f)" bench (norm bench 4))
        true
        (norm bench 4 < 1.45))
    [ "cat+tr"; "tar"; "untar"; "find"; "sqlite" ];
  (* find is the most service-bound benchmark and degrades first. *)
  check_bool "find degrades most at 8" true
    (norm "find" 8 > norm "tar" 8 && norm "find" 8 > norm "sqlite" 8);
  check_bool "sqlite nearly flat" true (norm "sqlite" 8 < 1.15)

(* --- Figure 7 -------------------------------------------------------------------- *)

let fig7 = lazy (Fig7.run ())

let test_fig7_shape () =
  let t = Lazy.force fig7 in
  let sw = t.Fig7.m3_software.Runner.m_cycles in
  let hw = t.Fig7.m3_accel.Runner.m_cycles in
  let lx = t.Fig7.linux.Runner.m_cycles in
  (* paper: "the accelerator has a huge performance benefit over the
     software version (about a factor of 30)" — end to end the chain
     includes transfers, so somewhat less. *)
  check_bool (Printf.sprintf "accel chain ≥ 10x faster (got %.1f)" (ratio sw hw))
    true
    (ratio sw hw > 10.0);
  check_bool "M3 software beats Linux" true (sw < lx);
  (* The FFT share itself speeds up ~30x. *)
  let fft_ratio =
    ratio t.Fig7.m3_software.Runner.m_app t.Fig7.m3_accel.Runner.m_app
  in
  check_bool (Printf.sprintf "FFT compute ~30x (got %.1f)" fft_ratio) true
    (fft_ratio > 10.0 && fft_ratio < 40.0);
  (* M3's OS overhead stays far below Linux's (exec, pipes, writes). *)
  check_bool "M3 os+xfer below Linux's" true
    (t.Fig7.m3_accel.Runner.m_os + t.Fig7.m3_accel.Runner.m_xfer
    < t.Fig7.linux.Runner.m_os + t.Fig7.linux.Runner.m_xfer)

(* --- A5: multiple service instances (§7 future work) --------------------- *)

let test_multi_instance_m3fs () =
  (* With 8 clients the single instance saturates (Fig. 6's find
     curve); a second instance roughly halves the queueing. *)
  let one = Ablations.service_instances_bench ~clients:8 ~instances:1 in
  let two = Ablations.service_instances_bench ~clients:8 ~instances:2 in
  check_bool
    (Printf.sprintf "2 instances at least 20%% faster (1: %d, 2: %d)" one two)
    true
    (two * 10 < one * 8)

(* --- Tables -------------------------------------------------------------------------- *)

let t1 = lazy (Tables.run_t1 ())

let test_t1 () =
  let t = Lazy.force t1 in
  check_bool "m3 total ≈ 200" true (t.Tables.m3_total >= 170 && t.Tables.m3_total <= 240);
  check_bool "transfer share ≈ 30" true (t.Tables.m3_xfer >= 10 && t.Tables.m3_xfer <= 45);
  check_bool "software share ≈ 170" true
    (t.Tables.m3_other >= 140 && t.Tables.m3_other <= 210);
  check_bool "linux 410" true (t.Tables.lx_total = 410)

let t2 = lazy (Tables.run_t2 ())

let test_t2 () =
  let rows = Lazy.force t2 in
  let get name = List.find (fun r -> r.Tables.arch = name) rows in
  let xtensa = get "xtensa" and arm = get "arm-a15" in
  check_bool "syscalls 410 vs 320" true
    (xtensa.Tables.syscall = 410 && arm.Tables.syscall = 320);
  let near target v = abs (v - target) < target / 5 in
  check_bool "xtensa create ovh ≈ 2.2 M" true
    (near 2_200_000 xtensa.Tables.create_overhead);
  check_bool "arm create ovh ≈ 2.4 M" true
    (near 2_400_000 arm.Tables.create_overhead);
  check_bool "copy ovh ≈ 3.2 M on both" true
    (near 3_200_000 xtensa.Tables.copy_overhead
    && near 3_200_000 arm.Tables.copy_overhead)

(* --- warm-cache cells (this PR's acceptance gates) -------------------- *)

let test_fig3_warm_read () =
  let t = Lazy.force fig3 in
  let w = t.Fig3.warm_read in
  check_bool
    (Printf.sprintf "cold pass hits the service (got %d round-trips)"
       w.Fig3.w_cold_rt)
    true (w.Fig3.w_cold_rt > 0);
  check_bool
    (Printf.sprintf "warm read >= 1.5x fewer round-trips (cold %d, warm %d)"
       w.Fig3.w_cold_rt w.Fig3.w_warm_rt)
    true (Fig3.warm_ok t);
  check_bool "warm read not slower than cold" true
    (w.Fig3.w_warm.Runner.m_cycles <= w.Fig3.w_cold.Runner.m_cycles)

let test_fig6x_warm_find () =
  let w = Fig6x.warm_find () in
  check_bool
    (Printf.sprintf "warm find >= 1.5x fewer round-trips (cold %d, warm %d)"
       w.Fig6x.wf_cold_rt w.Fig6x.wf_warm_rt)
    true (Fig6x.warm_find_ok w);
  check_bool "warm run sees cache hits" true (w.Fig6x.wf_hit_rate > 0.0)

(* --- reproduction summary ------------------------------------------------ *)

(* The claims [m3_repro run] prints, fed from the results the tests
   above already computed: every one must hold. *)
let test_report_verdicts () =
  let verdicts =
    List.concat
      [
        Report.fig3_verdicts (Lazy.force fig3);
        Report.fig4_verdicts (Lazy.force fig4);
        Report.fig5_verdicts (Lazy.force fig5);
        Report.fig6_verdicts (Lazy.force fig6);
        Report.fig7_verdicts (Lazy.force fig7);
        Report.t1_verdicts (Lazy.force t1);
        Report.t2_verdicts (Lazy.force t2);
      ]
  in
  Alcotest.(check int) "claims checked" 14 (List.length verdicts);
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "%s (%s)" v.Report.claim v.Report.measured)
        true v.Report.pass)
    verdicts

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "repro.fig3",
      [
        tc "syscall 200 vs 410" test_fig3_syscall;
        tc "M3 < Lx-$ < Lx everywhere" test_fig3_ordering;
        tc "magnitudes and ratios" test_fig3_magnitudes;
        tc "transfers dominate on M3" test_fig3_m3_transfer_share;
      ] );
    ("repro.fig4", [ tc "fragmentation curve shape" test_fig4_shape ]);
    ( "repro.fig5",
      [
        tc "cat+tr ≈ 2x" test_fig5_cat_tr;
        tc "tar/untar ≈ 5x" test_fig5_tar_untar;
        tc "find slightly slower" test_fig5_find;
        tc "sqlite compute-bound" test_fig5_sqlite;
      ] );
    ("repro.fig6", [ tc "scalability shape" test_fig6_shape ]);
    ("repro.fig7", [ tc "accelerator chain" test_fig7_shape ]);
    ( "repro.extensions",
      [ tc "multiple m3fs instances scale" test_multi_instance_m3fs ] );
    ( "repro.warmcache",
      [
        tc "fig3 warm read: >= 1.5x fewer round-trips" test_fig3_warm_read;
        tc "fig6x warm find: >= 1.5x fewer round-trips" test_fig6x_warm_find;
      ] );
    ( "repro.tables",
      [ tc "T1 syscall decomposition" test_t1; tc "T2 Xtensa vs ARM" test_t2 ]
    );
    ("repro.report", [ tc "every summary claim holds" test_report_verdicts ]);
  ]
