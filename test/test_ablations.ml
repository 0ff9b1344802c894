(* Regression tests for the ablation scenarios: the design arguments
   in DESIGN.md must stay measurable. (A5 is covered in
   test_harness.ml; full sweeps run in [m3_repro run ablations].) *)

let check_bool = Alcotest.(check bool)

open M3_harness

let ablations = lazy (Ablations.run ())

let point xs x = List.find (fun p -> p.Ablations.x = x) xs

let test_a1_batching_monotone () =
  let t = Lazy.force ablations in
  let c b = (point t.Ablations.loc_batch b).Ablations.cycles in
  let reqs b = (point t.Ablations.loc_batch b).Ablations.aux in
  check_bool "larger batches, fewer requests" true
    (reqs 1 > reqs 4 && reqs 4 > reqs 16);
  check_bool "larger batches never slower" true (c 1 >= c 4 && c 4 >= c 16);
  (* 64 extents at batch 1: one location request each. *)
  check_bool "batch 1 fetches one extent per request" true (reqs 1 = 64)

let test_a2_small_ring_serializes () =
  let t = Lazy.force ablations in
  let c kib = (point t.Ablations.ring_size kib).Ablations.cycles in
  (* A ring equal to the chunk size forces lock-step; 16 KiB+ lets
     writer and reader overlap (§4.5.7's argument for DRAM rings). *)
  check_bool
    (Printf.sprintf "4 KiB ring much slower (%d vs %d)" (c 4) (c 64))
    true
    (c 4 * 2 > c 64 * 3);
  check_bool "64 KiB ≈ 256 KiB (saturated)" true
    (abs (c 64 - c 256) * 20 < c 64)

let test_a3_latency_sensitivity () =
  let t = Lazy.force ablations in
  let syscall h = (point t.Ablations.hop_latency h).Ablations.cycles in
  let bulk h = (point t.Ablations.hop_latency h).Ablations.aux in
  check_bool "syscall grows with hop latency" true (syscall 12 > syscall 1);
  (* Bulk reads are serialization-bound: 12x the hop latency costs
     less than 10% end to end. *)
  check_bool
    (Printf.sprintf "bulk nearly flat (%d -> %d)" (bulk 1) (bulk 12))
    true
    ((bulk 12 - bulk 1) * 10 < bulk 1)

let test_a4_ep_pressure () =
  let t = Lazy.force ablations in
  let acts n = (point t.Ablations.ep_count n).Ablations.aux in
  (* 32 gates on 8 endpoints thrash on the second pass; with 40
     endpoints every gate keeps its endpoint. *)
  check_bool "8 EPs thrash" true (acts 8 > 32);
  check_bool "40 EPs do not" true (acts 40 = 32)

let test_a6_mode_fidelity () =
  let t = Lazy.force ablations in
  let packet = point t.Ablations.switching_mode 0 in
  let wormhole = point t.Ablations.switching_mode 1 in
  check_bool "syscall identical across modes" true
    (packet.Ablations.cycles = wormhole.Ablations.cycles);
  (* The end-to-end bulk difference stays within 5% — the measured
     justification for the packet-model substitution. *)
  check_bool
    (Printf.sprintf "bulk within 5%% (%d vs %d)" packet.Ablations.aux
       wormhole.Ablations.aux)
    true
    (abs (packet.Ablations.aux - wormhole.Ablations.aux) * 20
    < packet.Ablations.aux)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "ablations",
      [
        tc "A1 location batching" test_a1_batching_monotone;
        tc "A2 ring size" test_a2_small_ring_serializes;
        tc "A3 hop-latency sensitivity" test_a3_latency_sensitivity;
        tc "A4 endpoint pressure" test_a4_ep_pressure;
        tc "A6 switching-mode fidelity" test_a6_mode_fidelity;
      ] );
  ]
