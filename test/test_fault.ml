(* Regression tests for the fault-injection layer and the DTU bugfixes
   that shipped with it:

   - dropped deliveries NACK and refund the sender's credit (they used
     to leak Credits bandwidth permanently),
   - Waitq entries die when their waiter is resumed or gives up (no
     stale registrations after wait_any, no lost wakeups),
   - a process blocked in wait_msg observes endpoint invalidation
     instead of re-parking forever,
   - with no fault plan attached the machinery is invisible: cycle
     counts match a run that never links the fault library's state,
   - with a seeded plan, fault schedules and recovery are
     deterministic. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Endpoint = M3_dtu.Endpoint
module Dtu = M3_dtu.Dtu
module Dtu_error = M3_dtu.Dtu_error
module Platform = M3_hw.Platform
module Pe = M3_hw.Pe
module Fabric = M3_noc.Fabric
module Plan = M3_fault.Plan
module Bootstrap = M3.Bootstrap
module Syscalls = M3.Syscalls
module Gate = M3.Gate
module Errno = M3.Errno
module Vpe_api = M3.Vpe_api
module Core_type = M3_hw.Core_type
module Obs = M3_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected DTU error: %s" (Dtu_error.to_string e)

let ok_os = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected OS error: %s" (Errno.to_string e)

let make_platform ?(pe_count = 4) () =
  let engine = Engine.create () in
  let config = { Platform.default_config with pe_count } in
  (engine, Platform.create ~config engine)

let credits_of dtu ~ep =
  match Dtu.credits dtu ~ep with
  | Some (Endpoint.Credits n) -> n
  | _ -> -1

(* A plan whose schedule never injects anything: exercises the
   plan-enabled code paths (drop draws, watchdog arming) without
   perturbing the simulation. *)
let quiet ~seed = Plan.create ~seed ()

(* --- bugfix 1: dropped deliveries refund the sender's credit --------- *)

let test_ringbuffer_full_refunds_credit () =
  let engine, platform = make_platform () in
  let receiver = Platform.pe platform 0 and sender = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu receiver) ~ep:1
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 8; slot_count = 1 }));
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:2
       (Endpoint.Send
          {
            dst_pe = 0;
            dst_ep = 1;
            label = 1L;
            msg_order = 8;
            credits = Endpoint.Credits 2;
          }));
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         (* First message fills the single slot; nobody acks it, so the
            second is rejected at the receiving DTU. *)
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.of_string "one") ());
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.of_string "two") ())));
  ignore (Engine.run engine);
  check_int "receiver dropped one" 1 (Dtu.msgs_dropped (Pe.dtu receiver));
  check_int "NACK refunded the credit" 1 (Dtu.credits_refunded (Pe.dtu sender));
  (* Two credits spent, one message delivered (still holding its
     credit), one refunded: exactly one credit left. *)
  check_int "credit back after drop" 1 (credits_of (Pe.dtu sender) ~ep:2)

let test_oversize_refunds_credit () =
  let engine, platform = make_platform () in
  let receiver = Platform.pe platform 0 and sender = Platform.pe platform 1 in
  (* 64-byte slots at the receiver, but the sender's EP allows 256-byte
     messages: an in-between payload passes the send-side check and is
     rejected on delivery. *)
  ok
    (Dtu.config_local (Pe.dtu receiver) ~ep:1
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 6; slot_count = 4 }));
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:2
       (Endpoint.Send
          {
            dst_pe = 0;
            dst_ep = 1;
            label = 1L;
            msg_order = 8;
            credits = Endpoint.Credits 1;
          }));
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.create 100) ())));
  ignore (Engine.run engine);
  check_int "receiver dropped it" 1 (Dtu.msgs_dropped (Pe.dtu receiver));
  check_int "refunded" 1 (Dtu.credits_refunded (Pe.dtu sender));
  check_int "full credit restored" 1 (credits_of (Pe.dtu sender) ~ep:2)

let test_no_recv_ep_refunds_credit () =
  let engine, platform = make_platform () in
  let receiver = Platform.pe platform 0 and sender = Platform.pe platform 1 in
  (* dst_ep 5 was never configured on the receiver. *)
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:2
       (Endpoint.Send
          {
            dst_pe = 0;
            dst_ep = 5;
            label = 1L;
            msg_order = 8;
            credits = Endpoint.Credits 1;
          }));
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:Bytes.empty ())));
  ignore (Engine.run engine);
  check_int "receiver dropped it" 1 (Dtu.msgs_dropped (Pe.dtu receiver));
  check_int "refunded" 1 (Dtu.credits_refunded (Pe.dtu sender));
  check_int "full credit restored" 1 (credits_of (Pe.dtu sender) ~ep:2)

(* --- bugfix 2: waitq hygiene ----------------------------------------- *)

let test_waitq_cancel_and_sweep () =
  let q = Process.Waitq.create () in
  let got = ref [] in
  let a = Process.Waitq.register q (fun v -> got := ("a", v) :: !got) in
  let _b = Process.Waitq.register q (fun v -> got := ("b", v) :: !got) in
  check_int "two live waiters" 2 (Process.Waitq.waiters q);
  Process.Waitq.cancel a;
  check_int "cancelled entry not counted" 1 (Process.Waitq.waiters q);
  (* The cancelled entry must not absorb the wakeup. *)
  check_bool "signal reaches the live entry" true (Process.Waitq.signal q 1);
  Alcotest.(check (list (pair string int))) "only b fired" [ ("b", 1) ] !got;
  check_int "no stale registrations" 0 (Process.Waitq.waiters q);
  check_bool "signal with nobody waiting" false (Process.Waitq.signal q 2)

let no_stale_waiters deadline =
  let engine, platform = make_platform () in
  let receiver = Platform.pe platform 0 and sender = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu receiver) ~ep:1
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 8; slot_count = 4 }));
  ok
    (Dtu.config_local (Pe.dtu receiver) ~ep:3
       (Endpoint.Receive { buf_addr = 0x900; slot_order = 8; slot_count = 4 }));
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:2
       (Endpoint.Send
          {
            dst_pe = 0;
            dst_ep = 1;
            label = 1L;
            msg_order = 8;
            credits = Endpoint.Credits 4;
          }));
  let woke_ep = ref (-1) in
  ignore
    (Pe.spawn receiver ~name:"r" (fun () ->
         let msg = Option.get (Dtu.wait ?deadline (Pe.dtu receiver) ~eps:[ 1; 3 ]) in
         woke_ep := msg.ep;
         Dtu.ack (Pe.dtu receiver) ~ep:msg.ep ~slot:msg.slot));
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.of_string "x") ())));
  ignore (Engine.run engine);
  check_int "woken by EP 1" 1 !woke_ep;
  (* The registration on the EP that did not fire must be gone too —
     a later signal there must not be absorbed by a dead closure. *)
  check_int "no waiters on ep1" 0 (Dtu.waiters (Pe.dtu receiver) ~ep:1);
  check_int "no waiters on ep3" 0 (Dtu.waiters (Pe.dtu receiver) ~ep:3)

(* A timed wait, woken by the message long before its deadline, must
   leave no registration behind either. *)
let test_wait_any_leaves_no_stale_waiters () =
  List.iter no_stale_waiters [ None; Some 100_000 ]

(* --- bugfix 3: invalidation wakes blocked receivers ------------------- *)

let wait_msg_outcome ?deadline action =
  let engine, platform = make_platform () in
  let kernel = Platform.pe platform 0 and app = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu app) ~ep:1
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 8; slot_count = 4 }));
  let outcome = ref `Pending in
  ignore
    (Pe.spawn app ~name:"app" (fun () ->
         match Dtu.wait ?deadline (Pe.dtu app) ~eps:[ 1 ] with
         | _msg -> outcome := `Returned
         | exception Dtu_error.Error e -> outcome := `Error e));
  ignore
    (Pe.spawn kernel ~name:"kernel" (fun () ->
         Process.wait 50;
         ok (action (Pe.dtu kernel))));
  ignore (Engine.run engine);
  !outcome

(* Untimed and timed waits alike. *)
let check_invalid_ep name action =
  List.iter
    (fun deadline ->
      check_bool name true
        (wait_msg_outcome ?deadline action = `Error Dtu_error.Invalid_ep))
    [ None; Some 100_000 ]

let test_wait_msg_observes_invalidate () =
  check_invalid_ep "wait_msg raises Invalid_ep on ext_invalidate"
    (fun kdtu -> Dtu.ext_invalidate kdtu ~target:1 ~ep:1)

let test_wait_msg_observes_reset () =
  check_invalid_ep "wait_msg raises Invalid_ep on ext_reset"
    (fun kdtu -> Dtu.ext_reset kdtu ~target:1)

(* --- zero-cost and determinism ---------------------------------------- *)

(* A fixed message workload: [rounds] send+reply roundtrips between two
   PEs, payload integrity checked at the receiver. Returns the cycle
   count at the moment the sender finishes (completion point, immune to
   unrelated late timers) plus recovery counters. *)
let roundtrips ?plan ~rounds () =
  let engine, platform = make_platform () in
  Option.iter (fun p -> Fabric.set_faults (Platform.fabric platform) p) plan;
  let receiver = Platform.pe platform 0 and sender = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu receiver) ~ep:1
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 8; slot_count = 8 }));
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:2
       (Endpoint.Send
          {
            dst_pe = 0;
            dst_ep = 1;
            label = 1L;
            msg_order = 8;
            credits = Endpoint.Credits 4;
          }));
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:3
       (Endpoint.Receive { buf_addr = 0x900; slot_order = 8; slot_count = 8 }));
  let received = ref 0 and intact = ref true and done_at = ref 0 in
  ignore
    (Pe.spawn receiver ~name:"r" (fun () ->
         for _ = 1 to rounds do
           let msg = Dtu.wait_msg (Pe.dtu receiver) ~ep:1 in
           if Bytes.to_string msg.payload <> "payload-under-test" then
             intact := false;
           incr received;
           ok
             (Dtu.reply (Pe.dtu receiver) ~ep:1 ~slot:msg.slot
                ~payload:(Bytes.of_string "ok"))
         done));
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         for _ = 1 to rounds do
           ok
             (Dtu.send (Pe.dtu sender) ~ep:2
                ~payload:(Bytes.of_string "payload-under-test")
                ~reply:(3, 0L) ());
           let reply = Dtu.wait_msg (Pe.dtu sender) ~ep:3 in
           Dtu.ack (Pe.dtu sender) ~ep:3 ~slot:reply.slot
         done;
         done_at := Engine.now engine));
  ignore (Engine.run engine);
  check_int "all messages arrived" rounds !received;
  check_bool "payloads intact" true !intact;
  let retransmits =
    Dtu.retransmits (Pe.dtu sender) + Dtu.retransmits (Pe.dtu receiver)
  in
  let expired =
    Dtu.msgs_expired (Pe.dtu sender) + Dtu.msgs_expired (Pe.dtu receiver)
  in
  (!done_at, retransmits, expired)

let test_no_plan_is_zero_cost () =
  let base_cycles, base_retx, _ = roundtrips ~rounds:10 () in
  check_int "no retransmit machinery without a plan" 0 base_retx;
  (* An attached plan that never fires must not shift time either:
     drop draws are free in simulated cycles. *)
  let quiet = quiet ~seed:3 in
  let quiet_cycles, quiet_retx, _ = roundtrips ~plan:quiet ~rounds:10 () in
  check_int "quiet plan: no retransmits" 0 quiet_retx;
  check_int "quiet plan: identical cycle count" base_cycles quiet_cycles

let lossy_run ~seed =
  roundtrips ~plan:(Plan.create ~drop:0.2 ~max_retries:8 ~seed ()) ~rounds:30 ()

let test_seeded_plan_is_deterministic () =
  let c1, r1, e1 = lossy_run ~seed:42 in
  let c2, r2, e2 = lossy_run ~seed:42 in
  check_int "same seed, same completion cycle" c1 c2;
  check_int "same seed, same retransmit count" r1 r2;
  check_int "same seed, same expiries" e1 e2

let test_retransmit_rides_through_drops () =
  let cycles, retransmits, expired = lossy_run ~seed:7 in
  (* 60 transfers at a 20% drop rate: recovery must actually have
     happened, and the retry budget (8) makes expiry implausible. *)
  check_bool "losses were retransmitted" true (retransmits > 0);
  check_int "nothing expired" 0 expired;
  let base_cycles, _, _ = roundtrips ~rounds:30 () in
  check_bool "drops cost time" true (cycles > base_cycles)

(* --- crash containment: zero-cost and determinism ---------------------- *)

(* A supervised child workload through the whole OS stack. Returns the
   cycle at which main finished — the completion point, immune to the
   watchdog timers a plan leaves in the engine's heap past it. *)
let supervised_run ?faults () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true ?faults engine in
  let done_at = ref 0 in
  let exit =
    Bootstrap.launch sys ~name:"main" (fun env ->
        let r =
          Vpe_api.run_supervised env ~name:"worker"
            ~core:Core_type.General_purpose (fun cenv ->
              for _ = 1 to 10 do
                ok_os (Syscalls.noop cenv)
              done;
              0)
        in
        done_at := Engine.now engine;
        match r with Ok 0 -> 0 | _ -> 1)
  in
  ignore (Engine.run engine);
  check_int "supervised workload finished" 0
    (Option.value ~default:min_int (Process.Ivar.peek exit));
  !done_at

(* The crash-containment layer (prober, watchdogs, abort bookkeeping)
   must be invisible without a plan that can fire: same completion
   cycle with no plan and with a quiet one. *)
let test_supervision_is_zero_cost () =
  let base = supervised_run () in
  check_int "quiet plan: identical completion cycle" base
    (supervised_run ~faults:(quiet ~seed:9) ())

(* One seeded PE crash mid-workload, full event log captured. Two runs
   with the same seed must produce byte-identical logs — the prober,
   the containment sweep and the restart are all deterministic. *)
let crash_event_log ~seed =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  (* no_fs placement: main = pe1, worker = pe2; kill the worker's PE
     on its 10th DTU command, deep in the noop loop. *)
  let plan = Plan.create ~crashes:[ (2, 10) ] ~seed () in
  let sys = Bootstrap.start ~no_fs:true ~obs ~faults:plan engine in
  let exit =
    Bootstrap.launch sys ~name:"main" (fun env ->
        match
          Vpe_api.run_supervised env ~name:"worker"
            ~core:Core_type.General_purpose (fun cenv ->
              for _ = 1 to 40 do
                ok_os (Syscalls.noop cenv)
              done;
              0)
        with
        | Ok 0 -> 0
        | _ -> 1)
  in
  ignore (Engine.run engine);
  check_int "crashed workload recovered" 0
    (Option.value ~default:min_int (Process.Ivar.peek exit));
  check_int "exactly one crash fired" 1 (Plan.crashes_injected plan);
  Obs.Memory.to_string mem

let test_seeded_crash_identical_logs () =
  let log1 = crash_event_log ~seed:21 in
  let log2 = crash_event_log ~seed:21 in
  check_bool "log not empty" true (String.length log1 > 0);
  Alcotest.(check string) "same seed, byte-identical event logs" log1 log2

(* --- kernel watchdog --------------------------------------------------- *)

let test_dead_service_times_out () =
  let engine = Engine.create () in
  let plan = quiet ~seed:11 in
  let sys = Bootstrap.start ~no_fs:true ~faults:plan engine in
  ignore
    (Bootstrap.launch sys ~name:"dead-srv" (fun env ->
         let kr = ok_os (Gate.create_recv env ~slot_order:8 ~slot_count:4) in
         let cr = ok_os (Gate.create_recv env ~slot_order:8 ~slot_count:4) in
         ignore
           (ok_os
              (Syscalls.create_srv env ~name:"dead" ~krgate_sel:kr.Gate.rg_sel
                 ~crgate_sel:cr.Gate.rg_sel));
         (* Never serve a request — and never exit, which would
            deregister the service. *)
         Process.Waitq.park (Process.Waitq.create ())));
  let client =
    Bootstrap.launch sys ~name:"client" (fun env ->
        (* Give the service time to register. *)
        Process.wait 1_000;
        match Syscalls.open_sess env ~srv:"dead" ~arg:0 with
        | Error Errno.E_timeout -> 0
        | Ok _ -> 1
        | Error _ -> 2)
  in
  ignore (Engine.run engine);
  check_int "open_sess times out instead of hanging" 0
    (Option.value ~default:(-1) (Process.Ivar.peek client))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "fault.credits",
      [
        tc "ringbuffer-full drop refunds credit"
          test_ringbuffer_full_refunds_credit;
        tc "oversize drop refunds credit" test_oversize_refunds_credit;
        tc "no-recv-EP drop refunds credit" test_no_recv_ep_refunds_credit;
      ] );
    ( "fault.waitq",
      [
        tc "cancelled entries neither fire nor absorb signals"
          test_waitq_cancel_and_sweep;
        tc "wait_any leaves no stale waiters"
          test_wait_any_leaves_no_stale_waiters;
        tc "wait_msg observes ext_invalidate" test_wait_msg_observes_invalidate;
        tc "wait_msg observes ext_reset" test_wait_msg_observes_reset;
      ] );
    ( "fault.injection",
      [
        tc "no plan / quiet plan are zero-cost" test_no_plan_is_zero_cost;
        tc "seeded plans are deterministic" test_seeded_plan_is_deterministic;
        tc "retransmit rides through 20% drops"
          test_retransmit_rides_through_drops;
        tc "dead service answers with E_timeout" test_dead_service_times_out;
      ] );
    ( "fault.crash",
      [
        tc "supervision layer is zero-cost without a plan"
          test_supervision_is_zero_cost;
        tc "seeded pe_crash: byte-identical event logs"
          test_seeded_crash_identical_logs;
      ] );
  ]
