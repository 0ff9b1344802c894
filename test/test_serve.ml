(* Regression tests for the serving-pool PR:

   - the serve wire format round-trips (requests, drain, admission
     verdicts, generation-tagged batches, worker replies, completion
     notices), and [E_overload] survives both its integer encoding and
     the admission-verdict wire path,
   - [Stats.merge] combines distributions exactly and [percentile]
     takes fractional ranks (p99.9),
   - [Load.poisson] is a pure function of its Rng: same seed, same
     schedule, cycle for cycle,
   - a pool serves an open-loop schedule and a closed-loop client set
     to completion; a bounded queue rejects overload with
     [E_overload] while every accepted request still completes,
   - trip recovery is exactly-once: a non-idempotent [App] workload
     under an injected stall never executes a request twice (the
     harvest of late replies strikes the front-requeued copies), and
     the whole trip/probe/close cycle is deterministic,
   - merely constructing serve values (schedules, configs, encoded
     requests) costs zero simulated cycles: a run that never starts a
     pool is byte-identical to one that never mentions serve, and a
     gateway that never fires (generous bucket, no breaker) is
     byte-identical to no gateway at all,
   - the figS experiment is deterministic (same seed, same JSON) and
     its acceptance criteria hold on the CI-sized sweep: the
     throughput-latency knee, the admission-control SLO, the
     crash-restart throughput floor, elastic autoscale, hot-client
     isolation, breaker trip/recovery, and hot upgrade under load. *)

module Engine = M3_sim.Engine
module Rng = M3_sim.Rng
module Stats = M3_sim.Stats
module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Errno = M3.Errno
module Syscalls = M3.Syscalls
module Obs = M3_obs.Obs
module Metrics = M3_obs.Metrics
module Wire = M3_serve.Wire
module Load = M3_serve.Load
module Pool = M3_serve.Pool
module Gateway = M3_serve.Gateway
module Figs = M3_harness.Figs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let ok = Errno.ok_exn

(* --- wire format -------------------------------------------------------- *)

let test_request_round_trip () =
  List.iter
    (fun rk ->
      let rq = { Wire.seq = 12345; rk } in
      match Wire.decode_client_msg (Wire.encode_request rq) with
      | Wire.Request { client; req = rq' } ->
          check_bool (Wire.kind_name rk ^ " round-trips") true (rq = rq');
          check_int "default client id" 0 client
      | Wire.Drain -> Alcotest.fail "request decoded as drain"
      | Wire.Upgrade _ -> Alcotest.fail "request decoded as upgrade")
    [
      Wire.Echo 2000; Wire.Fs_stat 7; Wire.Fs_read 3; Wire.Fft 64; Wire.App 99;
    ]

let test_request_client_round_trip () =
  List.iter
    (fun client ->
      let rq = { Wire.seq = 7; rk = Wire.Echo 100 } in
      match Wire.decode_client_msg (Wire.encode_request ~client rq) with
      | Wire.Request { client = c'; req = rq' } ->
          check_int "client id rides the request" client c';
          check_bool "request intact" true (rq = rq')
      | Wire.Drain | Wire.Upgrade _ ->
          Alcotest.fail "client request decoded as control message")
    [ 0; 1; 5; 255 ]

let test_drain_round_trip () =
  match Wire.decode_client_msg (Wire.encode_drain ()) with
  | Wire.Drain -> ()
  | Wire.Request _ | Wire.Upgrade _ ->
      Alcotest.fail "drain decoded as something else"

let test_upgrade_round_trip () =
  List.iter
    (fun worker ->
      match Wire.decode_client_msg (Wire.encode_upgrade ~worker) with
      | Wire.Upgrade w -> check_int "upgrade target round-trips" worker w
      | Wire.Request _ | Wire.Drain ->
          Alcotest.fail "upgrade decoded as something else")
    [ 0; 3; 31 ]

let test_admit_round_trip () =
  List.iter
    (fun (err, seq) ->
      let err', seq' = Wire.decode_admit (Wire.encode_admit ~err ~seq) in
      check_bool "errno round-trips" true (Errno.equal err err');
      check_int "seq round-trips" seq seq')
    [
      (Errno.E_ok, 0);
      (Errno.E_overload, 41);
      (Errno.E_ok, Wire.drain_seq);
    ]

let test_batch_round_trip () =
  let items =
    List.init 13 (fun i -> { Wire.seq = (i * 37) + 1; rk = Wire.Echo i })
  in
  let gen, items' = Wire.decode_batch (Wire.encode_batch ~gen:5 items) in
  check_int "generation" 5 gen;
  check_bool "items round-trip in order" true (items = items');
  let gen0, empty = Wire.decode_batch (Wire.encode_batch ~gen:0 []) in
  check_int "empty batch generation" 0 gen0;
  check_int "empty batch" 0 (List.length empty)

let test_worker_reply_round_trip () =
  let dones =
    [
      { Wire.d_seq = 9; d_err = Errno.E_ok; d_cycles = 2048 };
      { Wire.d_seq = 10; d_err = Errno.E_no_perm; d_cycles = 1 };
    ]
  in
  let worker, gen, dones' =
    Wire.decode_worker_reply (Wire.encode_worker_reply ~worker:3 ~gen:2 dones)
  in
  check_int "worker" 3 worker;
  check_int "generation" 2 gen;
  check_bool "done items round-trip" true (dones = dones')

let test_notice_round_trip () =
  let dones =
    List.init 5 (fun i -> { Wire.d_seq = i; d_err = Errno.E_ok; d_cycles = i })
  in
  check_bool "notice round-trips" true
    (dones = Wire.decode_notice (Wire.encode_notice dones))

(* E_overload is a wire errno: its integer encoding must be stable and
   collision-free (the admission reject path crosses PEs as a byte). *)
let test_overload_errno () =
  check_int "stable wire encoding" 19 (Errno.to_int Errno.E_overload);
  check_bool "of_int inverts to_int" true
    (Errno.equal Errno.E_overload (Errno.of_int 19));
  check_bool "has a message" true
    (String.length (Errno.to_string Errno.E_overload) > 0)

(* Same for the two gateway verdicts. *)
let test_gateway_errnos () =
  List.iter
    (fun (e, code) ->
      check_int "stable wire encoding" code (Errno.to_int e);
      check_bool "of_int inverts to_int" true (Errno.equal e (Errno.of_int code));
      check_bool "has a message" true (String.length (Errno.to_string e) > 0))
    [ (Errno.E_throttled, 20); (Errno.E_unavailable, 21) ]

(* --- stats satellites --------------------------------------------------- *)

let test_stats_merge_is_exact () =
  let a = Stats.create () and b = Stats.create () in
  let all = Stats.create () in
  let rng = Rng.create ~seed:7 in
  for i = 0 to 199 do
    let v = Rng.float rng *. 1000.0 in
    Stats.add (if i mod 3 = 0 then a else b) v;
    Stats.add all v
  done;
  let m = Stats.merge a b in
  check_int "count" (Stats.count all) (Stats.count m);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean all) (Stats.mean m);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.1f" p)
        (Stats.percentile all p) (Stats.percentile m p))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ]

let test_percentile_fractional_and_negative () =
  let s = Stats.create () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i -. 500.0)
  done;
  (* 1000 samples of i - 500: exact order statistics, with linear
     interpolation between ranks (rank = p/100 * (n-1)). *)
  Alcotest.(check (float 1e-6)) "p99.9 interpolates the tail" 499.001
    (Stats.percentile s 99.9);
  Alcotest.(check (float 1e-6)) "p0 is the minimum" (-499.0)
    (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-6)) "negative values sort numerically" (-449.05)
    (Stats.percentile s 5.0)

(* --- load generation ---------------------------------------------------- *)

let schedule ~seed ~count =
  Load.poisson ~rng:(Rng.create ~seed) ~mean_gap:700.0 ~count
    ~mix:(Load.pure (Wire.Echo 2000)) ()

let test_poisson_is_deterministic () =
  let a = schedule ~seed:11 ~count:300 in
  let b = schedule ~seed:11 ~count:300 in
  check_bool "same seed, same schedule" true (a = b);
  let c = schedule ~seed:12 ~count:300 in
  check_bool "different seed, different schedule" true (a <> c)

let test_poisson_shape () =
  let n = 2000 in
  let s = schedule ~seed:3 ~count:n in
  check_int "count" n (Array.length s);
  Array.iteri (fun i a -> check_int "seq is the index" i a.Load.req.Wire.seq) s;
  let monotone = ref true in
  for i = 1 to n - 1 do
    if s.(i).Load.at <= s.(i - 1).Load.at then monotone := false
  done;
  check_bool "arrival times strictly increase" true !monotone;
  (* Mean inter-arrival gap within 10% of the requested mean. *)
  let span = float_of_int (s.(n - 1).Load.at - s.(0).Load.at) in
  let mean = span /. float_of_int (n - 1) in
  check_bool
    (Printf.sprintf "mean gap %.1f near 700" mean)
    true
    (mean > 630.0 && mean < 770.0)

let test_poisson_validates () =
  let rng = Rng.create ~seed:1 in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "empty mix" true
    (raises (fun () -> Load.poisson ~rng ~mean_gap:10.0 ~count:1 ~mix:[] ()));
  check_bool "non-positive weight" true
    (raises (fun () ->
         Load.poisson ~rng ~mean_gap:10.0 ~count:1
           ~mix:[ (0, fun _ -> Wire.Echo 1) ] ()));
  check_bool "non-positive gap" true
    (raises (fun () ->
         Load.poisson ~rng ~mean_gap:0.0 ~count:1
           ~mix:(Load.pure (Wire.Echo 1)) ()))

(* Zipf client ids: a pure function of the Rng (the figS hot-client
   schedules rely on it), visibly head-heavy, and validated. *)
let test_zipf_deterministic_and_skewed () =
  let draws seed =
    let rng = Rng.create ~seed in
    let pick = Load.zipf_clients ~n:8 ~theta:1.2 in
    Array.init 4_000 (fun _ -> pick rng)
  in
  let a = draws 5 in
  check_bool "same seed, same draws" true (a = draws 5);
  let counts = Array.make 8 0 in
  Array.iter
    (fun c ->
      check_bool "id in range" true (c >= 0 && c < 8);
      counts.(c) <- counts.(c) + 1)
    a;
  check_bool "client 0 is the hottest" true
    (Array.for_all (fun n -> counts.(0) >= n) counts);
  check_bool "the head dominates the tail" true (counts.(0) > 3 * counts.(7));
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "n < 1 rejected" true
    (raises (fun () -> Load.zipf_clients ~n:0 ~theta:1.0));
  check_bool "negative theta rejected" true
    (raises (fun () -> Load.zipf_clients ~n:2 ~theta:(-0.1)))

(* Adding a client picker must not perturb the arrival times or kinds
   of an existing seed — ids are drawn after the gap and kind. *)
let test_clients_do_not_perturb_arrivals () =
  let base = schedule ~seed:11 ~count:200 in
  let mixed =
    Load.poisson
      ~clients:(Load.zipf_clients ~n:4 ~theta:1.0)
      ~rng:(Rng.create ~seed:11) ~mean_gap:700.0 ~count:200
      ~mix:(Load.pure (Wire.Echo 2000)) ()
  in
  let some_nonzero = ref false in
  Array.iteri
    (fun i a ->
      check_int "same arrival time" base.(i).Load.at a.Load.at;
      check_bool "same request" true (base.(i).Load.req = a.Load.req);
      if a.Load.client <> 0 then some_nonzero := true)
    mixed;
  check_bool "picker actually assigned ids" true !some_nonzero;
  check_bool "pickerless schedules stay client 0" true
    (Array.for_all (fun a -> a.Load.client = 0) base)

(* --- pools end to end --------------------------------------------------- *)

(* Boot without a filesystem, run [main] as the load-generating
   client, insist it exits 0. [metrics], when given, is attached as an
   observability sink. *)
let run_app ?metrics main =
  let engine = Engine.create () in
  let obs =
    Option.map
      (fun m ->
        let obs = Obs.of_engine engine in
        Obs.attach obs (Metrics.sink m);
        obs)
      metrics
  in
  let sys = Bootstrap.start ~no_fs:true ?obs engine in
  let exit = Bootstrap.launch sys ~name:"app" main in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit

let test_open_loop_completes () =
  let sched = schedule ~seed:21 ~count:60 in
  let out = ref None in
  run_app (fun env ->
      let pool =
        ok (Pool.start env (Pool.default_config ~name:"t" ~workers:2 ()))
      in
      let cr = Pool.run_open env pool ~schedule:sched in
      ok (Pool.stop env pool);
      out := Some (cr, Pool.stats pool);
      0);
  let cr, st = Option.get !out in
  check_int "sent" 60 cr.Pool.cr_sent;
  check_int "completed" 60 cr.Pool.cr_completed;
  check_int "rejected" 0 cr.Pool.cr_rejected;
  check_int "failed" 0 cr.Pool.cr_failed;
  check_int "latency samples" 60 (Stats.count cr.Pool.cr_latency);
  check_int "completion records" 60 (List.length cr.Pool.cr_completions);
  check_int "dispatcher admitted" 60 st.Pool.p_admitted;
  check_int "dispatcher completed" 60 st.Pool.p_completed;
  check_int "requests batched" 60 st.Pool.p_batched;
  check_int "pool service samples" 60 (Stats.count (Pool.service_latency st));
  check_bool "latencies are positive" true (Stats.mean cr.Pool.cr_latency > 0.0)

(* Actions fire at their arrival, before it is sent, in list order for
   equal indices; indices outside the schedule never fire. Arrivals a
   million cycles apart tell the arrival from the cycle an action
   fires at. *)
let test_open_loop_actions_fire_at_their_arrival () =
  let gap = 1_000_000 in
  let sched =
    Array.init 6 (fun i ->
        { Load.at = (i + 1) * gap; client = 0;
          req = { Wire.seq = i; rk = Wire.Echo 100 } })
  in
  let fired = ref [] in
  run_app (fun env ->
      let pool =
        ok (Pool.start env (Pool.default_config ~name:"t" ~workers:2 ()))
      in
      let t0 = Engine.now env.M3.Env.engine in
      let act name () =
        fired := (name, (Engine.now env.M3.Env.engine - t0) / gap) :: !fired
      in
      let actions =
        [ (4, act "d"); (1, act "a"); (-1, act "neg"); (4, act "e"); (0, act "z");
          (6, act "past"); (1, act "b"); (5, act "last"); (99, act "far") ]
      in
      let cr = Pool.run_open ~actions env pool ~schedule:sched in
      ok (Pool.stop env pool);
      if cr.Pool.cr_completed = 6 then 0 else 1);
  Alcotest.(check (list (pair string int)))
    "action, arrival it fired before"
    [ ("z", 0); ("a", 1); ("b", 1); ("d", 4); ("e", 4); ("last", 5) ]
    (List.rev !fired)

let test_closed_loop_completes () =
  let out = ref None in
  run_app (fun env ->
      let pool =
        ok (Pool.start env (Pool.default_config ~name:"t" ~workers:2 ()))
      in
      let cr =
        Pool.run_closed env pool ~clients:4 ~total:40 ~make:(fun _ ->
            Wire.Echo 1500)
      in
      ok (Pool.stop env pool);
      out := Some cr;
      0);
  let cr = Option.get !out in
  check_int "sent" 40 cr.Pool.cr_sent;
  check_int "completed" 40 cr.Pool.cr_completed;
  check_int "rejected" 0 cr.Pool.cr_rejected

(* A one-worker pool with a two-deep queue under a dense burst:
   overload must be rejected with E_overload (counted, not served),
   and every accepted request must still complete. Batching kicks in
   on the backlog, so strictly fewer worker messages than requests. *)
let test_admission_rejects_overload () =
  let sched =
    Load.poisson ~rng:(Rng.create ~seed:31) ~mean_gap:120.0 ~count:80
      ~mix:(Load.pure (Wire.Echo 3000)) ()
  in
  let metrics = Metrics.create () in
  let out = ref None in
  run_app ~metrics (fun env ->
      let pool =
        ok
          (Pool.start env
             {
               (Pool.default_config ~name:"adm" ~workers:1 ()) with
               Pool.queue_limit = 4;
             })
      in
      let cr = Pool.run_open env pool ~schedule:sched in
      ok (Pool.stop env pool);
      out := Some (cr, Pool.stats pool);
      0);
  let cr, st = Option.get !out in
  check_bool "some requests rejected" true (cr.Pool.cr_rejected > 0);
  check_bool "some requests served" true (cr.Pool.cr_completed > 0);
  check_int "every request resolved" 80
    (cr.Pool.cr_completed + cr.Pool.cr_rejected + cr.Pool.cr_failed);
  check_int "client and dispatcher agree on rejects" cr.Pool.cr_rejected
    st.Pool.p_rejected;
  check_int "client and dispatcher agree on completions" cr.Pool.cr_completed
    st.Pool.p_completed;
  check_bool "backlog was batched" true (st.Pool.p_batches < st.Pool.p_batched);
  (* The serve.* events landed in the metrics sink. *)
  check_int "metrics saw the rejects" st.Pool.p_rejected
    (match List.assoc_opt "adm" (Metrics.serve_rejects metrics) with
    | Some n -> n
    | None -> 0);
  (match List.assoc_opt "adm" (Metrics.serve_latencies metrics) with
  | Some s -> check_int "metrics saw every completion" st.Pool.p_completed
                (Stats.count s)
  | None -> Alcotest.fail "no serve latency metrics");
  match List.assoc_opt "adm" (Metrics.serve_batches metrics) with
  | Some s -> check_int "metrics saw every batch" st.Pool.p_batches
                (Stats.count s)
  | None -> Alcotest.fail "no serve batch metrics"

(* --- exactly-once under trip recovery ----------------------------------- *)

(* The at-least-once regression: a single-seat breaker pool serving
   non-idempotent [App] requests (a host-side counter witnesses every
   execution). One request stalls past the watchdog, the breaker trips
   and the batch is front-requeued; the worker's late reply is then
   harvested — completions delivered, requeued copies struck — so no
   argument may ever execute twice even though dispatch is
   at-least-once. *)
let test_trip_recovery_is_exactly_once () =
  let sched =
    Load.poisson ~rng:(Rng.create ~seed:47) ~mean_gap:2_500.0 ~count:80
      ~mix:[ (1, fun s -> Wire.App s) ]
      ()
  in
  let execs : (int, int) Hashtbl.t = Hashtbl.create 128 in
  let stalled = ref false in
  let out = ref None in
  run_app (fun env ->
      let cfg =
        {
          (Pool.default_config ~name:"dd" ~workers:1 ()) with
          Pool.watchdog = 30_000;
          gateway =
            Some
              (Gateway.config ~breaker:(Gateway.breaker ~cooldown:50_000 ()) ());
          app =
            Some
              (fun arg ->
                Hashtbl.replace execs arg
                  (1 + Option.value ~default:0 (Hashtbl.find_opt execs arg));
                if !stalled then 500
                else begin
                  stalled := true;
                  60_000
                end);
        }
      in
      let pool = ok (Pool.start env cfg) in
      let cr = Pool.run_open env pool ~schedule:sched in
      ok (Pool.stop env pool);
      out := Some (cr, Pool.stats pool);
      0);
  let cr, st = Option.get !out in
  check_bool "the stall tripped the breaker" true (st.Pool.p_trips >= 1);
  check_bool "late completions were harvested" true (st.Pool.p_deduped >= 1);
  Hashtbl.iter
    (fun arg n ->
      check_int (Printf.sprintf "request %d executed exactly once" arg) 1 n)
    execs;
  check_int "every completion is one execution" cr.Pool.cr_completed
    (Hashtbl.length execs);
  check_int "no request failed" 0 cr.Pool.cr_failed;
  check_int "every request resolved" 80
    (cr.Pool.cr_completed + cr.Pool.cr_unavail + cr.Pool.cr_rejected
   + cr.Pool.cr_failed)

(* --- generations past the wire's width --------------------------------- *)

(* A one-seat pool hot-upgraded before each of [upgrades] arrivals,
   then four plain ones, 2 M cycles apart. Generation 256 is the first
   whose wire byte repeats an earlier one: a dispatcher that compares
   the echoed byte with an unbounded counter takes generation 256's
   live reply for a retired generation's and the seat never comes back
   idle. *)
let test_many_upgrades_keep_serving () =
  let upgrades = 256 in
  let n = upgrades + 4 in
  let sched =
    Array.init n (fun i ->
        { Load.at = (i + 1) * 2_000_000; client = 0;
          req = { Wire.seq = i; rk = Wire.Echo 100 } })
  in
  let out = ref None in
  run_app (fun env ->
      let pool = ok (Pool.start env (Pool.default_config ~name:"gen" ~workers:1 ())) in
      let actions =
        List.init upgrades (fun i ->
            (i, fun () -> ok (Pool.upgrade_worker env pool ~worker:0)))
      in
      let cr = Pool.run_open ~actions env pool ~schedule:sched in
      ok (Pool.stop env pool);
      out := Some (cr, Pool.stats pool, Pool.upgrades_seen pool);
      0);
  let cr, st, seen = Option.get !out in
  check_int "every request completed" n cr.Pool.cr_completed;
  check_int "every upgrade committed" upgrades st.Pool.p_upgrades;
  check_int "the client saw every commit" upgrades seen;
  check_int "no reply was taken for a retired generation's" 0 st.Pool.p_deduped

(* The default platform has 16 PEs, so 16 workers cannot all boot
   beside the kernel, the client and the dispatcher: a pool that
   cannot staff every seat never opens, rather than opening smaller
   than its config says. Its dispatcher dies at boot: [start] must say
   so ([E_vpe_gone]) within 1 M cycles, with the dispatcher's and the
   workers' PEs free again. *)
let test_understaffed_pool_does_not_start () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let k = sys.Bootstrap.kernel in
  let out = ref None in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        let free = M3.Kernel.free_pes k and t0 = Engine.now engine in
        let r = Pool.start env (Pool.default_config ~name:"big" ~workers:16 ()) in
        out := Some (r, Engine.now engine - t0, free, M3.Kernel.free_pes k);
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  let r, took, free_before, free_after = Option.get !out in
  check_bool "start returned an error" true (Result.is_error r);
  (match r with
  | Error Errno.E_vpe_gone -> ()
  | Error e -> Alcotest.failf "start failed with %s" (Errno.to_string e)
  | Ok _ -> ());
  check_bool
    (Printf.sprintf "the dead dispatcher is reported in %d cycles (< 1 M)" took)
    true (took < 1_000_000);
  check_int "the dispatcher's PE and its workers' are free again" free_before
    free_after

(* --- gateway determinism ------------------------------------------------- *)

(* A full trip/probe/close cycle is a function of the seed alone: two
   runs of the same stall scenario must agree byte for byte on the
   event log and on the final simulated cycle. *)
let breaker_logged_run () =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  let sys = Bootstrap.start ~no_fs:true ~obs engine in
  let sched =
    Load.poisson ~rng:(Rng.create ~seed:91) ~mean_gap:2_500.0 ~count:60
      ~mix:(Load.pure (Wire.Echo 2000)) ()
  in
  sched.(5) <-
    { (sched.(5)) with Load.req = { sched.(5).Load.req with Wire.rk = Wire.App 1 } };
  let stalled = ref false in
  let out = ref None in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        let cfg =
          {
            (Pool.default_config ~name:"det" ~workers:1 ()) with
            Pool.watchdog = 30_000;
            gateway =
              Some
                (Gateway.config
                   ~breaker:(Gateway.breaker ~cooldown:50_000 ())
                   ());
            app =
              Some
                (fun _ ->
                  if !stalled then 500
                  else begin
                    stalled := true;
                    60_000
                  end);
          }
        in
        let pool = ok (Pool.start env cfg) in
        let cr = Pool.run_open env pool ~schedule:sched in
        ok (Pool.stop env pool);
        out := Some (cr, Pool.stats pool);
        0)
  in
  let final = Engine.run engine in
  Bootstrap.expect_exit sys exit;
  let cr, st = Option.get !out in
  (Obs.Memory.to_string mem, final, cr, st)

let test_breaker_is_deterministic () =
  let log_a, cyc_a, cr_a, st_a = breaker_logged_run () in
  let log_b, cyc_b, _, _ = breaker_logged_run () in
  check_bool "the breaker tripped" true (st_a.Pool.p_trips >= 1);
  check_bool "and closed again" true (st_a.Pool.p_closes >= 1);
  check_int "no failed requests" 0 cr_a.Pool.cr_failed;
  check_string "byte-identical event logs" log_a log_b;
  check_int "identical final cycle" cyc_a cyc_b

(* --- zero-cost guard ---------------------------------------------------- *)

(* The same no-pool workload, once oblivious to serve and once
   constructing schedules/configs/encodings on the side: logs and
   final cycle must match byte for byte (serve values are host-side
   until a pool actually starts). *)
let logged_run ~with_serve_values =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  let sys = Bootstrap.start ~no_fs:true ~obs engine in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        if with_serve_values then begin
          let sched = schedule ~seed:77 ~count:50 in
          let cfg = Pool.default_config ~name:"unused" ~workers:4 () in
          ignore (Wire.encode_request sched.(0).Load.req);
          ignore (Load.offered_rate sched);
          ignore cfg.Pool.queue_limit
        end;
        for _ = 1 to 20 do
          ok (Syscalls.noop env)
        done;
        0)
  in
  let final = Engine.run engine in
  Bootstrap.expect_exit sys exit;
  (Obs.Memory.to_string mem, final)

let test_no_pool_is_zero_cost () =
  let log_plain, cycles_plain = logged_run ~with_serve_values:false in
  let log_values, cycles_values = logged_run ~with_serve_values:true in
  check_bool "log not empty" true (String.length log_plain > 0);
  check_string "byte-identical event logs" log_plain log_values;
  check_int "identical final cycle" cycles_plain cycles_values

(* A gateway that never fires must be invisible: the same seeded pool
   run with [gateway = None] and with a bucket generous enough to
   admit everything (burst covers the whole schedule) must produce
   byte-identical event logs and the same final cycle — bucket checks
   are host-side and a bucket-only gateway never arms dispatcher
   polling. *)
let gateway_cost_run gateway =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  let sys = Bootstrap.start ~no_fs:true ~obs engine in
  let sched = schedule ~seed:83 ~count:50 in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        let cfg =
          {
            (Pool.default_config ~name:"zc" ~workers:2 ()) with
            Pool.gateway = gateway;
          }
        in
        let pool = ok (Pool.start env cfg) in
        let cr = Pool.run_open env pool ~schedule:sched in
        ok (Pool.stop env pool);
        if cr.Pool.cr_completed <> 50 || cr.Pool.cr_throttled <> 0 then 1 else 0)
  in
  let final = Engine.run engine in
  Bootstrap.expect_exit sys exit;
  (Obs.Memory.to_string mem, final)

let test_idle_gateway_is_zero_cost () =
  let generous =
    Gateway.config ~bucket:(Gateway.bucket ~burst:64 ~refill:1 ()) ()
  in
  let log_off, cycles_off = gateway_cost_run None in
  let log_on, cycles_on = gateway_cost_run (Some generous) in
  check_bool "log not empty" true (String.length log_off > 0);
  check_string "byte-identical event logs" log_off log_on;
  check_int "identical final cycle" cycles_off cycles_on

(* --- figS: determinism and acceptance ----------------------------------- *)

let test_figs_is_deterministic () =
  let tiny () =
    Figs.run ~quick:true ~pools:[ 1 ] ~utils:[ 0.4; 1.3 ] ~requests:80
      ~seed:0xD1CE ()
  in
  let a = tiny () and b = tiny () in
  check_string "same seed, same SERVE_results.json" (Figs.to_json a)
    (Figs.to_json b)

(* One CI-sized figS run shared by the acceptance checks. *)
let figs_quick = lazy (Figs.run ~quick:true ())

let test_figs_knee () =
  let t = Lazy.force figs_quick in
  let c = Figs.main_curve t in
  check_int "acceptance curve is the 4-worker pool" 4 c.Figs.w_workers;
  let low = List.hd c.Figs.w_points in
  let last = List.nth c.Figs.w_points (List.length c.Figs.w_points - 1) in
  check_bool
    (Printf.sprintf "p99 inflates %.0f -> %.0f at saturation" low.Figs.s_p99
       last.Figs.s_p99)
    true
    (last.Figs.s_p99 >= Figs.knee_p99_factor *. low.Figs.s_p99);
  check_bool "knee verdict" true (Figs.knee_verdict t)

let test_figs_admission_slo () =
  let t = Lazy.force figs_quick in
  let a = t.Figs.g_admission in
  check_bool "overload was rejected" true (a.Figs.a_rejected > 0);
  check_bool
    (Printf.sprintf "accepted p99 %.0f <= 3x low-load p99 %.0f" a.Figs.a_p99
       a.Figs.a_low_p99)
    true
    (a.Figs.a_p99 <= Figs.admission_p99_factor *. a.Figs.a_low_p99);
  check_bool "admission verdict" true (Figs.admission_verdict t)

let test_figs_crash_restart () =
  let t = Lazy.force figs_quick in
  let k = t.Figs.g_crash in
  check_int "exactly one injected crash" 1 k.Figs.k_crashes;
  check_bool "at least one supervised restart" true (k.Figs.k_restarts >= 1);
  check_bool "dead worker's batch was retried" true (k.Figs.k_retried >= 1);
  check_bool
    (Printf.sprintf "post-restart throughput ratio %.2f >= 0.75" k.Figs.k_ratio)
    true
    (k.Figs.k_ratio
    >= float_of_int (k.Figs.k_workers - 1) /. float_of_int k.Figs.k_workers);
  check_bool "crash verdict" true (Figs.crash_verdict t)

let test_figs_mix () =
  let t = Lazy.force figs_quick in
  check_bool "mixed-kind requests all completed" true (Figs.mix_verdict t)

let test_figs_autoscale () =
  let t = Lazy.force figs_quick in
  let u = t.Figs.g_autoscale in
  check_bool "the dispatcher grew the pool" true (u.Figs.u_scale_ups >= 1);
  check_bool "the dispatcher shrank it back" true (u.Figs.u_scale_downs >= 1);
  check_int "both pools completed the same work" u.Figs.u_elastic_completed
    u.Figs.u_static_completed;
  let bound = Figs.autoscale_p99_factor *. u.Figs.u_low_p99 in
  check_bool
    (Printf.sprintf "elastic p99 %.0f held under %.0f across the ramp"
       u.Figs.u_elastic_p99 bound)
    true
    (u.Figs.u_elastic_p99 <= bound);
  check_bool
    (Printf.sprintf "static floor p99 %.0f blew through %.0f"
       u.Figs.u_static_p99 bound)
    true
    (u.Figs.u_static_p99 > bound);
  check_bool "autoscale verdict" true (Figs.autoscale_verdict t)

let test_figs_hotclient () =
  let t = Lazy.force figs_quick in
  let h = t.Figs.g_hotclient in
  check_bool "the flood was throttled" true (h.Figs.h_hot_throttled > 0);
  (* Both schedules carry [g_requests] requests each. *)
  check_int "no request failed: each completed or was throttled"
    (2 * t.Figs.g_requests)
    (h.Figs.h_completed + h.Figs.h_throttled);
  check_bool "the flood dominates the throttle count" true
    (h.Figs.h_hot_throttled <= h.Figs.h_throttled
    && 10 * (h.Figs.h_throttled - h.Figs.h_hot_throttled)
       <= h.Figs.h_throttled);
  let bound = Figs.hotclient_factor *. h.Figs.h_baseline_p99 in
  check_bool
    (Printf.sprintf "guarded p99 %.0f within %.0f of the no-flood baseline"
       h.Figs.h_guarded_p99 bound)
    true
    (h.Figs.h_guarded_p99 <= bound);
  check_bool "hotclient verdict" true (Figs.hotclient_verdict t)

let test_figs_breaker () =
  let t = Lazy.force figs_quick in
  let b = t.Figs.g_breaker in
  check_bool "the stall tripped the breaker" true (b.Figs.b_trips >= 1);
  check_bool "requests fast-failed while open" true (b.Figs.b_unavail >= 1);
  check_bool "a half-open probe went out" true (b.Figs.b_probes >= 1);
  check_bool "and closed the breaker" true (b.Figs.b_closes >= 1);
  check_bool "the stalled batch was harvested" true (b.Figs.b_deduped >= 1);
  check_int "no request failed" 0 b.Figs.b_failed;
  check_bool "breaker verdict" true (Figs.breaker_verdict t)

let test_figs_upgrade () =
  let t = Lazy.force figs_quick in
  let u = t.Figs.g_upgrade in
  check_bool "a worker swap committed" true (u.Figs.up_upgrades >= 1);
  check_bool "the client observed the commit" true
    (u.Figs.up_seen >= u.Figs.up_upgrades);
  check_bool "every mounted shard turned its generation over" true
    (u.Figs.up_fs_gens <> []
    && List.for_all (fun (_, g) -> g >= 1) u.Figs.up_fs_gens);
  check_int "zero failed requests across the swap" 0 u.Figs.up_failed;
  check_int "every request completed" u.Figs.up_sent u.Figs.up_completed;
  check_int "retired generation leaked no endpoints" 0 u.Figs.up_leaked_eps;
  check_int "retired generation leaked no capabilities" 0 u.Figs.up_leaked_caps;
  check_bool "upgrade verdict" true (Figs.upgrade_verdict t)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "serve.wire",
      [
        tc "request round-trips" test_request_round_trip;
        tc "client id round-trips" test_request_client_round_trip;
        tc "drain round-trips" test_drain_round_trip;
        tc "upgrade round-trips" test_upgrade_round_trip;
        tc "admission verdict round-trips" test_admit_round_trip;
        tc "batch round-trips" test_batch_round_trip;
        tc "worker reply round-trips" test_worker_reply_round_trip;
        tc "notice round-trips" test_notice_round_trip;
        tc "E_overload encoding is stable" test_overload_errno;
        tc "gateway errno encodings are stable" test_gateway_errnos;
      ] );
    ( "serve.stats",
      [
        tc "merge is exact" test_stats_merge_is_exact;
        tc "fractional and negative percentiles"
          test_percentile_fractional_and_negative;
      ] );
    ( "serve.load",
      [
        tc "poisson is deterministic" test_poisson_is_deterministic;
        tc "poisson shape" test_poisson_shape;
        tc "poisson validates arguments" test_poisson_validates;
        tc "zipf is deterministic and skewed" test_zipf_deterministic_and_skewed;
        tc "client ids do not perturb arrivals"
          test_clients_do_not_perturb_arrivals;
      ] );
    ( "serve.pool",
      [
        tc "open loop completes" test_open_loop_completes;
        tc "open-loop actions fire at their arrival"
          test_open_loop_actions_fire_at_their_arrival;
        tc "closed loop completes" test_closed_loop_completes;
        tc "admission rejects overload" test_admission_rejects_overload;
        tc "trip recovery is exactly-once" test_trip_recovery_is_exactly_once;
        tc "breaker runs are deterministic" test_breaker_is_deterministic;
        tc "a seat keeps serving past 256 upgrades" test_many_upgrades_keep_serving;
        tc "a pool that cannot boot every worker does not start"
          test_understaffed_pool_does_not_start;
        tc "no pool, no cost" test_no_pool_is_zero_cost;
        tc "idle gateway, no cost" test_idle_gateway_is_zero_cost;
      ] );
    ( "serve.figS",
      [
        tc "deterministic results" test_figs_is_deterministic;
        tc "knee" test_figs_knee;
        tc "admission SLO" test_figs_admission_slo;
        tc "crash restart" test_figs_crash_restart;
        tc "mixed kinds" test_figs_mix;
        tc "autoscale" test_figs_autoscale;
        tc "hot-client isolation" test_figs_hotclient;
        tc "breaker trip and recovery" test_figs_breaker;
        tc "upgrade under load" test_figs_upgrade;
      ] );
  ]
