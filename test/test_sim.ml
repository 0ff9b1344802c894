(* Tests for the discrete-event engine and the effect-based processes. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Heap = M3_sim.Heap
module Rng = M3_sim.Rng
module Account = M3_sim.Account
module Stats = M3_sim.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h ~key:k k) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i name -> Heap.push h ~key:7 (i, name)) [ "a"; "b"; "c" ];
  let order =
    List.init 3 (fun _ ->
        match Heap.pop h with Some (_, (_, n)) -> n | None -> "?")
  in
  Alcotest.(check (list string)) "FIFO among equal keys" [ "a"; "b"; "c" ] order

let test_heap_interleaved () =
  let h = Heap.create () in
  for i = 0 to 999 do
    Heap.push h ~key:(i * 7 mod 101) i
  done;
  let prev = ref (-1) in
  let ok = ref true in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (k, _) ->
      if k < !prev then ok := false;
      prev := k;
      drain ()
  in
  drain ();
  check_bool "monotone keys" true !ok;
  check_bool "empty at end" true (Heap.is_empty h)

(* --- engine --- *)

let test_engine_time_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~delay:10 (fun () -> seen := (10, Engine.now e) :: !seen);
  Engine.schedule e ~delay:5 (fun () -> seen := (5, Engine.now e) :: !seen);
  let final = Engine.run e in
  check_int "final time" 10 final;
  Alcotest.(check (list (pair int int)))
    "events in order with correct now" [ (5, 5); (10, 10) ] (List.rev !seen)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e ~delay:1 (fun () ->
      Engine.schedule e ~delay:2 (fun () ->
          incr hits;
          check_int "nested time" 3 (Engine.now e)));
  ignore (Engine.run e);
  check_int "nested ran" 1 !hits

let test_engine_run_until () =
  let e = Engine.create () in
  let ran = ref [] in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> ran := d :: !ran))
    [ 1; 5; 10 ];
  Engine.run_until e ~time:5;
  Alcotest.(check (list int)) "only up to 5" [ 5; 1 ] !ran;
  check_int "clock at boundary" 5 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "rest ran" [ 10; 5; 1 ] !ran

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:3 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument
        "Engine.schedule_at: time 1 is in the past (now 3)")
        (fun () -> Engine.schedule_at e ~time:1 (fun () -> ())));
  ignore (Engine.run e)

(* --- processes --- *)

let test_process_wait () =
  let e = Engine.create () in
  let trace = ref [] in
  let _p =
    Process.spawn e ~name:"t" (fun () ->
        trace := ("start", Engine.now e) :: !trace;
        Process.wait 100;
        trace := ("mid", Engine.now e) :: !trace;
        Process.wait 50;
        trace := ("end", Engine.now e) :: !trace)
  in
  ignore (Engine.run e);
  Alcotest.(check (list (pair string int)))
    "timeline"
    [ ("start", 0); ("mid", 100); ("end", 150) ]
    (List.rev !trace)

let test_process_status () =
  let e = Engine.create () in
  let p = Process.spawn e ~name:"ok" (fun () -> Process.wait 1) in
  let q = Process.spawn e ~name:"boom" (fun () -> failwith "boom") in
  ignore (Engine.run e);
  check_bool "finished" true (Process.status p = Process.Finished);
  (match Process.status q with
  | Process.Failed (Failure m) -> Alcotest.(check string) "msg" "boom" m
  | _ -> Alcotest.fail "expected failure");
  ()

let test_process_ivar () =
  let e = Engine.create () in
  let iv = Process.Ivar.create () in
  let got = ref 0 and t_read = ref 0 in
  let _reader =
    Process.spawn e ~name:"reader" (fun () ->
        got := Process.Ivar.read iv;
        t_read := Engine.now e)
  in
  let _writer =
    Process.spawn e ~name:"writer" (fun () ->
        Process.wait 42;
        Process.Ivar.fill iv 7)
  in
  ignore (Engine.run e);
  check_int "value" 7 !got;
  check_int "woke at fill time" 42 !t_read

let test_process_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Process.Ivar.create () in
  Process.Ivar.fill iv "x";
  let got = ref "" in
  let _p = Process.spawn e ~name:"r" (fun () -> got := Process.Ivar.read iv) in
  ignore (Engine.run e);
  Alcotest.(check string) "immediate" "x" !got;
  check_bool "is_filled" true (Process.Ivar.is_filled iv)

let test_process_waitq_fifo () =
  let e = Engine.create () in
  let q = Process.Waitq.create () in
  let woken = ref [] in
  for i = 1 to 3 do
    ignore
      (Process.spawn e
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           Process.wait i;
           let v = Process.Waitq.park q in
           woken := (i, v) :: !woken))
  done;
  ignore
    (Process.spawn e ~name:"signaller" (fun () ->
         Process.wait 100;
         check_int "three waiters" 3 (Process.Waitq.waiters q);
         ignore (Process.Waitq.signal q "first");
         ignore (Process.Waitq.signal q "second");
         Process.Waitq.broadcast q "rest"));
  ignore (Engine.run e);
  Alcotest.(check (list (pair int string)))
    "wakeup order is FIFO"
    [ (1, "first"); (2, "second"); (3, "rest") ]
    (List.rev !woken)

let test_process_kill () =
  let e = Engine.create () in
  let reached = ref false in
  let p =
    Process.spawn e ~name:"victim" (fun () ->
        Process.wait 10;
        reached := true)
  in
  ignore (Process.spawn e ~name:"killer" (fun () ->
      Process.wait 5;
      Process.kill p));
  ignore (Engine.run e);
  check_bool "body after kill not reached" false !reached;
  check_bool "victim finished" true (Process.status p = Process.Finished)

let test_process_kill_while_parked () =
  let e = Engine.create () in
  let q = Process.Waitq.create () in
  let p = Process.spawn e ~name:"parked" (fun () -> Process.Waitq.park q) in
  ignore
    (Process.spawn e ~name:"killer" (fun () ->
         Process.wait 5;
         Process.kill p;
         (* The kill takes effect when the process next resumes. *)
         ignore (Process.Waitq.signal q ())));
  ignore (Engine.run e);
  check_bool "killed cleanly" true (Process.status p = Process.Finished)

let test_two_processes_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  let mk name step =
    Process.spawn e ~name (fun () ->
        for i = 1 to 3 do
          Process.wait step;
          log := (name, i, Engine.now e) :: !log
        done)
  in
  ignore (mk "a" 10);
  ignore (mk "b" 15);
  ignore (Engine.run e);
  Alcotest.(check (list (triple string int int)))
    "deterministic interleaving"
    [
      (* At t = 30 both are due; "b" scheduled its event first (at
         t = 15 vs t = 20), so FIFO tie-breaking runs "b" first. *)
      ("a", 1, 10); ("b", 1, 15); ("a", 2, 20); ("b", 2, 30); ("a", 3, 30);
      ("b", 3, 45);
    ]
    (List.rev !log)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let w = Rng.int_in r ~lo:5 ~hi:9 in
    check_bool "in closed range" true (w >= 5 && w <= 9);
    let f = Rng.float r in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 10 (fun _ -> Rng.bits64 child) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_fill_bytes () =
  let r = Rng.create ~seed:3 in
  let buf = Bytes.make 64 'z' in
  Rng.fill_bytes r buf ~pos:8 ~len:16;
  check_bool "prefix untouched" true
    (Bytes.sub_string buf 0 8 = String.make 8 'z');
  check_bool "suffix untouched" true
    (Bytes.sub_string buf 24 40 = String.make 40 'z');
  check_bool "middle randomized" true
    (Bytes.sub_string buf 8 16 <> String.make 16 'z')

(* --- account / stats --- *)

let test_account () =
  let a = Account.create () in
  Account.charge a Account.App 10;
  Account.charge a Account.Os 5;
  Account.charge a Account.Xfer 3;
  Account.charge a Account.App 1;
  check_int "app" 11 (Account.get a Account.App);
  check_int "total" 19 (Account.total a);
  let b = Account.create () in
  Account.charge b Account.Os 100;
  Account.add ~into:b a;
  check_int "merged" 119 (Account.total b);
  Account.reset a;
  check_int "reset" 0 (Account.total a)

let test_stats () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_int "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s)

let test_percentile () =
  let chk name expect got = Alcotest.(check (float 1e-9)) name expect got in
  (* 0 observations: every percentile is 0. *)
  let empty = Stats.create () in
  chk "empty p0" 0.0 (Stats.percentile empty 0.0);
  chk "empty p50" 0.0 (Stats.percentile empty 50.0);
  chk "empty p100" 0.0 (Stats.percentile empty 100.0);
  (* 1 observation: every percentile is that value. *)
  let one = Stats.of_list [ 42.0 ] in
  chk "one p0" 42.0 (Stats.percentile one 0.0);
  chk "one p50" 42.0 (Stats.percentile one 50.0);
  chk "one p99" 42.0 (Stats.percentile one 99.0);
  chk "one p100" 42.0 (Stats.percentile one 100.0);
  (* 2 observations: linear interpolation between them. *)
  let two = Stats.of_list [ 10.0; 20.0 ] in
  chk "two p0" 10.0 (Stats.percentile two 0.0);
  chk "two p25" 12.5 (Stats.percentile two 25.0);
  chk "two p50" 15.0 (Stats.percentile two 50.0);
  chk "two p100" 20.0 (Stats.percentile two 100.0);
  (* Insertion order must not matter, and out-of-range p is clamped. *)
  let s = Stats.of_list [ 9.0; 2.0; 5.0; 4.0; 7.0; 4.0; 5.0; 4.0 ] in
  chk "p0 = min" 2.0 (Stats.percentile s 0.0);
  chk "p100 = max" 9.0 (Stats.percentile s 100.0);
  chk "p50" 4.5 (Stats.percentile s 50.0);
  chk "clamp low" 2.0 (Stats.percentile s (-10.0));
  chk "clamp high" 9.0 (Stats.percentile s 1000.0);
  (* Adding after a query invalidates the cached order. *)
  Stats.add s 1.0;
  chk "after add, p0" 1.0 (Stats.percentile s 0.0);
  check_int "count grows" 9 (Stats.count s)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap drains keys in sorted order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* --- heap: popped slots must not pin their entries ------------------- *)

(* Kept out of the test body so the payload cannot stay live in the
   caller's frame: once this returns, only the heap's backing array
   could still reference it. *)
let[@inline never] push_pop_cycle h =
  let payload = Array.make 1024 0 in
  let w = Weak.create 1 in
  Weak.set w 0 (Some payload);
  Heap.push h ~key:1 payload;
  (match Heap.pop h with
  | Some (_, v) -> assert (v == payload)
  | None -> assert false);
  w

let test_heap_no_pinning () =
  let h = Heap.create () in
  (* A surviving entry, so the heap stays allocated across the pop. *)
  Heap.push h ~key:5 (Array.make 1 0);
  let w = push_pop_cycle h in
  Gc.full_major ();
  check_bool "drained slot holds no reference to the popped entry" true
    (Weak.get w 0 = None)

(* --- heap: property test against a sorted-list oracle ---------------- *)

(* [Some k] pushes with key [k], [None] pops; the oracle is a stable
   sorted association list, so FIFO-among-equal-keys is checked too. *)
let qcheck_heap_oracle =
  QCheck.Test.make ~name:"heap matches a sorted-list oracle under push/pop"
    ~count:300
    QCheck.(list (option (int_bound 30)))
    (fun ops ->
      let h = Heap.create () in
      let oracle = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some k ->
            Heap.push h ~key:k !seq;
            let rec ins = function
              | (k', v) :: rest when k' <= k -> (k', v) :: ins rest
              | rest -> (k, !seq) :: rest
            in
            oracle := ins !oracle;
            incr seq;
            Heap.length h = List.length !oracle
            && Heap.min_key h = Option.map fst (List.nth_opt !oracle 0)
          | None -> (
            match !oracle with
            | [] -> Heap.pop h = None
            | entry :: rest ->
              oracle := rest;
              Heap.pop h = Some entry))
        ops)

let qcheck_alloc_roundtrip =
  QCheck.Test.make ~name:"process wait sums delays" ~count:100
    QCheck.(list (int_bound 50))
    (fun delays ->
      let e = Engine.create () in
      let _p =
        Process.spawn e ~name:"q" (fun () -> List.iter Process.wait delays)
      in
      Engine.run e = List.fold_left ( + ) 0 delays)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sim.heap",
      [
        tc "pops in key order" test_heap_order;
        tc "FIFO among equal keys" test_heap_fifo_ties;
        tc "interleaved push/pop stays monotone" test_heap_interleaved;
        QCheck_alcotest.to_alcotest qcheck_heap_sorts;
        Alcotest.test_case "heap: popped slots are cleared" `Quick
          test_heap_no_pinning;
        QCheck_alcotest.to_alcotest qcheck_heap_oracle;
      ] );
    ( "sim.engine",
      [
        tc "time advances to event stamps" test_engine_time_advances;
        tc "nested scheduling" test_engine_nested_schedule;
        tc "run_until stops at boundary" test_engine_run_until;
        tc "rejects scheduling in the past" test_engine_rejects_past;
      ] );
    ( "sim.process",
      [
        tc "wait advances local time" test_process_wait;
        tc "status reflects completion and failure" test_process_status;
        tc "ivar blocks until filled" test_process_ivar;
        tc "ivar read after fill is immediate" test_process_ivar_read_after_fill;
        tc "waitq wakes FIFO" test_process_waitq_fifo;
        tc "kill takes effect at next wait" test_process_kill;
        tc "kill while parked" test_process_kill_while_parked;
        tc "two processes interleave deterministically"
          test_two_processes_interleave;
        QCheck_alcotest.to_alcotest qcheck_alloc_roundtrip;
      ] );
    ( "sim.rng",
      [
        tc "deterministic" test_rng_deterministic;
        tc "bounds respected" test_rng_bounds;
        tc "split gives independent stream" test_rng_split_independent;
        tc "fill_bytes stays in slice" test_rng_fill_bytes;
      ] );
    ( "sim.accounting",
      [
        tc "account arithmetic" test_account;
        tc "stats summary" test_stats;
        tc "stats percentiles" test_percentile;
      ]
    );
  ]
