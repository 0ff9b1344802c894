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

(* [pop] as an option of (key, value), [None] when empty. *)
let pop h =
  if Heap.is_empty h then None
  else
    let k = Heap.min_key h in
    Some (k, Heap.pop h)

let min_key h = if Heap.is_empty h then None else Some (Heap.min_key h)

let test_heap_order () =
  let h = Heap.create ~dummy:0 () in
  List.iter (fun k -> Heap.push h ~key:k k) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:(0, "") () in
  List.iteri (fun i name -> Heap.push h ~key:7 (i, name)) [ "a"; "b"; "c" ];
  let order =
    List.init 3 (fun _ ->
        match pop h with Some (_, (_, n)) -> n | None -> "?")
  in
  Alcotest.(check (list string)) "FIFO among equal keys" [ "a"; "b"; "c" ] order

let test_heap_interleaved () =
  let h = Heap.create ~dummy:0 () in
  for i = 0 to 999 do
    Heap.push h ~key:(i * 7 mod 101) i
  done;
  let prev = ref (-1) in
  let ok = ref true in
  let rec drain () =
    match pop h with
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

(* --- processes: fast-forwarded waits -------------------------------- *)

let test_wait_after_queued_event () =
  let e = Engine.create () in
  let log = ref [] in
  let note what = log := (what, Engine.now e) :: !log in
  Engine.schedule e ~delay:5 (fun () -> note "event");
  ignore
    (Process.spawn e ~name:"w" (fun () ->
         Process.wait 5;
         note "wait"));
  let final = Engine.run e in
  Alcotest.(check (list (pair string int)))
    "the event queued for cycle 5 runs first"
    [ ("event", 5); ("wait", 5) ]
    (List.rev !log);
  check_int "spawn, event and resume" 3 (Engine.processed e);
  check_int "final clock" 5 final

let test_run_until_stops_fast_forward () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore
    (Process.spawn e ~name:"w" (fun () ->
         for _ = 1 to 4 do
           Process.wait 10;
           seen := Engine.now e :: !seen
         done));
  Engine.run_until e ~time:25;
  Alcotest.(check (list int))
    "steps up to the limit" [ 10; 20 ] (List.rev !seen);
  check_int "clock at the limit" 25 (Engine.now e);
  check_int "spawn and two resumes" 3 (Engine.processed e);
  let final = Engine.run e in
  Alcotest.(check (list int))
    "run resumes it on time" [ 10; 20; 30; 40 ] (List.rev !seen);
  check_int "final clock" 40 final;
  check_int "spawn and four resumes" 5 (Engine.processed e)

(* One step of a process script; [Park] and [Signal] name one of two
   wait queues. *)
type step =
  | Wait of int
  | Park of int
  | Signal of int

(* Each process's script, plain events by delay, and the sorted
   [run_until] windows taken before the final [run]. *)
type scripted = {
  scripts : step list list;
  events : int list;
  windows : int list;
}

(* [scripted_run setup r] runs [r] on a fresh engine, [setup] starting
   its scripts, and returns the log of (cycle, who, step) — who is -1
   for a plain event and -2 for the end of a window — with
   [Engine.processed] and the final clock. *)
let scripted_run setup r =
  let e = Engine.create () in
  let log = ref [] in
  let note who i = log := (Engine.now e, who, i) :: !log in
  setup e note;
  List.iteri
    (fun i d -> Engine.schedule e ~delay:d (fun () -> note (-1) i))
    r.events;
  List.iteri
    (fun i time ->
      Engine.run_until e ~time;
      note (-2) i)
    r.windows;
  let final = Engine.run e in
  (List.rev !log, Engine.processed e, final)

let run_processes r =
  scripted_run
    (fun e note ->
      let qs = Array.init 2 (fun _ -> Process.Waitq.create ()) in
      List.iteri
        (fun who script ->
          ignore
            (Process.spawn e ~name:"p" (fun () ->
                 List.iteri
                   (fun i step ->
                     (match step with
                     | Wait d -> Process.wait d
                     | Park q -> Process.Waitq.park qs.(q)
                     | Signal q -> ignore (Process.Waitq.signal qs.(q) ()));
                     note who i)
                   script)))
        r.scripts)
    r

(* The model: the same scripts in continuation-passing style, every
   step an [Engine.schedule] thunk. A wait is one event at its end, a
   wake one delay-0 event and a spawn one delay-0 event. *)
let run_model r =
  scripted_run
    (fun e note ->
      let qs = Array.init 2 (fun _ -> Queue.create ()) in
      let rec go who i = function
        | [] -> ()
        | step :: rest -> (
          let next () =
            note who i;
            go who (i + 1) rest
          in
          match step with
          | Wait d -> Engine.schedule e ~delay:d next
          | Park q -> Queue.push next qs.(q)
          | Signal q ->
            Option.iter
              (fun wake -> Engine.schedule e ~delay:0 wake)
              (Queue.take_opt qs.(q));
            next ())
      in
      List.iteri
        (fun who script ->
          Engine.schedule e ~delay:0 (fun () -> go who 0 script))
        r.scripts)
    r

let arb_scripted =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (4, map (fun d -> Wait d) (int_bound 8));
        (1, map (fun q -> Park q) (int_bound 1));
        (1, map (fun q -> Signal q) (int_bound 1));
      ]
  in
  let gen =
    map3
      (fun scripts events windows ->
        { scripts; events; windows = List.sort compare windows })
      (list_size (int_range 1 4) (list_size (int_bound 20) step))
      (list_size (int_bound 4) (int_bound 60))
      (list_size (int_bound 3) (int_bound 80))
  in
  let print r =
    let step = function
      | Wait d -> Printf.sprintf "w%d" d
      | Park q -> Printf.sprintf "p%d" q
      | Signal q -> Printf.sprintf "s%d" q
    in
    let ints l = String.concat " " (List.map string_of_int l) in
    Printf.sprintf "scripts [%s] events [%s] windows [%s]"
      (String.concat "; "
         (List.map (fun sc -> String.concat " " (List.map step sc)) r.scripts))
      (ints r.events) (ints r.windows)
  in
  QCheck.make ~print gen

let qcheck_fast_forward_order =
  QCheck.Test.make ~name:"fast-forwarded waits keep the heap's event order"
    ~count:1000 arb_scripted (fun r -> run_processes r = run_model r)

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
      let h = Heap.create ~dummy:0 () in
      List.iter (fun k -> Heap.push h ~key:k k) keys;
      let rec drain acc =
        match pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* --- heap: popped slots must not pin their entries ------------------- *)

(* Kept out of the test body so the payload cannot stay live in the
   caller's frame: once this returns, only the heap's backing arrays
   could still reference it. The payload, keyed 9, moves into the
   root's hole when key 1 pops and then pops itself; the survivor,
   pushed last, takes slot 0. A heap that skips the slot clear would
   still hold the payload in slot 1. *)
let[@inline never] push_pop_cycle h =
  let payload = Array.make 1024 0 in
  let w = Weak.create 1 in
  Weak.set w 0 (Some payload);
  Heap.push h ~key:1 (Array.make 1 0);
  Heap.push h ~key:9 payload;
  ignore (Heap.pop h);
  assert (Heap.pop h == payload);
  Heap.push h ~key:7 (Array.make 1 0);
  w

let test_heap_no_pinning () =
  let h = Heap.create ~dummy:[||] () in
  let w = push_pop_cycle h in
  Gc.full_major ();
  check_bool "popped slot holds no reference to the popped entry" true
    (Weak.get w 0 = None);
  check_int "heap still live, survivor queued" 1
    (Heap.length (Sys.opaque_identity h))

(* The entry moved from the last slot into the root's hole must not
   stay behind in the last slot either, and a drained heap holds
   nothing it once held. *)
let[@inline never] push_pop_all h =
  let a = Array.make 1024 0 and b = Array.make 1024 1 in
  let w = Weak.create 2 in
  Weak.set w 0 (Some a);
  Weak.set w 1 (Some b);
  Heap.push h ~key:1 a;
  Heap.push h ~key:2 b;
  assert (Heap.pop h == a && Heap.pop h == b);
  w

let test_heap_drained_holds_nothing () =
  let h = Heap.create ~dummy:[||] () in
  let w = push_pop_all h in
  Gc.full_major ();
  check_bool "no popped entry stays referenced" true
    (Weak.get w 0 = None && Weak.get w 1 = None);
  check_int "heap still live and empty" 0 (Heap.length (Sys.opaque_identity h))

(* --- heap: property test against a per-key FIFO oracle --------------- *)

(* [Some k] pushes with key [k], [None] pops. The oracle keeps one FIFO
   of sequence numbers per key and a size, so each operation costs
   O(1) and FIFO-among-equal-keys is checked too. *)
let qcheck_heap_oracle =
  QCheck.Test.make ~name:"heap matches a per-key FIFO oracle under push/pop"
    ~count:300
    QCheck.(list (option (int_bound 30)))
    (fun ops ->
      let h = Heap.create ~dummy:0 () in
      let fifos = Array.init 31 (fun _ -> Queue.create ()) in
      let size = ref 0 and seq = ref 0 in
      let rec oracle_min k =
        if k > 30 then None
        else if Queue.is_empty fifos.(k) then oracle_min (k + 1)
        else Some k
      in
      List.for_all
        (fun op ->
          match op with
          | Some k ->
            Heap.push h ~key:k !seq;
            Queue.push !seq fifos.(k);
            incr size;
            incr seq;
            Heap.length h = !size && min_key h = oracle_min 0
          | None -> (
            match oracle_min 0 with
            | None -> pop h = None
            | Some k ->
              decr size;
              pop h = Some (k, Queue.pop fifos.(k))))
        ops)

(* --- rng: fill_bytes is successive byte draws ------------------------ *)

let qcheck_fill_bytes_draws =
  QCheck.Test.make ~name:"fill_bytes equals successive byte draws" ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_bound 64) (int_bound 300))
    (fun (seed, pos, len) ->
      let buf = Bytes.make (pos + len + 8) 'z' in
      let fast = Rng.create ~seed and slow = Rng.create ~seed in
      Rng.fill_bytes fast buf ~pos ~len;
      let expect =
        String.init (Bytes.length buf) (fun i ->
            if i < pos || i >= pos + len then 'z' else Char.chr (Rng.byte slow))
      in
      Bytes.to_string buf = expect && Rng.bits64 fast = Rng.bits64 slow)

(* After [skip] draws, the bytes a deferred generator yields, asked for
   in pieces taken in any order, are those of [fill_bytes] over the
   same draws; both leave the generator at the same next draw. *)
let qcheck_defer_bytes_draws =
  QCheck.Test.make ~name:"defer_bytes equals fill_bytes after the same draws"
    ~count:300
    QCheck.(
      quad (int_bound 1_000_000) (int_bound 40) (int_bound 600)
        (small_list (int_bound 1000)))
    (fun (seed, skip, len, cuts) ->
      let eager = Rng.create ~seed and lazy_ = Rng.create ~seed in
      for _ = 1 to skip do
        ignore (Rng.bits64 eager);
        ignore (Rng.bits64 lazy_)
      done;
      let expect = Bytes.make len 'z' in
      Rng.fill_bytes eager expect ~pos:0 ~len;
      let gen = Rng.defer_bytes lazy_ ~len in
      (* Pieces between sorted cut points, generated last to first into
         a buffer offset by 5 bytes. *)
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
      let bounds = List.sort_uniq compare ((0 :: cuts) @ [ len ]) in
      let rec pieces = function
        | a :: (b :: _ as rest) -> (a, b) :: pieces rest
        | [ _ ] | [] -> []
      in
      let got = Bytes.make (len + 5) 'z' in
      List.iter
        (fun (a, b) -> gen ~off:a got ~pos:(5 + a) ~len:(b - a))
        (List.rev (pieces bounds));
      Bytes.sub got 5 len = expect
      && Rng.bits64 eager = Rng.bits64 lazy_
      && (match gen ~off:len got ~pos:0 ~len:1 with
         | exception Invalid_argument _ -> true
         | () -> false))

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
        tc "drained heap holds no popped entry" test_heap_drained_holds_nothing;
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
        tc "wait ending at a queued event's cycle runs after it"
          test_wait_after_queued_event;
        tc "run_until stops a fast-forwarding process at its limit"
          test_run_until_stops_fast_forward;
        QCheck_alcotest.to_alcotest qcheck_fast_forward_order;
      ] );
    ( "sim.rng",
      [
        tc "deterministic" test_rng_deterministic;
        tc "bounds respected" test_rng_bounds;
        tc "split gives independent stream" test_rng_split_independent;
        tc "fill_bytes stays in slice" test_rng_fill_bytes;
        QCheck_alcotest.to_alcotest qcheck_fill_bytes_draws;
        QCheck_alcotest.to_alcotest qcheck_defer_bytes_draws;
      ] );
    ( "sim.accounting",
      [
        tc "account arithmetic" test_account;
        tc "stats summary" test_stats;
        tc "stats percentiles" test_percentile;
      ]
    );
  ]
