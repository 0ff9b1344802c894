(* Regression tests for the KV service tier PR:

   - the packed u64 ops round-trip (field-width boundaries included),
     op codes no operation uses are refused by the unpacker and by
     the pool adapter, and the KV errno survives its integer encoding,
   - [Kv_load.zipf_keys] is a pure function of its Rng (same seed,
     same draws) and actually skews (key 0 hottest), and
     [assign_keys] never perturbs a schedule's shape — arrival times,
     clients and operation kinds are byte-for-byte those of the
     unkeyed schedule,
   - key → bucket → shard placement is a pure function of the store
     config: two independent store instances agree on every path, so
     any worker (or test) can compute placement without coordination,
   - the store's durable header makes puts exactly-once under
     at-least-once dispatch: a replayed put is a dup-skip, never a
     second apply; an oversized value answers [E_kv_too_large],
   - an application that merely constructs KV values (stores,
     schedules, packed ops) but starts nothing pays zero simulated
     cycles: its event log is byte-identical to an oblivious run,
   - one full capacity cell of Fig. S2 (boot, shard mounts, pool,
     mount caches) is deterministic: same seed, same record. *)

module Engine = M3_sim.Engine
module Rng = M3_sim.Rng
module Bootstrap = M3.Bootstrap
module Errno = M3.Errno
module Syscalls = M3.Syscalls
module Vfs = M3.Vfs
module Obs = M3_obs.Obs
module Load = M3_serve.Load
module Wire = M3_serve.Wire
module Kv_wire = M3_kv.Kv_wire
module Kv_load = M3_kv.Kv_load
module Store = M3_kv.Kv_store
module Figs2 = M3_harness.Figs2

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let ok = Errno.ok_exn

(* --- packed wire form ---------------------------------------------------- *)

let test_pack_round_trip () =
  List.iter
    (fun op ->
      let op' = Kv_wire.unpack (Kv_wire.pack op) in
      check_bool (Kv_wire.op_name op ^ " round-trips") true (op = op'))
    [
      Kv_wire.Get { key = 0 };
      Kv_wire.Get { key = 0xFFFFFF };
      Kv_wire.Put { key = 1; len = 992 };
      Kv_wire.Put { key = 0xFFFFFF; len = 0xFFFFFF };
    ]

let test_pack_validates () =
  List.iter
    (fun (name, op) ->
      match Kv_wire.pack op with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ ": oversized field was packed"))
    [
      ("oversized key", Kv_wire.Get { key = 0x1_000_000 });
      ("negative key", Kv_wire.Put { key = -1; len = 0 });
      ("oversized len", Kv_wire.Put { key = 0; len = 0x1_000_000 });
    ]

let test_kv_errnos_encode () =
  check_bool "E_kv_too_large survives its integer encoding" true
    (Errno.of_int (Errno.to_int Errno.E_kv_too_large) = Errno.E_kv_too_large)

(* Op codes 2 and 3 name no operation: the unpacker refuses them, and
   the pool adapter answers [E_inv_args] before touching the store. *)
let test_malformed_ops_refused () =
  let args = List.map (fun code -> (code lsl 48) lor (5 lsl 24)) [ 2; 3 ] in
  List.iter
    (fun arg ->
      match Kv_wire.unpack arg with
      | exception Invalid_argument _ -> ()
      | op -> Alcotest.failf "%#x unpacked as a %s" arg (Kv_wire.op_name op))
    args;
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let store = Store.create ~name:"kv" () in
  let answers = ref [] in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        answers := List.map (Store.pool_exec store env ~seq:1) args;
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  check_int "one answer per op" 2 (List.length !answers);
  List.iter
    (fun e ->
      check_string "pool_exec answer" (Errno.to_string Errno.E_inv_args)
        (Errno.to_string e))
    !answers

(* --- key distribution ---------------------------------------------------- *)

let draws ~seed ~n ~sample count =
  let rng = Rng.create ~seed in
  let s = sample ~n in
  Array.init count (fun _ -> s rng)

let test_zipf_keys_deterministic_and_skewed () =
  let sample ~n = Kv_load.zipf_keys ~n ~theta:0.9 in
  let a = draws ~seed:11 ~n:64 ~sample 2000 in
  let b = draws ~seed:11 ~n:64 ~sample 2000 in
  check_bool "same seed, same key stream" true (a = b);
  let freq = Array.make 64 0 in
  Array.iter (fun k -> freq.(k) <- freq.(k) + 1) a;
  let hottest = ref 0 in
  Array.iteri (fun i c -> if c > freq.(!hottest) then hottest := i) freq;
  check_int "key 0 is the hottest" 0 !hottest;
  check_bool "and carries real mass" true
    (float_of_int freq.(0) > 0.05 *. 2000.0)

let test_uniform_keys_cover () =
  let ks = draws ~seed:12 ~n:8 ~sample:(fun ~n -> Kv_load.uniform_keys ~n) 800 in
  Array.iter (fun k -> check_bool "key in range" true (k >= 0 && k < 8)) ks;
  let freq = Array.make 8 0 in
  Array.iter (fun k -> freq.(k) <- freq.(k) + 1) ks;
  Array.iter (fun c -> check_bool "every key drawn" true (c > 0)) freq

(* [assign_keys] must only rewrite the keys of KV ops: arrival
   times, client ids, sequence numbers and the operation kinds
   themselves are those of the unkeyed schedule, byte for byte. *)
let test_assign_keys_does_not_perturb () =
  let schedule =
    Load.poisson ~rng:(Rng.create ~seed:21)
      ~clients:(Load.uniform_clients ~n:3) ~mean_gap:1_000.0 ~count:80
      ~mix:(Kv_load.op_mix ~reads:3 ~writes:1) ()
  in
  let keyed =
    Kv_load.assign_keys ~rng:(Rng.create ~seed:22)
      ~sample:(Kv_load.zipf_keys ~n:32 ~theta:0.9)
      schedule
  in
  check_int "same length" (Array.length schedule) (Array.length keyed);
  Array.iteri
    (fun i (a : Load.arrival) ->
      let b = keyed.(i) in
      check_int "same arrival time" a.Load.at b.Load.at;
      check_int "same client" a.Load.client b.Load.client;
      check_int "same seq" a.Load.req.Wire.seq b.Load.req.Wire.seq;
      match (a.Load.req.Wire.rk, b.Load.req.Wire.rk) with
      | Wire.Kv pa, Wire.Kv pb -> (
        match (Kv_wire.unpack pa, Kv_wire.unpack pb) with
        | Kv_wire.Get _, Kv_wire.Get { key } ->
          check_bool "key in range" true (key >= 0 && key < 32)
        | Kv_wire.Put { len = la; _ }, Kv_wire.Put { key; len = lb } ->
          check_int "same value length" la lb;
          check_bool "key in range" true (key >= 0 && key < 32)
        | _ -> Alcotest.fail "operation kind changed")
      | ra, rb ->
        check_bool "non-KV requests pass through untouched" true (ra = rb))
    schedule;
  let again =
    Kv_load.assign_keys ~rng:(Rng.create ~seed:22)
      ~sample:(Kv_load.zipf_keys ~n:32 ~theta:0.9)
      schedule
  in
  check_bool "assignment is deterministic" true (keyed = again)

(* --- placement ----------------------------------------------------------- *)

(* Key placement must be a pure function of the config: independent
   store instances agree on every key's bucket and path, buckets stay
   in range, and the skewed keyspace still spreads over several
   buckets (otherwise sharding could never relieve anything). *)
let test_placement_is_stable () =
  let config = { Store.default_config with Store.keys = 64; buckets = 4 } in
  let a = Store.create ~config ~name:"a" () in
  let b = Store.create ~config ~name:"b" () in
  let used = Array.make 4 false in
  for i = 0 to 63 do
    let key = Store.key_of_index a i in
    check_string "same key naming" key (Store.key_of_index b i);
    let bucket = Store.bucket_of_key a key in
    check_int "same bucket" bucket (Store.bucket_of_key b key);
    check_bool "bucket in range" true (bucket >= 0 && bucket < 4);
    used.(bucket) <- true;
    check_string "same path" (Store.path_of_key a key) (Store.path_of_key b key);
    check_bool "path lives under its bucket directory" true
      (String.length (Store.path_of_key a key) > 3
      && String.sub (Store.path_of_key a key) 0 3
         = Printf.sprintf "/b%d" bucket)
  done;
  Array.iter (fun u -> check_bool "every bucket used" true u) used

(* --- store semantics (simulated) ----------------------------------------- *)

(* Boots kernel + one m3fs (empty seed), mounts it, prepares [store]
   and runs [main] in the app VPE. *)
let run_store ~config main =
  let engine = Engine.create () in
  let fs ~dram = { (M3.M3fs.default_config ~dram) with M3.M3fs.seed = [] } in
  let platform_config =
    { M3_hw.Platform.default_config with ep_count = 16 }
  in
  let store = Store.create ~config ~name:"kv" () in
  let sys = Bootstrap.start ~platform_config ~fs engine in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        ok (Vfs.mount_sharded env ~path:"/" ~services:sys.Bootstrap.fs_services);
        ok (Store.prepare env store);
        main env store;
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit

let small_config =
  { Store.default_config with Store.keys = 12; buckets = 3; value_len = 64 }

(* A put applies once; the same put replayed (crash-retry,
   front-requeue) reads the durable header and skips — the host-side
   witness sees exactly one apply per sequence number. *)
let test_put_is_exactly_once () =
  run_store ~config:small_config (fun env store ->
      let key = Store.key_of_index store 3 in
      let value = Store.value_of store ~key ~seq:7 in
      let put () = Store.exec env store ~seq:7 (Kv_wire.Put { key = 3; len = 0 }) in
      (match put () with
      | Kv_wire.P_done -> ()
      | _ -> Alcotest.fail "first put did not apply");
      let skips0 = Store.dup_skips store in
      (match put () with
      | Kv_wire.P_done -> ()
      | _ -> Alcotest.fail "replayed put did not answer done");
      check_int "replay is a dup-skip" (skips0 + 1) (Store.dup_skips store);
      check_bool "seq 7 applied exactly once" true
        (Store.applied_once store ~seq:7);
      check_int "nothing double-applied" 0 (Store.double_applied store);
      match Store.exec env store ~seq:0 (Kv_wire.Get { key = 3 }) with
      | Kv_wire.P_value { seq; value = v } ->
        check_int "get sees the applied seq" 7 seq;
        check_string "and the applied value" value v
      | _ -> Alcotest.fail "get after put failed")

let test_put_too_large () =
  run_store ~config:small_config (fun env store ->
      let len = small_config.Store.value_max + 1 in
      match Store.exec env store ~seq:1 (Kv_wire.Put { key = 0; len }) with
      | Kv_wire.P_err Errno.E_kv_too_large -> ()
      | _ -> Alcotest.fail "oversized put was not refused")

(* --- zero-cost guard ----------------------------------------------------- *)

(* Constructing KV values — a store object, a keyed schedule, packed
   ops — is host-side only. A run that builds them but starts
   nothing must be byte-identical to one that never mentions kv. *)
let logged_run ~with_kv_values =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  let sys = Bootstrap.start ~no_fs:true ~obs engine in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        if with_kv_values then begin
          let store = Store.create ~config:small_config ~name:"idle" () in
          let rng = Rng.create ~seed:31 in
          let schedule =
            Load.poisson ~rng ~mean_gap:500.0 ~count:40
              ~mix:(Kv_load.op_mix ~reads:9 ~writes:1) ()
          in
          let schedule =
            Kv_load.assign_keys ~rng
              ~sample:(Kv_load.zipf_keys ~n:12 ~theta:0.9)
              schedule
          in
          ignore (Store.path_of_key store (Store.key_of_index store 5));
          ignore (Kv_wire.pack (Kv_wire.Get { key = 5 }));
          ignore (Load.offered_rate schedule)
        end;
        for _ = 1 to 20 do
          ok (Syscalls.noop env)
        done;
        0)
  in
  let final = Engine.run engine in
  Bootstrap.expect_exit sys exit;
  (Obs.Memory.to_string mem, final)

let test_kv_off_is_zero_cost () =
  let log_plain, cycles_plain = logged_run ~with_kv_values:false in
  let log_values, cycles_values = logged_run ~with_kv_values:true in
  check_bool "log not empty" true (String.length log_plain > 0);
  check_string "byte-identical event logs" log_plain log_values;
  check_int "identical final cycle" cycles_plain cycles_values

(* --- figS2 determinism --------------------------------------------------- *)

(* One CI-sized capacity cell, end to end (boot, two shard mounts,
   pool, worker mount caches): same seed, same record — every field
   including the cache counters. *)
let test_figs2_cell_is_deterministic () =
  let cell () =
    Figs2.capacity_cell ~keys:16 ~requests:40 ~seed:0xD1CE ~shards:2 ~reads:9
      ~writes:1
  in
  let a = cell () and b = cell () in
  check_bool "same seed, same capacity cell" true (a = b);
  check_int "no failed requests" 0 a.Figs2.c_failed;
  check_int "every request completed" 40 a.Figs2.c_completed;
  check_bool "reads hit the mount cache" true (a.Figs2.c_cache_hits > 0)

let suites =
  let tc = Alcotest.test_case in
  let tc' name f = tc name `Quick f in
  [
    ( "kv.wire",
      [
        tc' "packed ops round-trip" test_pack_round_trip;
        tc' "packed ops validate widths" test_pack_validates;
        tc' "kv errnos encode" test_kv_errnos_encode;
        tc' "malformed ops stay refused" test_malformed_ops_refused;
      ] );
    ( "kv.load",
      [
        tc' "zipf keys deterministic and skewed"
          test_zipf_keys_deterministic_and_skewed;
        tc' "uniform keys cover" test_uniform_keys_cover;
        tc' "key assignment does not perturb" test_assign_keys_does_not_perturb;
      ] );
    ( "kv.store",
      [
        tc' "placement is stable" test_placement_is_stable;
        tc "put is exactly-once" `Slow test_put_is_exactly_once;
        tc "oversized put refused" `Slow test_put_too_large;
        tc' "kv off, no cost" test_kv_off_is_zero_cost;
        tc "figS2 cell deterministic" `Slow test_figs2_cell_is_deterministic;
      ] );
  ]
