(* Regression tests for the sharded-m3fs PR:

   - the consistent-hash ring spreads realistic top-level directories
     over all shards (the original FNV-only hash put "i0".."i15" on
     one narrow arc and starved every shard but one),
   - m3fs instance state is kept per engine: two simulations in one
     process never alias, and [forget] empties exactly one engine's
     entries,
   - the kernel rejects a second service under a taken name with
     [E_exists] instead of silently replacing it,
   - with [fs_instances = 2] the seed list is partitioned so each
     shard's image holds exactly its own directories, while a client
     behind [mount_sharded] still sees every path,
   - a singleton shard set is bit-identical to a classic mount: same
     event log, same final cycle. *)

module Engine = M3_sim.Engine
module Platform = M3_hw.Platform
module Store = M3_mem.Store
module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Errno = M3.Errno
module Syscalls = M3.Syscalls
module Gate = M3.Gate
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module M3fs = M3.M3fs
module Fs_image = M3.Fs_image
module Shard = M3.Shard
module Obs = M3_obs.Obs
module Event = M3_obs.Event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok = Errno.ok_exn

let exit_code ivar =
  Option.value ~default:min_int (M3_sim.Process.Ivar.peek ivar)

(* --- the ring ---------------------------------------------------------- *)

let test_top_component () =
  Alcotest.(check string) "nested" "a" (Shard.top_component "/a/b/c");
  Alcotest.(check string) "top-level file" "cat-in0" (Shard.top_component "/cat-in0");
  Alcotest.(check string) "no leading slash" "x" (Shard.top_component "x/y");
  Alcotest.(check string) "root" "" (Shard.top_component "/")

let test_single_shard_owner_is_zero () =
  let ring = Shard.create ~names:[| "m3fs" |] in
  List.iter
    (fun p -> check_int ("owner of " ^ p) 0 (Shard.owner ring ~path:p))
    [ "/"; "/a"; "/i13/deep/file"; "x" ]

(* The fig6x workload uses per-instance directories "/i0".."/i15";
   these keys differ only in their digits, which is exactly what broke
   the unfinalized hash. Every shard must own at least one of them and
   none may own more than half. *)
let test_ring_balance () =
  List.iter
    (fun shards ->
      let names = Array.init shards (Printf.sprintf "m3fs.%d") in
      let ring = Shard.create ~names in
      check_int "shards" shards (Shard.shards ring);
      let load = Array.make shards 0 in
      for i = 0 to 15 do
        let o = Shard.owner ring ~path:(Printf.sprintf "/i%d" i) in
        check_bool "owner in range" true (o >= 0 && o < shards);
        load.(o) <- load.(o) + 1
      done;
      Array.iteri
        (fun s n ->
          check_bool
            (Printf.sprintf "%d shards: shard %d owns %d of 16" shards s n)
            true
            (n >= 1 && n <= 8))
        load)
    [ 2; 4 ]

let test_owner_is_deterministic () =
  let ring1 = Shard.create ~names:[| "m3fs.0"; "m3fs.1"; "m3fs.2" |] in
  let ring2 = Shard.create ~names:[| "m3fs.0"; "m3fs.1"; "m3fs.2" |] in
  for i = 0 to 31 do
    let p = Printf.sprintf "/dir%d/f" i in
    check_int ("stable owner of " ^ p) (Shard.owner ring1 ~path:p)
      (Shard.owner ring2 ~path:p)
  done

(* --- per-engine registries --------------------------------------------- *)

let seed_file path =
  { M3fs.sd_path = path; sd_size = 4096; sd_blocks_per_extent = 4;
    sd_dir = false }

(* Boots a full system whose filesystem is seeded with [paths], runs a
   trivial app, and returns the engine for registry inspection. *)
let booted_with ?platform_config ?(fs_instances = 1) ~paths main =
  let engine = Engine.create () in
  let fs ~dram =
    { (M3fs.default_config ~dram) with seed = List.map seed_file paths }
  in
  let sys = Bootstrap.start ?platform_config ~fs ~fs_instances engine in
  let exit = Bootstrap.launch sys ~name:"app" (fun env -> main sys env) in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  engine

let has image path =
  match Fs_image.lookup image path with Ok _ -> true | Error _ -> false

let image_exn ~engine ~srv_name =
  match M3fs.image_of ~engine ~srv_name with
  | Some img -> img
  | None -> Alcotest.failf "no image registered for %s" srv_name

let test_two_engines_do_not_alias () =
  let noop _sys env =
    ok (Vfs.mount_root env);
    0
  in
  let engine_a = booted_with ~paths:[ "/only-a" ] noop in
  let engine_b = booted_with ~paths:[ "/only-b" ] noop in
  (* Both engines' m3fs state is still registered — under one key
     each, not one shared "m3fs" slot clobbered by whoever booted
     last. *)
  let image_a = image_exn ~engine:engine_a ~srv_name:"m3fs" in
  let image_b = image_exn ~engine:engine_b ~srv_name:"m3fs" in
  check_bool "engine A sees its seed" true (has image_a "/only-a");
  check_bool "engine A lacks B's seed" false (has image_a "/only-b");
  check_bool "engine B sees its seed" true (has image_b "/only-b");
  check_bool "engine B lacks A's seed" false (has image_b "/only-a");
  (* [forget] empties one engine's entries and only that engine's. *)
  M3fs.forget ~engine:engine_a;
  check_bool "A's registry entries are gone" true
    (M3fs.current_image engine_a = None);
  check_bool "B's survive A's forget" true
    (M3fs.current_image engine_b <> None);
  M3fs.forget ~engine:engine_b;
  check_bool "B's registry entries are gone" true
    (M3fs.current_image engine_b = None)

let test_duplicate_service_name_is_e_exists () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let app =
    Bootstrap.launch sys ~name:"dup-srv" (fun env ->
        let recv () = ok (Gate.create_recv env ~slot_order:8 ~slot_count:4) in
        let kr = recv () and cr = recv () in
        ignore
          (ok
             (Syscalls.create_srv env ~name:"dup" ~krgate_sel:kr.Gate.rg_sel
                ~crgate_sel:cr.Gate.rg_sel));
        let kr2 = recv () and cr2 = recv () in
        match
          Syscalls.create_srv env ~name:"dup" ~krgate_sel:kr2.Gate.rg_sel
            ~crgate_sel:cr2.Gate.rg_sel
        with
        | Error Errno.E_exists -> 0
        | Ok _ -> 1
        | Error _ -> 2)
  in
  ignore (Engine.run engine);
  check_int "second create_srv under a taken name fails with E_exists" 0
    (exit_code app)

(* --- sharded boot ------------------------------------------------------ *)

(* Two top-level directories that the 2-shard ring assigns to
   different shards; found by scanning so the test does not bake in
   hash values. *)
let disjoint_dirs () =
  let ring = Shard.create ~names:[| "m3fs.0"; "m3fs.1" |] in
  let dir_of shard =
    let rec scan i =
      if i > 64 then Alcotest.failf "no directory hashing to shard %d" shard
      else
        let d = Printf.sprintf "/d%d" i in
        if Shard.owner ring ~path:d = shard then d else scan (i + 1)
    in
    scan 0
  in
  (dir_of 0, dir_of 1)

let test_two_shards_partition_the_seed () =
  let da, db = disjoint_dirs () in
  let saw_resolve = ref false in
  let engine = Engine.create () in
  let fs ~dram =
    { (M3fs.default_config ~dram) with seed = [ seed_file da; seed_file db ] }
  in
  let config = { Platform.default_config with dram_size = 96 * 1024 * 1024 } in
  let obs = Obs.of_engine engine in
  Obs.attach obs
    {
      Obs.sink_name = "resolve-probe";
      sink_emit =
        (fun ~at:_ ev ->
          match ev with Event.Fs_shard _ -> saw_resolve := true | _ -> ());
    };
  let sys =
    Bootstrap.start ~platform_config:config ~fs ~fs_instances:2 ~obs engine
  in
  Alcotest.(check (list string))
    "two shard services in ring order" [ "m3fs.0"; "m3fs.1" ]
    sys.Bootstrap.fs_services;
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        ok
          (Vfs.mount_sharded env ~path:"/" ~services:sys.Bootstrap.fs_services);
        (* Both files are reachable through the one sharded mount even
           though no single server holds both. *)
        let st_a = ok (Vfs.stat env da) and st_b = ok (Vfs.stat env db) in
        check_int "size of shard-0 file" 4096 st_a.Fs_proto.st_size;
        check_int "size of shard-1 file" 4096 st_b.Fs_proto.st_size;
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  check_bool "client emitted fs.shard.resolve events" true !saw_resolve;
  (* White box: each shard's image holds exactly its own directory. *)
  let img0 = image_exn ~engine ~srv_name:"m3fs.0" in
  let img1 = image_exn ~engine ~srv_name:"m3fs.1" in
  check_bool (da ^ " on shard 0") true (has img0 da);
  check_bool (db ^ " not on shard 0") false (has img0 db);
  check_bool (db ^ " on shard 1") true (has img1 db);
  check_bool (da ^ " not on shard 1") false (has img1 da)

(* --- singleton shard set is zero-cost ---------------------------------- *)

(* The same seeded workload under a classic root mount and under a
   one-element shard set: the logs must match byte for byte and the
   runs must take the same number of cycles (the guard that sharding
   machinery costs nothing unless actually sharded, in the style of
   test_fault's zero-cost checks). *)
let logged_run ~sharded =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  let fs ~dram =
    { (M3fs.default_config ~dram) with seed = [ seed_file "/zc" ] }
  in
  let sys = Bootstrap.start ~fs ~obs engine in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        (if sharded then
           ok
             (Vfs.mount_sharded env ~path:"/"
                ~services:sys.Bootstrap.fs_services)
         else ok (Vfs.mount_root env));
        let f = ok (Vfs.open_ env "/zc" ~flags:Fs_proto.o_read) in
        let buf = Env.alloc_spm env ~size:1024 in
        let rec drain () =
          match ok (File.read env f ~local:buf ~len:1024) with
          | 0 -> ()
          | _ -> drain ()
        in
        drain ();
        ok (File.close env f);
        0)
  in
  let final = Engine.run engine in
  Bootstrap.expect_exit sys exit;
  (Obs.Memory.to_string mem, final)

let test_singleton_shard_set_is_bit_identical () =
  let log_plain, cycles_plain = logged_run ~sharded:false in
  let log_sharded, cycles_sharded = logged_run ~sharded:true in
  check_bool "log not empty" true (String.length log_plain > 0);
  Alcotest.(check string)
    "byte-identical event logs" log_plain log_sharded;
  check_int "identical final cycle" cycles_plain cycles_sharded

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "shard.ring",
      [
        tc "top_component" test_top_component;
        tc "single shard owns everything" test_single_shard_owner_is_zero;
        tc "i0..i15 spread over every shard" test_ring_balance;
        tc "owner is deterministic" test_owner_is_deterministic;
      ] );
    ( "shard.registry",
      [
        tc "two engines never alias m3fs state" test_two_engines_do_not_alias;
        tc "duplicate service name is E_exists"
          test_duplicate_service_name_is_e_exists;
      ] );
    ( "shard.sharded",
      [
        tc "two shards partition the seed" test_two_shards_partition_the_seed;
        tc "singleton shard set is bit-identical"
          test_singleton_shard_set_is_bit_identical;
      ] );
  ]
