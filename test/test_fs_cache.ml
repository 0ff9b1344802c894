(* Tests of the mount cache:

   - the {!Fs_cache} policy in isolation, on its fixed settings: TTL
     expiry at multiples of {!Fs_cache.ttl}, the importance-decay
     eviction order at {!Fs_cache.capacity} entries and over
     {!Fs_cache.half_life}s, notification sequencing and the
     invalidation primitives' exact semantics,
   - bugfix: the single-entry readdir cache is dropped when a create
     or unlink goes through the same mount (it used to keep serving
     the stale listing),
   - bugfix: a reader holding an open handle sees bytes another VPE
     appended — the close-commit broadcast refreshes the cached size
     in place (it used to return a short read forever),
   - warm paths: re-opening and re-reading a hot file through the
     cache costs zero service round-trips (≥1.5× fewer than cold, the
     gate the harness cells also enforce), and warm stats hit the attr
     table,
   - the invalidation matrix across VPEs: append, truncate and unlink
     each propagate to a caching observer, and under a sharded mount
     only the owning shard's cache is disturbed,
   - a dead service: once m3fs has crashed, a caching mount fails its
     next request exactly as a plain mount does, without trying to
     re-open a session,
   - zero cost when off: a cache-off run emits no cache events and is
     byte-identical across repeats; a cache-on run is deterministic
     too. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Platform = M3_hw.Platform
module Core_type = M3_hw.Core_type
module Plan = M3_fault.Plan
module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Errno = M3.Errno
module Gate = M3.Gate
module Vfs = M3.Vfs
module File = M3.File
module Fs_cache = M3.Fs_cache
module Fs_proto = M3.Fs_proto
module M3fs = M3.M3fs
module Shard = M3.Shard
module Vpe_api = M3.Vpe_api
module Obs = M3_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let ok = Errno.ok_exn

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- the policy module in isolation ------------------------------------ *)

let ttl = Fs_cache.ttl
let half_life = Fs_cache.half_life

let test_ttl_expiry () =
  let c = Fs_cache.create () in
  ignore (Fs_cache.insert_file c ~now:0 ~ino:1 ~size:10);
  check_bool "within TTL: hit" true (Fs_cache.file_entry c ~now:ttl ~ino:1 <> None);
  (* the hit refreshed the TTL: servable at 2 TTL, gone just after 3 *)
  check_bool "refreshed TTL: hit" true
    (Fs_cache.file_entry c ~now:(2 * ttl) ~ino:1 <> None);
  check_bool "expired: miss" true
    (Fs_cache.file_entry c ~now:((3 * ttl) + 1) ~ino:1 = None);
  check_bool "expired entry was dropped" true
    (Fs_cache.file_entry c ~now:0 ~ino:1 = None);
  let st = { Fs_proto.st_size = 1; st_is_dir = false; st_ino = 9; st_extents = 1 } in
  Fs_cache.insert_attr c ~now:0 ~path:"/a" st;
  check_bool "attr within TTL" true
    (Fs_cache.attr c ~now:(ttl / 2) ~path:"/a" <> None);
  check_bool "attr expired" true (Fs_cache.attr c ~now:(4 * ttl) ~path:"/a" = None);
  let s = Fs_cache.stats c in
  check_bool "hits and misses were counted" true
    (s.Fs_cache.s_hits = 3 && s.Fs_cache.s_misses = 3)

(* Inserts one-hit entries [first..last] at [now]. *)
let fill c ~now ~first ~last =
  for ino = first to last do
    ignore (Fs_cache.insert_file c ~now ~ino ~size:1)
  done

(* At capacity the entry with the lowest decayed importance goes —
   recency can beat raw hit count. *)
let test_decay_eviction_order () =
  let capacity = Fs_cache.capacity in
  (* hot beats cold at equal age; among equal scores the lowest inode
     goes *)
  let c = Fs_cache.create () in
  ignore (Fs_cache.insert_file c ~now:0 ~ino:1 ~size:1);
  for _ = 1 to 5 do ignore (Fs_cache.file_entry c ~now:0 ~ino:1) done;
  fill c ~now:0 ~first:2 ~last:capacity;
  check_int "full, nothing evicted yet" 0 (Fs_cache.stats c).Fs_cache.s_evictions;
  fill c ~now:0 ~first:(capacity + 1) ~last:(capacity + 1);
  check_bool "hot entry survives" true (Fs_cache.file_entry c ~now:0 ~ino:1 <> None);
  check_bool "one-shot entry evicted" true
    (Fs_cache.file_entry c ~now:0 ~ino:2 = None);
  check_int "exactly one eviction" 1 (Fs_cache.stats c).Fs_cache.s_evictions;
  (* a once-hot but idle entry decays below a recent one: 8 hits
     halved over 5 idle half-lives score 0, 2 recent hits score 2 *)
  let c = Fs_cache.create () in
  let later = 5 * half_life in
  ignore (Fs_cache.insert_file c ~now:0 ~ino:1 ~size:1);
  for _ = 1 to 7 do ignore (Fs_cache.file_entry c ~now:0 ~ino:1) done;
  ignore (Fs_cache.insert_file c ~now:later ~ino:2 ~size:1);
  ignore (Fs_cache.file_entry c ~now:later ~ino:2);
  fill c ~now:later ~first:3 ~last:(capacity + 1);
  check_bool "idle-decayed entry evicted" true
    (Fs_cache.file_entry c ~now:later ~ino:1 = None);
  check_bool "recent entry survives" true
    (Fs_cache.file_entry c ~now:later ~ino:2 <> None)

let test_seq_tracking () =
  let c = Fs_cache.create () in
  check_bool "seq 0" true (Fs_cache.note_seq c ~seq:0 = `Ok);
  check_bool "seq 1" true (Fs_cache.note_seq c ~seq:1 = `Ok);
  check_bool "seq 3 is a gap" true (Fs_cache.note_seq c ~seq:3 = `Gap);
  check_bool "seq 4 resumes" true (Fs_cache.note_seq c ~seq:4 = `Ok)

let fake_extent ~foff ~len =
  { Fs_cache.x_foff = foff; x_len = len;
    x_gate = Gate.mem_gate_of_sel ~sel:999 ~size:len }

let test_inval_semantics () =
  let c = Fs_cache.create () in
  let e = Fs_cache.insert_file c ~now:0 ~ino:7 ~size:100 in
  e.Fs_cache.fe_extents <- [ fake_extent ~foff:0 ~len:100 ];
  e.Fs_cache.fe_fetched <- 1;
  e.Fs_cache.fe_alloc_end <- 100;
  (* append: size refreshed in place; extents lying wholly inside the
     committed size survive (the cross-open reuse the kept counter
     measures) *)
  check_bool "inval_ino hits" true (Fs_cache.inval_ino c ~ino:7 ~size:150);
  check_int "shared handle sees the new size" 150 e.Fs_cache.fe_size;
  check_bool "covered extent kept" true
    (List.length e.Fs_cache.fe_extents = 1);
  check_int "coverage preserved with it" 100 e.Fs_cache.fe_alloc_end;
  check_bool "still valid (no revalidation round-trip)" true e.Fs_cache.fe_valid;
  (* truncate below the extent: now it must go *)
  ignore (Fs_cache.inval_ino c ~ino:7 ~size:50);
  check_bool "truncated extent dropped" true (e.Fs_cache.fe_extents = []);
  check_int "coverage reset with it" 0 e.Fs_cache.fe_alloc_end;
  (* unlink: entry leaves the table, surviving handles read EOF *)
  check_bool "inval_remove hits" true
    (Fs_cache.inval_remove c ~ino:7 ~path:"/x");
  check_int "handle sees EOF" 0 e.Fs_cache.fe_size;
  check_bool "gone from the table" true (Fs_cache.file_entry c ~now:0 ~ino:7 = None);
  (* flush: generation bump, surviving handles must revalidate *)
  let e3 = Fs_cache.insert_file c ~now:0 ~ino:9 ~size:32 in
  let gen = Fs_cache.generation c in
  Fs_cache.flush c;
  check_int "generation bumped" (gen + 1) (Fs_cache.generation c);
  check_bool "handle must revalidate" false e3.Fs_cache.fe_valid;
  check_bool "table emptied" true (Fs_cache.file_entry c ~now:0 ~ino:9 = None)

(* --- boot plumbing ----------------------------------------------------- *)

let seed ?(size = 4096) ?(dir = false) path =
  { M3fs.sd_path = path; sd_size = size; sd_blocks_per_extent = 4;
    sd_dir = dir }

(* Boots kernel + m3fs with [seeds], runs [main], returns its exit
   code and — when [capture] — the recorded event log. *)
let run ?platform_config ?(fs_instances = 1) ?(capture = false) ~seeds main =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs =
    if not capture then None
    else begin
      let o = Obs.of_engine engine in
      Obs.attach o (Obs.Memory.sink mem);
      Some o
    end
  in
  let fs ~dram = { (M3fs.default_config ~dram) with seed = seeds } in
  let sys = Bootstrap.start ?platform_config ?obs ~fs ~fs_instances engine in
  let exit = Bootstrap.launch sys ~name:"app" (fun env -> main sys env) in
  ignore (Engine.run engine);
  let code = Option.value ~default:min_int (Process.Ivar.peek exit) in
  (code, Obs.Memory.to_string mem)

let read_whole env file ~buf =
  let rec go got =
    match ok (File.read env file ~local:buf ~len:1024) with
    | 0 -> got
    | n -> go (got + n)
  in
  go 0

(* --- bugfix: stale readdir cache on same-mount mutations ---------------- *)

let list_dir env path =
  let rec go i acc =
    match ok (Vfs.readdir env path ~index:i) with
    | None -> List.rev acc
    | Some (name, _) -> go (i + 1) (name :: acc)
  in
  go 0 []

(* The cache is OFF here: the readdir batch cache predates the mount
   cache and its staleness was a plain bug. A listing, then a create /
   unlink through the same mount, then the same listing again must
   reflect the change. *)
let test_readdir_cache_invalidation () =
  let code, _ =
    run ~seeds:[ seed ~dir:true "/d"; seed "/d/a"; seed "/d/b" ]
      (fun _sys env ->
        ok (Vfs.mount_root env);
        check_int "initial listing" 2 (List.length (list_dir env "/d"));
        (* create: the new file must appear *)
        let f =
          ok (Vfs.open_ env "/d/c" ~flags:(Fs_proto.o_create lor Fs_proto.o_write))
        in
        ok (File.close env f);
        check_int "after create" 3 (List.length (list_dir env "/d"));
        (* unlink: the file must disappear *)
        ok (Vfs.unlink env "/d/a");
        check_int "after unlink" 2 (List.length (list_dir env "/d"));
        0)
  in
  check_int "exit" 0 code

(* --- warm paths: zero round-trips on a hot file ------------------------- *)

let test_warm_reopen_costs_nothing () =
  let code, _ =
    run ~seeds:[ seed ~size:(16 * 1024) "/hot" ]
      (fun _sys env ->
        ok (Vfs.mount_root env);
        ok (Vfs.enable_cache env ~path:"/");
        let buf = Env.alloc_spm env ~size:1024 in
        let pass () =
          let before = Vfs.round_trips env in
          let f = ok (Vfs.open_ env "/hot" ~flags:Fs_proto.o_read) in
          let got = read_whole env f ~buf in
          ok (File.close env f);
          check_int "whole file" (16 * 1024) got;
          Vfs.round_trips env - before
        in
        let cold = pass () in
        let warm = pass () in
        check_bool "cold pass pays round-trips" true (cold >= 3);
        check_int "warm pass is free" 0 warm;
        (* the PR's acceptance gate, in the same form the harness
           cells use: at least 1.5x fewer round-trips when warm *)
        check_bool "warm >= 1.5x fewer" true (warm * 3 <= cold * 2);
        let hits, misses, _ = Vfs.cache_totals env in
        check_bool "warm pass hit the cache" true (hits > 0 && misses > 0);
        0)
  in
  check_int "exit" 0 code

let test_warm_stat_hits_attr_cache () =
  let code, _ =
    run ~seeds:[ seed "/f" ]
      (fun _sys env ->
        ok (Vfs.mount_root env);
        ok (Vfs.enable_cache env ~path:"/");
        let st1 = ok (Vfs.stat env "/f") in
        let before = Vfs.round_trips env in
        let st2 = ok (Vfs.stat env "/f") in
        check_int "warm stat is free" 0 (Vfs.round_trips env - before);
        check_bool "same answer" true (st1 = st2);
        0)
  in
  check_int "exit" 0 code

(* --- bugfix + matrix: cross-VPE coherence -------------------------------- *)

(* Runs [body] in a child VPE (which does its own mounting — a plain,
   non-caching client) and waits for it to finish; the caller's
   caching mount must observe the effect afterwards. *)
let in_child env ~name body =
  match
    Vpe_api.run_supervised env ~name ~core:Core_type.General_purpose
      (fun cenv ->
        body cenv;
        0)
  with
  | Ok 0 -> ()
  | Ok code -> Alcotest.failf "%s exited %d" name code
  | Error e -> Alcotest.failf "%s failed: %s" name (Errno.to_string e)

let rooted body cenv =
  ok (Vfs.mount_root cenv);
  body cenv

(* The short-read bug: a reader holds an open handle while another VPE
   appends and closes. The close commit broadcasts the new size; the
   reader's next read must return the appended bytes, not EOF at the
   stale size. *)
let test_cross_vpe_append_is_seen () =
  let code, _ =
    run ~seeds:[ seed ~size:2048 "/shared" ]
      (fun _sys env ->
        ok (Vfs.mount_root env);
        ok (Vfs.enable_cache env ~path:"/");
        let buf = Env.alloc_spm env ~size:1024 in
        let f = ok (Vfs.open_ env "/shared" ~flags:Fs_proto.o_read) in
        check_int "first read: seeded size" 2048 (read_whole env f ~buf);
        in_child env ~name:"appender"
          (rooted (fun cenv ->
               let g = ok (Vfs.open_ cenv "/shared" ~flags:Fs_proto.o_write) in
               ok (File.seek cenv g (File.size g));
               ok (File.write_string cenv g (String.make 512 'x'));
               ok (File.close cenv g)));
        (* same still-open handle: the invalidation refreshed the
           shared entry in place *)
        ok (File.seek env f 0);
        check_int "second read sees the appended bytes" 2560
          (read_whole env f ~buf);
        ok (File.close env f);
        let _, _, invals = Vfs.cache_totals env in
        check_bool "the notification invalidated cached state" true
          (invals >= 1);
        0)
  in
  check_int "exit" 0 code

(* Truncate (o_trunc by another VPE) must shrink the cached size. *)
let test_cross_vpe_truncate_is_seen () =
  let code, _ =
    run ~seeds:[ seed ~size:4096 "/t" ]
      (fun _sys env ->
        ok (Vfs.mount_root env);
        ok (Vfs.enable_cache env ~path:"/");
        let buf = Env.alloc_spm env ~size:1024 in
        let f = ok (Vfs.open_ env "/t" ~flags:Fs_proto.o_read) in
        check_int "before" 4096 (read_whole env f ~buf);
        in_child env ~name:"truncator"
          (rooted (fun cenv ->
               let g =
                 ok
                   (Vfs.open_ cenv "/t"
                      ~flags:(Fs_proto.o_write lor Fs_proto.o_trunc))
               in
               ok (File.write_string cenv g "tiny");
               ok (File.close cenv g)));
        ok (File.seek env f 0);
        check_int "after truncate+rewrite" 4 (read_whole env f ~buf);
        ok (File.close env f);
        0)
  in
  check_int "exit" 0 code

(* Unlink by another VPE: cached attr and extents are dropped; a fresh
   stat sees E_not_found, the surviving handle reads EOF (never the
   freed blocks). *)
let test_cross_vpe_unlink_is_seen () =
  let code, _ =
    run ~seeds:[ seed ~size:2048 "/doomed" ]
      (fun _sys env ->
        ok (Vfs.mount_root env);
        ok (Vfs.enable_cache env ~path:"/");
        let buf = Env.alloc_spm env ~size:1024 in
        ignore (ok (Vfs.stat env "/doomed"));
        let f = ok (Vfs.open_ env "/doomed" ~flags:Fs_proto.o_read) in
        in_child env ~name:"remover"
          (rooted (fun cenv -> ok (Vfs.unlink cenv "/doomed")));
        (match Vfs.stat env "/doomed" with
        | Error Errno.E_not_found -> ()
        | Ok _ -> Alcotest.fail "stat served a stale cached attr"
        | Error e -> Alcotest.failf "stat: %s" (Errno.to_string e));
        check_int "surviving handle reads EOF" 0 (read_whole env f ~buf);
        0)
  in
  check_int "exit" 0 code

(* Two top-level directories the 2-shard ring assigns to different
   shards (scanned, not hard-coded — same idiom as test_shard). *)
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

(* Sharded mount: an invalidation arrives on the owning shard's notify
   channel and disturbs only that shard's cache — the other shard's
   attrs stay warm. *)
let test_sharded_cache_coherence () =
  let d0, d1 = disjoint_dirs () in
  let f0 = d0 ^ "/f" and f1 = d1 ^ "/f" in
  let config = { Platform.default_config with dram_size = 96 * 1024 * 1024 } in
  let code, _ =
    run ~platform_config:config ~fs_instances:2
      ~seeds:
        [ seed ~dir:true d0; seed ~size:2048 f0;
          seed ~dir:true d1; seed ~size:2048 f1 ]
      (fun sys env ->
        let services = sys.Bootstrap.fs_services in
        ok (Vfs.mount_sharded env ~path:"/" ~services);
        ok (Vfs.enable_cache env ~path:"/");
        ignore (ok (Vfs.stat env f0));
        ignore (ok (Vfs.stat env f1));
        in_child env ~name:"shard-writer" (fun cenv ->
            ok (Vfs.mount_sharded cenv ~path:"/" ~services);
            let g =
              ok
                (Vfs.open_ cenv f0
                   ~flags:(Fs_proto.o_write lor Fs_proto.o_trunc))
            in
            ok (File.write_string cenv g "abc");
            ok (File.close cenv g));
        (* shard 0's attr was invalidated: the fresh stat sees the
           truncated size *)
        check_int "mutated shard refetches" 3
          (ok (Vfs.stat env f0)).Fs_proto.st_size;
        (* shard 1 was untouched: its attr is still warm *)
        let before = Vfs.round_trips env in
        check_int "other shard stays warm" 2048
          (ok (Vfs.stat env f1)).Fs_proto.st_size;
        check_int "warm shard stat is free" 0 (Vfs.round_trips env - before);
        0)
  in
  check_int "exit" 0 code

(* --- a dead service --------------------------------------------------------- *)

(* m3fs runs on PE 1 and an explicit fault schedule kills it while the
   app stats missing files; nothing restarts it. Returns what the first
   stat after the interrupted one answers, and its cycles. *)
let stat_after_service_death ~cache =
  let engine = Engine.create () in
  let plan = Plan.create ~crashes:[ (1, 20) ] ~seed:1 () in
  let sys = Bootstrap.start ~no_fs:true ~faults:plan engine in
  let dram = Platform.dram sys.Bootstrap.platform in
  let fs_config =
    { (M3fs.default_config ~dram) with seed = [ seed ~size:8192 "/data" ] }
  in
  (* launched before the app, so it claims PE 1 *)
  ignore (Bootstrap.launch sys ~name:"m3fs" (M3fs.main fs_config));
  let answer = ref None in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        ok (Vfs.mount_root env);
        if cache then ok (Vfs.enable_cache env ~path:"/");
        let buf = Env.alloc_spm env ~size:1024 in
        let f = ok (Vfs.open_ env "/data" ~flags:Fs_proto.o_read) in
        check_int "warm-up read" 8192 (read_whole env f ~buf);
        ok (File.close env f);
        (* the stat in flight at the crash waits out the watchdog *)
        let rec until_failure i =
          match Vfs.stat env (Printf.sprintf "/miss%d" i) with
          | Error Errno.E_not_found -> until_failure (i + 1)
          | Ok _ -> Alcotest.fail "phantom file"
          | Error _ -> ()
        in
        until_failure 1;
        let t0 = Engine.now env.Env.engine in
        let r = Vfs.stat env "/miss0" in
        answer := Some (r, Engine.now env.Env.engine - t0);
        0)
  in
  ignore (Engine.run engine);
  check_int "exit" 0 (Option.value ~default:min_int (Process.Ivar.peek exit));
  check_int "exactly one crash injected" 1 (Plan.crashes_injected plan);
  Option.get !answer

let test_dead_service_fails_alike () =
  let show = function Ok _ -> "ok" | Error e -> Errno.to_string e in
  let plain, plain_cycles = stat_after_service_death ~cache:false in
  let cached, cached_cycles = stat_after_service_death ~cache:true in
  check_bool "plain mount: a DTU error" true
    (match plain with Error (Errno.E_dtu _) -> true | _ -> false);
  check_string "caching mount: the same errno" (show plain) (show cached);
  check_int "in the same cycles" plain_cycles cached_cycles

(* --- zero cost when off + determinism ------------------------------------ *)

(* One workload over every op class; [cache] decides whether the mount
   caches. *)
let logged_run ~cache =
  run ~capture:true
    ~seeds:[ seed ~dir:true "/w"; seed ~size:4096 "/w/a"; seed "/w/b" ]
    (fun _sys env ->
      ok (Vfs.mount_root env);
      if cache then ok (Vfs.enable_cache env ~path:"/");
      let buf = Env.alloc_spm env ~size:1024 in
      for _ = 1 to 2 do
        let f = ok (Vfs.open_ env "/w/a" ~flags:Fs_proto.o_read) in
        ignore (read_whole env f ~buf);
        ok (File.close env f);
        ignore (ok (Vfs.stat env "/w/b"));
        ignore (list_dir env "/w")
      done;
      let f =
        ok (Vfs.open_ env "/w/c" ~flags:(Fs_proto.o_create lor Fs_proto.o_write))
      in
      ok (File.write_string env f "hello");
      ok (File.close env f);
      ok (Vfs.unlink env "/w/c");
      0)

let test_cache_off_is_silent_and_deterministic () =
  let code1, log1 = logged_run ~cache:false in
  let code2, log2 = logged_run ~cache:false in
  check_int "exit" 0 code1;
  check_int "exit" 0 code2;
  check_bool "log not empty" true (String.length log1 > 0);
  check_string "byte-identical across repeats" log1 log2;
  (* no cache machinery leaks into an uncached run's event stream *)
  check_bool "no fs.cache events" false (contains log1 "fs.cache");
  check_bool "no fs.inval events" false (contains log1 "fs.inval")

let test_cache_on_is_deterministic () =
  let code1, log1 = logged_run ~cache:true in
  let code2, log2 = logged_run ~cache:true in
  check_int "exit" 0 code1;
  check_int "exit" 0 code2;
  check_string "byte-identical across repeats" log1 log2;
  check_bool "cache hits observable" true (contains log1 "fs.cache.hit");
  (* unlink through the caching mount invalidates locally; the
     broadcast path is exercised by the coherence suite, where a
     second session is registered *)
  check_bool "invalidations observable" true (contains log1 "fs.cache.inval")

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "fscache.policy",
      [
        tc "TTL expiry" test_ttl_expiry;
        tc "decay eviction order" test_decay_eviction_order;
        tc "notification sequencing" test_seq_tracking;
        tc "invalidation semantics" test_inval_semantics;
      ] );
    ( "fscache.dir",
      [ tc "readdir cache dropped on mutation" test_readdir_cache_invalidation ] );
    ( "fscache.warm",
      [
        tc "warm reopen is free (>=1.5x gate)" test_warm_reopen_costs_nothing;
        tc "warm stat hits the attr table" test_warm_stat_hits_attr_cache;
      ] );
    ( "fscache.coherence",
      [
        tc "cross-VPE append is seen" test_cross_vpe_append_is_seen;
        tc "cross-VPE truncate is seen" test_cross_vpe_truncate_is_seen;
        tc "cross-VPE unlink is seen" test_cross_vpe_unlink_is_seen;
        tc "sharded: only the owning shard is disturbed"
          test_sharded_cache_coherence;
      ] );
    ( "fscache.dead",
      [ tc "a dead service fails both mounts alike"
          test_dead_service_fails_alike ] );
    ( "fscache.off",
      [
        tc "cache off: silent and deterministic"
          test_cache_off_is_silent_and_deterministic;
        tc "cache on: deterministic" test_cache_on_is_deterministic;
      ] );
  ]
