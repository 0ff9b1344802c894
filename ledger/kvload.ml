(* kv-read and kv-write: Zipfian (theta 0.9) get/put streams over 128
   keys — twice the 64-entry mount cache — against the KV store on two
   m3fs shards behind a 4-worker pool, open loop at Fig. S2's capacity
   gap. Reads are mostly mount-cache hits with eviction under capacity
   pressure; puts commit through m3fs and broadcast invalidations, so
   a cache change that helps one mix and costs the other shows. *)

module Engine = M3_sim.Engine
module Stats = M3_sim.Stats
module Rng = M3_sim.Rng
module Pool = M3_serve.Pool
module Load = M3_serve.Load
module Store = M3_kv.Kv_store
module Kv_load = M3_kv.Kv_load

let keys = 128
let theta = 0.9
let gap = 1_500.0
let shards = 2
let workers = 4

(* Completions in the first tenth of the schedule are warm-up. *)
let warmup = 0.1

(* One fs block per record, as in Fig. S2: header plus value. *)
let store_config =
  { Store.default_config with Store.keys; buckets = 4; value_len = 1024 - 32 }

(* The kv client juggles shard sessions and pool gates; Fig. S2 boots
   its PEs with 32 endpoints for the same reason. *)
let platform = { M3_hw.Platform.default_config with ep_count = 32 }

let run ~reads ~writes ~requests ctx =
  let requests = if ctx.Ctx.tiny then 300 else requests in
  let store = Store.create ~config:store_config ~name:"kv" () in
  let schedule =
    Ctx.input ctx (fun () ->
        let rng = Rng.create ~seed:ctx.Ctx.seed in
        Load.poisson ~rng ~mean_gap:gap ~count:requests
          ~mix:(Kv_load.op_mix ~reads ~writes) ()
        |> Kv_load.assign_keys ~rng ~sample:(Kv_load.zipf_keys ~n:keys ~theta)
        |> Openloop.pinned ~mean_gap:gap)
  in
  (* Worker environments seen by the handler, for their mount-cache
     counters after the run. *)
  let envs : (int, M3.Env.t) Hashtbl.t = Hashtbl.create 8 in
  let exec = Stats.create () in
  let inner = Store.pool_exec store in
  let handler (env : M3.Env.t) ~seq arg =
    Hashtbl.replace envs env.M3.Env.uid env;
    let engine = env.M3.Env.engine in
    let s0 = Engine.now engine in
    let r = inner env ~seq arg in
    Stats.add exec (float_of_int (Engine.now engine - s0));
    r
  in
  let out = ref None in
  Ctx.system ctx ~label:"kv" ~platform_config:platform
    ~fs:(fun ~dram -> { (M3.M3fs.default_config ~dram) with M3.M3fs.seed = [] })
    ~fs_instances:shards
    (fun ~services env ->
      let engine = env.M3.Env.engine in
      let ok = M3.Errno.ok_exn in
      ok (M3.Vfs.mount_sharded env ~path:"/" ~services);
      ok (Store.prepare env store);
      let cfg =
        {
          (Pool.default_config ~name:"kv" ~workers ()) with
          Pool.fs_services = services;
          kv = Some handler;
        }
      in
      let pool = ok (Pool.start env cfg) in
      let t_start = Engine.now engine in
      let cr =
        Ctx.span ctx ~engine ~tid:env.M3.Env.uid "pool.run_open" (fun () ->
            Pool.run_open env pool ~schedule)
      in
      ok (Pool.stop env pool);
      out := Some (cr, t_start, M3.Vfs.round_trips env);
      0);
  let hits, misses, invals, kept, trips =
    Hashtbl.fold
      (fun _ env (h, m, i, k, r) ->
        let h', m', i' = M3.Vfs.cache_totals env in
        (h + h', m + m', i + i', k + M3.Vfs.cache_kept env, r + M3.Vfs.round_trips env))
      envs (0, 0, 0, 0, 0)
  in
  match !out with
  | None -> Ctx.error ctx "kv: no result"
  | Some (cr, t_start, client_trips) ->
    let sent = cr.Pool.cr_sent in
    let refused = cr.Pool.cr_rejected + cr.Pool.cr_throttled + cr.Pool.cr_unavail in
    Ctx.attempt ctx sent;
    ctx.Ctx.failed <- ctx.Ctx.failed + (sent - cr.Pool.cr_completed);
    Ctx.check ctx
      (sent = cr.Pool.cr_completed + refused + cr.Pool.cr_failed)
      "kv: request accounting does not balance";
    Ctx.check ctx (sent = requests) "kv: not every arrival was sent";
    Ctx.check ctx
      (cr.Pool.cr_completed = sent)
      (Printf.sprintf "kv: %d of %d requests did not complete"
         (sent - cr.Pool.cr_completed) sent);
    Ctx.check ctx
      (Store.double_applied store = 0)
      (Printf.sprintf "kv: %d puts applied twice" (Store.double_applied store));
    let horizon = schedule.(Array.length schedule - 1).Load.at in
    let cutoff = t_start + int_of_float (warmup *. float_of_int horizon) in
    let lat = Stats.create () in
    List.iter
      (fun (at, l) -> if at >= cutoff then Stats.add lat (float_of_int l))
      cr.Pool.cr_completions;
    let makespan = cr.Pool.cr_last_done - cr.Pool.cr_first_send in
    let st = Store.stats store in
    Ctx.set ctx "sim_mcycles" (float_of_int makespan /. 1e6);
    Ctx.set ctx "p50_cyc" (Meter.pct lat 50.0);
    Ctx.set ctx "p99_cyc" (Meter.pct lat 99.0);
    Ctx.set ctx "capacity_rpmc"
      (float_of_int cr.Pool.cr_completed *. 1e6 /. float_of_int (max 1 makespan));
    Ctx.set ctx "kv.exec_p99_cyc" (Meter.pct exec 99.0);
    Ctx.set ctx "kv.dup_skips" (float_of_int (Store.dup_skips store));
    Ctx.set ctx "kv.double_applied" (float_of_int (Store.double_applied store));
    Ctx.set ctx "vfs.round_trips" (float_of_int (trips + client_trips));
    Ctx.set ctx "fs_cache.hit_ratio"
      (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    Ctx.set ctx "fs_cache.invals" (float_of_int invals);
    Ctx.set ctx "fs_cache.kept" (float_of_int kept);
    List.iter
      (fun (k, v) -> Ctx.note_int ctx ("kv." ^ k) v)
      [
        ("gets", st.Store.k_gets);
        ("puts", st.Store.k_puts);
        ("applied", st.Store.k_applied);
        ("misses", st.Store.k_misses);
        ("first", cr.Pool.cr_first_send);
        ("last", cr.Pool.cr_last_done);
      ];
    Ctx.note ctx "kv.completions"
      (Digest.to_hex
         (Digest.string
            (String.concat ","
               (List.map (fun (c, l) -> Printf.sprintf "%d:%d" c l) cr.Pool.cr_completions))))
