module Stats = M3_sim.Stats

type t = {
  mutable events : int;
  kinds : (string, int ref) Hashtbl.t;
  ep_msgs : (int * int, int ref) Hashtbl.t;
  ep_bytes : (int * int, int ref) Hashtbl.t;
  link_busy : (int * int, int ref) Hashtbl.t;
  link_queue : (int * int, Stats.t) Hashtbl.t;
  syscall_lat : (string, Stats.t) Hashtbl.t;
  fs_lat : (string, Stats.t) Hashtbl.t;
  fs_queue : (string, Stats.t) Hashtbl.t;
  shard_hits : (string, int ref) Hashtbl.t;
  cache_hits : (string, int ref) Hashtbl.t;
  cache_misses : (string, int ref) Hashtbl.t;
  cache_invals : (string, int ref) Hashtbl.t;
  mutable cache_flushes : int;
  serve_queue : (string, Stats.t) Hashtbl.t;
  serve_batch : (string, Stats.t) Hashtbl.t;
  serve_lat : (string, Stats.t) Hashtbl.t;
  serve_rejects : (string, int ref) Hashtbl.t;
  serve_restarts : (string, int ref) Hashtbl.t;
  mutable dtu_sent_msgs : int;
  mutable dtu_sent_bytes : int;
  mutable dtu_dropped : int;
  mutable mem_read_bytes : int;
  mutable mem_written_bytes : int;
  mutable noc_xfers : int;
  mutable noc_xfer_bytes : int;
  mutable noc_xfer_cycles : int;
  mutable pipe_pushed : int;
  mutable pipe_popped : int;
  mutable vpes_created : int;
  mutable vpes_exited : int;
  mutable dtu_retries : int;
  mutable sched_suspends : int;
  mutable sched_resumes : int;
  mutable sched_migrations : int;
  mutable sched_suspend_bytes : int;
  pool_scale_ups : (string, int ref) Hashtbl.t;
  pool_scale_downs : (string, int ref) Hashtbl.t;
  gw_throttles : (string, int ref) Hashtbl.t;
  gw_trips : (string, int ref) Hashtbl.t;
  gw_probes : (string, int ref) Hashtbl.t;
  gw_closes : (string, int ref) Hashtbl.t;
  gw_upgrade_lat : (string, Stats.t) Hashtbl.t;
}

let create () =
  {
    events = 0;
    kinds = Hashtbl.create 24;
    ep_msgs = Hashtbl.create 32;
    ep_bytes = Hashtbl.create 32;
    link_busy = Hashtbl.create 64;
    link_queue = Hashtbl.create 64;
    syscall_lat = Hashtbl.create 16;
    fs_lat = Hashtbl.create 8;
    fs_queue = Hashtbl.create 8;
    shard_hits = Hashtbl.create 8;
    cache_hits = Hashtbl.create 4;
    cache_misses = Hashtbl.create 4;
    cache_invals = Hashtbl.create 4;
    cache_flushes = 0;
    serve_queue = Hashtbl.create 4;
    serve_batch = Hashtbl.create 4;
    serve_lat = Hashtbl.create 4;
    serve_rejects = Hashtbl.create 4;
    serve_restarts = Hashtbl.create 4;
    dtu_sent_msgs = 0;
    dtu_sent_bytes = 0;
    dtu_dropped = 0;
    mem_read_bytes = 0;
    mem_written_bytes = 0;
    noc_xfers = 0;
    noc_xfer_bytes = 0;
    noc_xfer_cycles = 0;
    pipe_pushed = 0;
    pipe_popped = 0;
    vpes_created = 0;
    vpes_exited = 0;
    dtu_retries = 0;
    sched_suspends = 0;
    sched_resumes = 0;
    sched_migrations = 0;
    sched_suspend_bytes = 0;
    pool_scale_ups = Hashtbl.create 4;
    pool_scale_downs = Hashtbl.create 4;
    gw_throttles = Hashtbl.create 4;
    gw_trips = Hashtbl.create 4;
    gw_probes = Hashtbl.create 4;
    gw_closes = Hashtbl.create 4;
    gw_upgrade_lat = Hashtbl.create 4;
  }

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.add tbl key (ref n)

let observe tbl key x =
  let s =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = Stats.create () in
      Hashtbl.add tbl key s;
      s
  in
  Stats.add s x

let record t (ev : Event.t) =
  t.events <- t.events + 1;
  bump t.kinds (Event.name ev) 1;
  match ev with
  | Event.Dtu_send { pe; ep; bytes; _ } ->
    bump t.ep_msgs (pe, ep) 1;
    bump t.ep_bytes (pe, ep) bytes;
    t.dtu_sent_msgs <- t.dtu_sent_msgs + 1;
    t.dtu_sent_bytes <- t.dtu_sent_bytes + bytes
  | Event.Dtu_drop _ -> t.dtu_dropped <- t.dtu_dropped + 1
  | Event.Dtu_read { bytes; _ } -> t.mem_read_bytes <- t.mem_read_bytes + bytes
  | Event.Dtu_write { bytes; _ } ->
    t.mem_written_bytes <- t.mem_written_bytes + bytes
  | Event.Noc_xfer { bytes; depart; arrive; _ } ->
    t.noc_xfers <- t.noc_xfers + 1;
    t.noc_xfer_bytes <- t.noc_xfer_bytes + bytes;
    t.noc_xfer_cycles <- t.noc_xfer_cycles + (arrive - depart)
  | Event.Noc_link { link_src; link_dst; enter; leave; queued; _ } ->
    bump t.link_busy (link_src, link_dst) (leave - enter);
    observe t.link_queue (link_src, link_dst) (float_of_int queued)
  | Event.Syscall_exit { op; cycles; _ } ->
    observe t.syscall_lat op (float_of_int cycles)
  | Event.Fs_response { op; cycles; _ } ->
    observe t.fs_lat op (float_of_int cycles)
  | Event.Fs_shard { srv; _ } -> bump t.shard_hits srv 1
  | Event.Fs_cache_hit { kind; _ } -> bump t.cache_hits kind 1
  | Event.Fs_cache_miss { kind; _ } -> bump t.cache_misses kind 1
  | Event.Fs_cache_inval { kind; _ } -> bump t.cache_invals kind 1
  | Event.Fs_cache_flush _ -> t.cache_flushes <- t.cache_flushes + 1
  | Event.Fs_queue { srv; depth; _ } ->
    observe t.fs_queue srv (float_of_int depth)
  | Event.Pipe_push { bytes; _ } -> t.pipe_pushed <- t.pipe_pushed + bytes
  | Event.Pipe_pop { bytes; _ } -> t.pipe_popped <- t.pipe_popped + bytes
  | Event.Vpe_create _ -> t.vpes_created <- t.vpes_created + 1
  | Event.Vpe_exit _ -> t.vpes_exited <- t.vpes_exited + 1
  | Event.Dtu_retry _ -> t.dtu_retries <- t.dtu_retries + 1
  | Event.Serve_admit { pool; depth; _ } ->
    observe t.serve_queue pool (float_of_int depth)
  | Event.Serve_reject { pool; depth; _ } ->
    observe t.serve_queue pool (float_of_int depth);
    bump t.serve_rejects pool 1
  | Event.Serve_batch { pool; size; _ } ->
    observe t.serve_batch pool (float_of_int size)
  | Event.Serve_done { pool; cycles; _ } ->
    observe t.serve_lat pool (float_of_int cycles)
  | Event.Serve_restart { pool; _ } -> bump t.serve_restarts pool 1
  | Event.Vpe_suspend { bytes; _ } ->
    t.sched_suspends <- t.sched_suspends + 1;
    t.sched_suspend_bytes <- t.sched_suspend_bytes + bytes
  | Event.Vpe_resume { pe; from_pe; _ } ->
    t.sched_resumes <- t.sched_resumes + 1;
    if pe <> from_pe then t.sched_migrations <- t.sched_migrations + 1
  | Event.Pool_scale { pool; dir; _ } ->
    bump (if dir > 0 then t.pool_scale_ups else t.pool_scale_downs) pool 1
  | Event.Gw_throttle { pool; _ } -> bump t.gw_throttles pool 1
  | Event.Gw_break { pool; phase; _ } ->
    let tbl =
      match phase with
      | "trip" -> t.gw_trips
      | "probe" -> t.gw_probes
      | _ -> t.gw_closes
    in
    bump tbl pool 1
  | Event.Gw_upgrade { pool; cycles; _ } ->
    observe t.gw_upgrade_lat pool (float_of_int cycles)
  (* Aborted VPEs still emit Vpe_exit, so the abort marker itself only
     counts into the per-kind table. *)
  | Event.Dtu_receive _ | Event.Syscall_enter _ | Event.Fs_request _
  | Event.Vpe_start _ | Event.Pe_spawn _ | Event.Pe_halt _ | Event.Vpe_crash _
  | Event.Vpe_abort _ | Event.Vpe_restart _ | Event.Kernel_heartbeat _ | Event.Kv_op _
  | Event.Fs_inval_send _ | Event.Fault_drop _ | Event.Fault_pe_crash _
  | Event.Dtu_nack _ ->
    ()

let sink t =
  { Obs.sink_name = "metrics"; sink_emit = (fun ~at:_ ev -> record t ev) }

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let event_total t = t.events
let kinds t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.kinds)

let endpoints t =
  List.map
    (fun (key, msgs) ->
      let bytes =
        match Hashtbl.find_opt t.ep_bytes key with Some r -> !r | None -> 0
      in
      (key, !msgs, bytes))
    (sorted_bindings t.ep_msgs)

let links t =
  List.map
    (fun (key, busy) ->
      let queue =
        match Hashtbl.find_opt t.link_queue key with
        | Some s -> s
        | None -> Stats.create ()
      in
      (key, !busy, queue))
    (sorted_bindings t.link_busy)

let syscalls t = sorted_bindings t.syscall_lat
let fs_ops t = sorted_bindings t.fs_lat
let fs_queues t = sorted_bindings t.fs_queue
let shard_resolves t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.shard_hits)
let cache_hits t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.cache_hits)
let cache_misses t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.cache_misses)
let cache_invals t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.cache_invals)
let cache_flushes t = t.cache_flushes

let cache_hit_rate t =
  let total tbl = Hashtbl.fold (fun _ r acc -> acc + !r) tbl 0 in
  let hits = total t.cache_hits and misses = total t.cache_misses in
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)
let serve_queues t = sorted_bindings t.serve_queue
let serve_batches t = sorted_bindings t.serve_batch
let serve_latencies t = sorted_bindings t.serve_lat
let serve_rejects t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.serve_rejects)
let serve_restarts t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.serve_restarts)

let dtu_sent_msgs t = t.dtu_sent_msgs
let dtu_sent_bytes t = t.dtu_sent_bytes
let dtu_dropped t = t.dtu_dropped
let mem_read_bytes t = t.mem_read_bytes
let mem_written_bytes t = t.mem_written_bytes
let noc_xfers t = t.noc_xfers
let noc_xfer_bytes t = t.noc_xfer_bytes
let noc_xfer_cycles t = t.noc_xfer_cycles
let pipe_bytes t = (t.pipe_pushed, t.pipe_popped)
let vpes_created t = t.vpes_created
let vpes_exited t = t.vpes_exited
let dtu_retries t = t.dtu_retries

let sched_suspends t = t.sched_suspends
let sched_resumes t = t.sched_resumes
let sched_migrations t = t.sched_migrations
let sched_suspend_bytes t = t.sched_suspend_bytes

let pool_scales t =
  let pools =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.pool_scale_ups []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) t.pool_scale_downs [])
  in
  List.map
    (fun pool ->
      let n tbl =
        match Hashtbl.find_opt tbl pool with Some r -> !r | None -> 0
      in
      (pool, n t.pool_scale_ups, n t.pool_scale_downs))
    pools

let gw_throttles t =
  List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.gw_throttles)

let gw_breaks t =
  let pools =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.gw_trips []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) t.gw_probes []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) t.gw_closes [])
  in
  List.map
    (fun pool ->
      let n tbl =
        match Hashtbl.find_opt tbl pool with Some r -> !r | None -> 0
      in
      (pool, n t.gw_trips, n t.gw_probes, n t.gw_closes))
    pools

let gw_upgrades t = sorted_bindings t.gw_upgrade_lat
