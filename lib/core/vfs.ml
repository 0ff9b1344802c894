module Fabric = M3_noc.Fabric
module Obs = M3_obs.Obs
module Event = M3_obs.Event

type 'a result_ = ('a, Errno.t) result

(* A mount-table entry is either a classic single-service mount or a
   shard set: N services plus a consistent-hash ring, with per-shard
   sessions opened lazily on first resolve (endpoints are scarce — a
   client that only ever touches its own top-level directory pays for
   exactly one session). *)
type shard_set = {
  sh_services : string array;
  sh_mounts : File.mount option array;
  sh_ring : Shard.t;
  (* caching policy for this shard set: shard sessions open lazily, so
     the choice must be remembered and applied at open time *)
  mutable sh_cache : Fs_cache.config option;
  mutable sh_cache_on : bool;
}

type entry = Single of File.mount | Sharded of shard_set

type state = { mutable mounts : (string * entry) list }

(* Mount tables are per VPE; keyed by VPE id because the environment
   record cannot reference this module's types. *)
let states : (int, state) Hashtbl.t = Hashtbl.create 16

let state (env : Env.t) =
  match Hashtbl.find_opt states env.uid with
  | Some s -> s
  | None ->
    let s = { mounts = [] } in
    Hashtbl.replace states env.uid s;
    s

let normalize path = if path = "" then "/" else path

let mount env ~path ~service =
  match File.mount_m3fs env ~service with
  | Error e -> Error e
  | Ok m ->
    let s = state env in
    s.mounts <- (normalize path, Single m) :: s.mounts;
    Ok ()

let mount_sharded env ~path ~services =
  match services with
  | [] -> Error Errno.E_inv_args
  | [ service ] ->
    (* One shard is just a mount: same session, same costs, same
       events — the single-instance path stays bit-identical. *)
    mount env ~path ~service
  | services ->
    let sh_services = Array.of_list services in
    let s = state env in
    s.mounts <-
      ( normalize path,
        Sharded
          {
            sh_services;
            sh_mounts = Array.map (fun _ -> None) sh_services;
            sh_ring = Shard.create ~names:sh_services ();
            sh_cache = None;
            sh_cache_on = false;
          } )
      :: s.mounts;
    Ok ()

let mount_root env = mount env ~path:"/" ~service:"m3fs"

let shard_mount env sh shard =
  match sh.sh_mounts.(shard) with
  | Some m -> Ok m
  | None -> (
    match File.mount_m3fs env ~service:sh.sh_services.(shard) with
    | Error e -> Error e
    | Ok m -> (
      sh.sh_mounts.(shard) <- Some m;
      if not sh.sh_cache_on then Ok m
      else
        match File.enable_cache ?config:sh.sh_cache env m with
        | Ok () -> Ok m
        | Error e -> Error e))

let resolve env path =
  let path = normalize path in
  let s = state env in
  let matches (prefix, _) =
    String.length path >= String.length prefix
    && String.sub path 0 (String.length prefix) = prefix
  in
  let best =
    List.fold_left
      (fun acc entry ->
        if matches entry then
          match acc with
          | Some (p, _) when String.length p >= String.length (fst entry) -> acc
          | Some _ | None -> Some entry
        else acc)
      None s.mounts
  in
  match best with
  | None -> Error Errno.E_not_found
  | Some (prefix, entry) -> (
    let rel =
      "/"
      ^ String.sub path (String.length prefix)
          (String.length path - String.length prefix)
    in
    match entry with
    | Single m -> Ok (m, rel)
    | Sharded sh -> (
      let shard = Shard.owner sh.sh_ring ~path:rel in
      match shard_mount env sh shard with
      | Error e -> Error e
      | Ok m ->
        let obs = Fabric.obs env.Env.fabric in
        if Obs.enabled obs then
          Obs.emit obs
            (Event.Fs_shard
               {
                 pe = M3_hw.Pe.id env.Env.pe;
                 shard;
                 srv = sh.sh_services.(shard);
               });
        Ok (m, rel)))

let the_mount env =
  match resolve env "/" with Ok (m, _) -> Ok m | Error e -> Error e

let open_ env path ~flags =
  match resolve env path with
  | Error e -> Error e
  | Ok (m, rel) -> File.open_ env m rel ~flags

let stat env path =
  match resolve env path with
  | Error e -> Error e
  | Ok (m, rel) -> File.stat env m rel

let mkdir env path =
  match resolve env path with
  | Error e -> Error e
  | Ok (m, rel) -> File.mkdir env m rel

let unlink env path =
  match resolve env path with
  | Error e -> Error e
  | Ok (m, rel) -> File.unlink env m rel

let readdir env path ~index =
  match resolve env path with
  | Error e -> Error e
  | Ok (m, rel) -> File.readdir env m rel ~index

(* Rename stays within one service: m3fs owns both dirents or the
   operation cannot be atomic. Cross-mount (or cross-shard, where the
   hash ring puts src and dst on different instances) is rejected. *)
let rename env ~src ~dst =
  match (resolve env src, resolve env dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (m_src, rel_src), Ok (m_dst, rel_dst) ->
    if m_src != m_dst then Error Errno.E_inv_args
    else File.rename env m_src ~src:rel_src ~dst:rel_dst

(* [enable_cache env ~path] switches the mount entry at prefix [path]
   to coherent caching; for a shard set, already-open shard sessions
   switch now and lazily-opened ones at open time. *)
let enable_cache ?config env ~path =
  let path = normalize path in
  match List.assoc_opt path (state env).mounts with
  | None -> Error Errno.E_not_found
  | Some (Single m) -> File.enable_cache ?config env m
  | Some (Sharded sh) ->
    sh.sh_cache <- config;
    sh.sh_cache_on <- true;
    Array.fold_left
      (fun acc m ->
        match (acc, m) with
        | Error e, _ -> Error e
        | Ok (), None -> Ok ()
        | Ok (), Some m -> File.enable_cache ?config env m)
      (Ok ()) sh.sh_mounts

let entry_mounts = function
  | Single m -> [ m ]
  | Sharded sh -> List.filter_map Fun.id (Array.to_list sh.sh_mounts)

(* Hot-upgrade barrier over a whole mount entry: every shard behind
   prefix [path] serves one [Fs_drain] round trip. The generation bump
   is server-wide (other VPEs' sessions cache against the same
   instance), so unlike the data path the barrier is NOT lazy — shards
   this VPE never resolved get their session opened here. Emits one
   [gw.upgrade] slice per shard with the barrier's round-trip time. *)
let drain env ~path =
  let path = normalize path in
  match List.assoc_opt path (state env).mounts with
  | None -> Error Errno.E_not_found
  | Some entry ->
    let mounts_of = function
      | Single m -> Ok [ m ]
      | Sharded sh ->
        let n = Array.length sh.sh_services in
        let rec open_all i acc =
          if i = n then Ok (List.rev acc)
          else
            match shard_mount env sh i with
            | Error e -> Error e
            | Ok m -> open_all (i + 1) (m :: acc)
        in
        open_all 0 []
    in
    let obs = Fabric.obs env.Env.fabric in
    let now () = M3_sim.Engine.now env.Env.engine in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | m :: rest -> (
        let t0 = now () in
        match File.drain_service env m with
        | Error e -> Error e
        | Ok gen ->
          let srv = File.service_name m in
          if Obs.enabled obs then
            Obs.emit obs
              (Event.Gw_upgrade
                 {
                   pe = M3_hw.Pe.id env.Env.pe;
                   pool = srv;
                   target = "m3fs";
                   cycles = now () - t0;
                 });
          go ((srv, gen) :: acc) rest)
    in
    (match mounts_of entry with Error e -> Error e | Ok ms -> go [] ms)

let all_mounts env =
  List.concat_map (fun (_, e) -> entry_mounts e) (state env).mounts

(* Aggregate service round-trips over every mount of this VPE — the
   denominator of the warm/cold comparisons. *)
let round_trips env =
  List.fold_left (fun acc m -> acc + File.round_trips m) 0 (all_mounts env)

(* Extents preserved across inval_ino trims, summed over every caching
   mount — the witness that in-place overwrites from other VPEs did
   not cost this VPE its delegated mem caps. *)
let cache_kept env =
  List.fold_left
    (fun acc mt ->
      match File.cache_stats mt with
      | None -> acc
      | Some s -> acc + s.Fs_cache.s_kept)
    0 (all_mounts env)

(* Summed cache counters over every caching mount of this VPE. *)
let cache_totals env =
  List.fold_left
    (fun (h, m_, i) mt ->
      match File.cache_stats mt with
      | None -> (h, m_, i)
      | Some s ->
        ( h + s.Fs_cache.s_hits,
          m_ + s.Fs_cache.s_misses,
          i + s.Fs_cache.s_invals ))
    (0, 0, 0) (all_mounts env)
