module Engine = M3_sim.Engine
module Account = M3_sim.Account
module Fabric = M3_noc.Fabric
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module Env = M3.Env
module Errno = M3.Errno
module Vfs = M3.Vfs
module File = M3.File
module Shard = M3.Shard
module Fs_proto = M3.Fs_proto

(* --- configuration ------------------------------------------------------ *)

type config = {
  buckets : int;
  keys : int;
  value_len : int;
  value_max : int;
  scan_limit : int;
  cache : bool;
  op_cycles : int;
}

let default_config =
  {
    buckets = 4;
    keys = 128;
    value_len = 64;
    value_max = 1024;
    scan_limit = 8;
    cache = true;
    op_cycles = 300;
  }

type stats = {
  mutable k_gets : int;
  mutable k_puts : int;
  mutable k_deletes : int;
  mutable k_scans : int;
  mutable k_applied : int;
  mutable k_dup_skips : int;
  mutable k_misses : int;
}

type t = {
  cfg : config;
  name : string;
  applies : (int, int) Hashtbl.t;
  inited : (int, unit) Hashtbl.t;
  st : stats;
}

let create ?(config = default_config) ~name () =
  if config.buckets < 1 then invalid_arg "Kv_store.create: no buckets";
  if config.keys < 1 then invalid_arg "Kv_store.create: empty keyspace";
  if config.value_len > config.value_max then
    invalid_arg "Kv_store.create: value_len exceeds value_max";
  {
    cfg = config;
    name;
    applies = Hashtbl.create 64;
    inited = Hashtbl.create 8;
    st =
      {
        k_gets = 0;
        k_puts = 0;
        k_deletes = 0;
        k_scans = 0;
        k_applied = 0;
        k_dup_skips = 0;
        k_misses = 0;
      };
  }

let config t = t.cfg
let stats t = t.st

(* --- layout ------------------------------------------------------------- *)

(* Keys hash to bucket directories [/b0../b<buckets-1>] with the same
   FNV the shard ring uses, and the ring places each bucket (a
   top-level directory) on one m3fs shard — so the key → shard map is
   a pure function of config both the store and its tests can
   compute. *)

let key_of_index _t i = Printf.sprintf "k%06d" i
let bucket_of_key t key = Shard.hash key mod t.cfg.buckets
let bucket_dir bucket = Printf.sprintf "/b%d" bucket
let path_of_key t key = Printf.sprintf "/b%d/%s" (bucket_of_key t key) key

(* Deterministic payload for the packed data plane, where values are
   generated rather than carried: a function of key and seq only, so
   any worker (including a crash-retry re-execution) would write the
   same bytes. *)
let value_of t ~key ~seq =
  let pat = Char.chr (97 + ((Shard.hash key + seq) land 15)) in
  String.make t.cfg.value_len pat

(* --- value file format --------------------------------------------------- *)

(* 32-byte text header [seq len] followed by the payload. The header's
   sequence number is the put dedup state: it survives worker crashes
   and restarts because it lives in m3fs, not in any VPE — which is
   exactly why a re-executed put (at-least-once dispatch after a crash
   or breaker trip) can be skipped deterministically by {e any}
   worker. *)

let header_len = 32
let header ~seq ~len = Printf.sprintf "%015d %015d\n" seq len

let parse_header s =
  if String.length s < header_len then None
  else
    match
      ( int_of_string_opt (String.trim (String.sub s 0 15)),
        int_of_string_opt (String.trim (String.sub s 16 15)) )
    with
    | Some seq, Some len when len >= 0 -> Some (seq, len)
    | _ -> None

(* --- per-VPE init -------------------------------------------------------- *)

(* Executing VPEs (pool workers, the service VPE, the preloading
   client) mount the shard set themselves; the store only flips their
   mount to coherent caching, once per VPE — hot keys then exercise
   the mount cache and its invalidation protocol under skew. *)
let ensure_init env t =
  if t.cfg.cache then begin
    let uid = env.Env.uid in
    if not (Hashtbl.mem t.inited uid) then begin
      Hashtbl.replace t.inited uid ();
      ignore (Vfs.enable_cache env ~path:"/")
    end
  end

(* --- operations ---------------------------------------------------------- *)

let emit env t ~op ~bucket ~dup =
  let obs = Fabric.obs env.Env.fabric in
  if Obs.enabled obs then
    Obs.emit obs
      (Event.Kv_op { pe = M3_hw.Pe.id env.Env.pe; store = t.name; op; bucket; dup })

let read_file env _t ~path ~max =
  match Vfs.open_ env path ~flags:Fs_proto.o_read with
  | Error e -> Error e
  | Ok f ->
    let res = File.read_all env f ~max in
    ignore (File.close env f);
    res

let get env t key =
  t.st.k_gets <- t.st.k_gets + 1;
  let bucket = bucket_of_key t key in
  match read_file env t ~path:(path_of_key t key)
          ~max:(header_len + t.cfg.value_max) with
  | Error Errno.E_not_found ->
    t.st.k_misses <- t.st.k_misses + 1;
    emit env t ~op:"get" ~bucket ~dup:false;
    Kv_wire.P_err Errno.E_not_found
  | Error e -> Kv_wire.P_err e
  | Ok s -> (
    emit env t ~op:"get" ~bucket ~dup:false;
    match parse_header s with
    | Some (seq, len) when String.length s >= header_len + len ->
      Kv_wire.P_value { seq; value = String.sub s header_len len }
    | Some _ | None -> Kv_wire.P_err Errno.E_inv_args)

let put env t ~seq key value =
  t.st.k_puts <- t.st.k_puts + 1;
  let bucket = bucket_of_key t key in
  if String.length value > t.cfg.value_max then
    Kv_wire.P_err Errno.E_kv_too_large
  else begin
    (* The dedup decision reads simulated state (the durable header),
       never host state: a re-execution on any worker, before or after
       a restart, reaches the same verdict deterministically. *)
    let stored =
      match read_file env t ~path:(path_of_key t key) ~max:header_len with
      | Ok s -> (match parse_header s with Some (st, _) -> Some st | None -> None)
      | Error _ -> None
    in
    match stored with
    | Some stored_seq when stored_seq >= seq ->
      t.st.k_dup_skips <- t.st.k_dup_skips + 1;
      emit env t ~op:"put" ~bucket ~dup:true;
      Kv_wire.P_done
    | _ -> (
      match
        Vfs.open_ env (path_of_key t key)
          ~flags:(Fs_proto.o_write lor Fs_proto.o_create)
      with
      | Error e -> Kv_wire.P_err e
      | Ok f -> (
        let res =
          File.write_string env f (header ~seq ~len:(String.length value) ^ value)
        in
        ignore (File.close env f);
        match res with
        | Error e -> Kv_wire.P_err e
        | Ok () ->
          t.st.k_applied <- t.st.k_applied + 1;
          if seq >= 0 then begin
            let n =
              match Hashtbl.find_opt t.applies seq with
              | Some n -> n
              | None -> 0
            in
            Hashtbl.replace t.applies seq (n + 1)
          end;
          emit env t ~op:"put" ~bucket ~dup:false;
          Kv_wire.P_done))
  end

let delete env t key =
  t.st.k_deletes <- t.st.k_deletes + 1;
  let bucket = bucket_of_key t key in
  emit env t ~op:"delete" ~bucket ~dup:false;
  match Vfs.unlink env (path_of_key t key) with
  | Ok () -> Kv_wire.P_done
  | Error e -> Kv_wire.P_err e

let scan env t ~bucket ~cursor ~limit =
  t.st.k_scans <- t.st.k_scans + 1;
  if bucket < 0 || bucket >= t.cfg.buckets || cursor < 0 then
    Kv_wire.P_err Errno.E_inv_args
  else begin
    emit env t ~op:"scan" ~bucket ~dup:false;
    let dir = bucket_dir bucket in
    let limit =
      if limit <= 0 then t.cfg.scan_limit else min limit t.cfg.scan_limit
    in
    let rec page idx acc =
      if idx - cursor >= limit then Ok (List.rev acc, idx, true)
      else
        match Vfs.readdir env dir ~index:idx with
        | Error e -> Error e
        | Ok None -> Ok (List.rev acc, idx, false)
        | Ok (Some (name, _)) -> page (idx + 1) (name :: acc)
    in
    match page cursor [] with
    | Error e -> Kv_wire.P_err e
    | Ok ([], _, false) when cursor > 0 ->
      (* Past the end: the previous page said [more = false]; a caller
         still resuming lost the pagination protocol. *)
      Kv_wire.P_err Errno.E_kv_cursor
    | Ok (keys, next, true) -> (
      (* A full page must still answer [more] honestly: probe one
         entry past it (dir-cache cheap) so the exact-boundary page
         does not promise a phantom continuation. *)
      match Vfs.readdir env dir ~index:next with
      | Ok (Some _) -> Kv_wire.P_page { keys; next; more = true }
      | Ok None | Error _ -> Kv_wire.P_page { keys; next; more = false })
    | Ok (keys, next, more) -> Kv_wire.P_page { keys; next; more }
  end

let exec env t ~seq (req : Kv_wire.req) =
  ensure_init env t;
  Env.charge env Account.App t.cfg.op_cycles;
  match req with
  | Kv_wire.R_get { key } -> get env t key
  | Kv_wire.R_put { key; seq = rseq; value } ->
    (* The binary form carries its own token (the service assigns it);
       the packed form inherits the pool sequence number. *)
    let seq = if rseq <> 0 then rseq else seq in
    put env t ~seq key value
  | Kv_wire.R_delete { key } -> delete env t key
  | Kv_wire.R_scan { bucket; cursor; limit } -> scan env t ~bucket ~cursor ~limit
  | Kv_wire.R_stop -> Kv_wire.P_done

(* --- pool adapter --------------------------------------------------------- *)

let errno_of_resp = function
  | Kv_wire.P_err e -> e
  | Kv_wire.P_value _ | Kv_wire.P_done | Kv_wire.P_page _ -> Errno.E_ok

let exec_packed env t ~seq op =
  match (op : Kv_wire.op) with
  | Kv_wire.Get { key } -> get env t (key_of_index t key)
  | Kv_wire.Put { key; len } ->
    let key = key_of_index t key in
    let value =
      let v = value_of t ~key ~seq in
      if len > 0 && len <> String.length v then
        if len <= t.cfg.value_max then String.make len v.[0] else String.make len 'x'
      else v
    in
    put env t ~seq key value
  | Kv_wire.Delete { key } -> delete env t (key_of_index t key)
  | Kv_wire.Scan { bucket; cursor; limit } -> scan env t ~bucket ~cursor ~limit

let pool_exec t =
  fun env ~seq arg ->
  ensure_init env t;
  Env.charge env Account.App t.cfg.op_cycles;
  match Kv_wire.unpack arg with
  | exception Invalid_argument _ -> Errno.E_inv_args
  | op -> errno_of_resp (exec_packed env t ~seq op)

(* --- preparation ---------------------------------------------------------- *)

let prepare env t =
  let rec dirs b =
    if b = t.cfg.buckets then Ok ()
    else
      match Vfs.mkdir env (bucket_dir b) with
      | Ok () | Error Errno.E_exists -> dirs (b + 1)
      | Error e -> Error e
  in
  match dirs 0 with
  | Error e -> Error e
  | Ok () ->
    (* Preload with seq -1: strictly older than any pool sequence
       number, so the first real put to a key always applies. *)
    let rec load i =
      if i = t.cfg.keys then Ok ()
      else
        let key = key_of_index t i in
        match put env t ~seq:(-1) key (value_of t ~key ~seq:(-1)) with
        | Kv_wire.P_done -> load (i + 1)
        | Kv_wire.P_err e -> Error e
        | Kv_wire.P_value _ | Kv_wire.P_page _ -> Error Errno.E_inv_args
    in
    load 0

(* --- witness --------------------------------------------------------------- *)

let applied_once t ~seq =
  match Hashtbl.find_opt t.applies seq with Some 1 -> true | _ -> false

let double_applied t =
  Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) t.applies 0

let applied_total t = Hashtbl.length t.applies
let dup_skips t = t.st.k_dup_skips
