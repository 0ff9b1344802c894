module Account = M3_sim.Account
module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Store = M3_mem.Store
module Pe = M3_hw.Pe
module Cost_model = M3_hw.Cost_model
module Fabric = M3_noc.Fabric
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module Endpoint = M3_dtu.Endpoint
module W = Msgbuf.W
module R = Msgbuf.R

type 'a result_ = ('a, Errno.t) result

type mount = {
  (* session plumbing; mutable so a crash-restarted service can be
     re-attached in place (the handles keep pointing at this mount) *)
  mutable m_sess_sel : int;
  mutable m_sgate : Gate.send_gate;
  m_reply : Gate.recv_gate;
  m_service : string;
  mutable m_append_blocks : int;
  mutable m_loc_batch : int;
  mutable m_loc_requests : int;
  mutable m_calls : int; (* service round-trips (calls + exchanges) *)
  (* cached readdir batch: path, first index, entries *)
  mutable m_dir_cache : (string * int * (string * int) list) option;
  (* mount cache; [None] = caching off, the seed's exact behavior *)
  mutable m_cache : Fs_cache.t option;
  mutable m_notify_label : int64;
  mutable m_notify_sel : int; (* our sgate cap, delegated to the service *)
  mutable m_session_gen : int; (* bumped on crash-recovery re-mount *)
}

type extent = Fs_cache.extent = {
  x_foff : int; (* file offset in bytes *)
  x_len : int;  (* bytes *)
  x_gate : Gate.mem_gate;
}

(* Per-file state lives in a {!Fs_cache.fentry} even with the cache
   off (a private record then) so open handles of a caching mount can
   alias the shared entry: an invalidation updates every handle at
   once. *)
type regular = {
  f_mount : mount;
  f_path : string;
  mutable f_fid : int option; (* [None]: no server-side handle yet *)
  f_entry : Fs_cache.fentry;
  mutable f_pos : int;
  f_writable : bool;
  mutable f_sess_gen : int; (* mount generation the fid belongs to *)
}

type t =
  | Regular of regular
  | Pipe_reader of Pipe.reader
  | Pipe_writer of Pipe.writer

let private_entry ~size =
  {
    Fs_cache.fe_ino = 0;
    fe_size = size;
    fe_extents = [];
    fe_fetched = 0;
    fe_alloc_end = 0;
    fe_valid = true;
    fe_hits = 0;
    fe_stamp = 0;
    fe_expire = max_int;
  }

(* --- observability ------------------------------------------------------ *)

let emit (env : Env.t) ev =
  let obs = Fabric.obs env.fabric in
  if Obs.enabled obs then Obs.emit obs ev

let cache_hit (env : Env.t) kind =
  emit env (Event.Fs_cache_hit { pe = Pe.id env.pe; kind })

let cache_miss (env : Env.t) kind =
  emit env (Event.Fs_cache_miss { pe = Pe.id env.pe; kind })

(* --- session plumbing -------------------------------------------------- *)

let call env mount fill =
  let w = W.create () in
  fill w;
  mount.m_calls <- mount.m_calls + 1;
  match Gate.call env mount.m_sgate ~reply_gate:mount.m_reply (W.contents w) with
  | Error e -> Error e
  | Ok payload ->
    let r = R.of_bytes payload in
    (match Errno.of_int (R.u64 r) with
    | Errno.E_ok -> Ok r
    | e -> Error e)

let open_retry env ~service =
  let rec go tries =
    match Syscalls.open_sess env ~srv:service ~arg:0 with
    | Ok pair -> Ok pair
    | Error Errno.E_not_found when tries > 0 ->
      Process.wait 1000;
      go (tries - 1)
    | Error e -> Error e
  in
  go 100_000

let mount_m3fs env ~service =
  match open_retry env ~service with
  | Error e -> Error e
  | Ok (sess_sel, sgate_sel) -> (
    match Gate.create_recv env ~slot_order:Fs_proto.srv_msg_order ~slot_count:2 with
    | Error e -> Error e
    | Ok reply ->
      Ok
        {
          m_sess_sel = sess_sel;
          m_sgate = Gate.send_gate_of_sel sgate_sel;
          m_reply = reply;
          m_service = service;
          m_append_blocks = 256;
          m_loc_batch = 1;
          m_loc_requests = 0;
          m_calls = 0;
          m_dir_cache = None;
          m_cache = None;
          m_notify_label = 0L;
          m_notify_sel = -1;
          m_session_gen = 0;
        })

let set_append_blocks m n = if n > 0 then m.m_append_blocks <- n
let set_loc_batch m n = if n > 0 then m.m_loc_batch <- n
let loc_requests m = m.m_loc_requests
let round_trips m = m.m_calls
let cache_stats m = Option.map Fs_cache.stats m.m_cache

(* --- invalidation channel ----------------------------------------------- *)

(* One receive gate per VPE serves every caching mount: pinned
   endpoints are scarce, so mounts multiplex over it with per-mount
   labels (the label is receiver-chosen, so a service cannot spoof
   another mount's notifications). *)
type notify_state = {
  ns_gate : Gate.recv_gate;
  mutable ns_mounts : (int64 * mount) list;
  mutable ns_next_label : int64;
}

(* Keyed by env uid: the environment record cannot reference this
   module's types. *)
let notify_states : (int, notify_state) Hashtbl.t = Hashtbl.create 16

let notify_state (env : Env.t) =
  match Hashtbl.find_opt notify_states env.uid with
  | Some ns -> Ok ns
  | None -> (
    match
      Gate.create_recv env ~slot_order:Fs_proto.notify_msg_order
        ~slot_count:Fs_proto.notify_slots
    with
    | Error e -> Error e
    | Ok gate ->
      let ns = { ns_gate = gate; ns_mounts = []; ns_next_label = 1L } in
      Hashtbl.replace notify_states env.uid ns;
      Ok ns)

let flush_cache (env : Env.t) m ~reason =
  match m.m_cache with
  | None -> ()
  | Some c ->
    Fs_cache.flush c;
    m.m_dir_cache <- None;
    emit env
      (Event.Fs_cache_flush
         { pe = Pe.id env.pe; gen = Fs_cache.generation c; reason })

(* Applies one decoded notification to the owning mount's cache. On a
   sequence gap at least one notification was lost — any entry may be
   stale, so the whole mount flushes conservatively. *)
let apply_notification (env : Env.t) m ~kind ~seq ~ino ~size ~path =
  match m.m_cache with
  | None -> ()
  | Some c -> (
    match Fs_cache.note_seq c ~seq with
    | `Gap -> flush_cache env m ~reason:"gap"
    | `Ok ->
      (match kind with
      | 0 -> ignore (Fs_cache.inval_ino c ~ino ~size)
      | 1 ->
        ignore (Fs_cache.inval_path c ~path);
        m.m_dir_cache <- None
      | _ ->
        ignore (Fs_cache.inval_remove c ~ino ~size ~path);
        m.m_dir_cache <- None);
      let name =
        match kind with 0 -> "ino" | 1 -> "path" | _ -> "both"
      in
      emit env (Event.Fs_cache_inval { pe = Pe.id env.pe; kind = name }))

(* Drains pending invalidations for every caching mount of this VPE.
   Called at the top of each file operation; fetch and ack are DTU
   register operations and the decode is client CPU work the model
   does not charge, so a drain with an empty ringbuffer — and the
   whole path with the cache off — costs nothing. *)
let drain (env : Env.t) m =
  if m.m_cache <> None then
    match Hashtbl.find_opt notify_states env.uid with
    | None -> ()
    | Some ns ->
      let rec loop () =
        match Gate.fetch env ns.ns_gate with
        | None -> ()
        | Some msg ->
          Gate.ack env ns.ns_gate ~slot:msg.slot;
          let r = R.of_bytes msg.payload in
          let kind = R.u8 r in
          let seq = R.u64 r in
          let ino = R.u64 r in
          let size = R.u64 r in
          let path = R.str r in
          (match List.assoc_opt msg.header.label ns.ns_mounts with
          | None -> ()
          | Some m' -> apply_notification env m' ~kind ~seq ~ino ~size ~path);
          loop ()
      in
      loop ()

(* Registration: delegate our per-mount send gate into the service's
   capability table ([Delegate_sess]), then hand it the service-side
   selector over the exchange channel ([Fs_reg_notify]). *)
let register_notify (env : Env.t) m =
  match Syscalls.delegate_sess env ~sess_sel:m.m_sess_sel ~own_sel:m.m_notify_sel with
  | Error e -> Error e
  | Ok srv_sel -> (
    let args = W.create () in
    W.u8 args (Fs_proto.xop_to_int Fs_proto.Fs_reg_notify);
    W.u64 args srv_sel;
    m.m_calls <- m.m_calls + 1;
    match
      Syscalls.exchange_sess env ~sess_sel:m.m_sess_sel ~args:(W.contents args)
        ~caps:0
    with
    | Error e -> Error e
    | Ok _ -> Ok ())

let enable_cache ?config (env : Env.t) m =
  match m.m_cache with
  | Some _ -> Ok () (* already on *)
  | None -> (
    match notify_state env with
    | Error e -> Error e
    | Ok ns -> (
      let label = ns.ns_next_label in
      let sel = Env.alloc_sel env in
      match
        Gate.create_send ~sel env ns.ns_gate ~label ~credits:Endpoint.Unlimited
      with
      | Error e -> Error e
      | Ok _ -> (
        m.m_notify_label <- label;
        m.m_notify_sel <- sel;
        match register_notify env m with
        | Error e -> Error e
        | Ok () ->
          ns.ns_next_label <- Int64.add label 1L;
          ns.ns_mounts <- (label, m) :: ns.ns_mounts;
          let c = Fs_cache.create ?config () in
          Fs_cache.reset_seq c;
          m.m_cache <- Some c;
          Ok ())))

let cache_enabled m = m.m_cache <> None

(* --- crash recovery ------------------------------------------------------ *)

(* A dead service PE surfaces as a DTU failure or a watchdog timeout;
   anything else is a normal protocol error. *)
let is_crash = function
  | Errno.E_dtu _ | Errno.E_timeout | Errno.E_vpe_dead | Errno.E_vpe_gone ->
    true
  | _ -> false

(* Data-path faults additionally surface as [E_no_sel]: the crashed
   service's capability tree was revoked, so activating a cached
   extent capability hits a hole in our table. *)
let is_data_fault e = is_crash e || e = Errno.E_no_sel

(* Re-attach a crash-restarted service: flush the cache (its
   generation bump tells handles their mem capabilities are dead),
   open a fresh session and re-register the notification channel.
   Only caching mounts recover — a plain mount keeps the seed's
   fail-fast behavior. *)
let recover (env : Env.t) m =
  match m.m_cache with
  | None -> Error Errno.E_vpe_dead
  | Some c -> (
    flush_cache env m ~reason:"crash";
    match open_retry env ~service:m.m_service with
    | Error e -> Error e
    | Ok (sess_sel, sgate_sel) ->
      m.m_sess_sel <- sess_sel;
      m.m_sgate <- Gate.send_gate_of_sel sgate_sel;
      m.m_session_gen <- m.m_session_gen + 1;
      Fs_cache.reset_seq c;
      register_notify env m)

(* Runs [thunk] and, when the service looks dead and this mount
   caches, recovers once and retries — instead of retry-looping
   against dead capabilities. *)
let with_recovery (env : Env.t) m thunk =
  match thunk () with
  | Error e when is_crash e && m.m_cache <> None -> (
    match recover env m with Error e -> Error e | Ok () -> thunk ())
  | r -> r

(* --- extent cache -------------------------------------------------------- *)

(* Parses the extent list from an exchange answer and registers the
   delegated capabilities as memory gates. *)
let absorb_extents (f : Fs_cache.fentry) out sels =
  let inner = R.of_bytes out in
  let n = R.u64 inner in
  let rec go i sels =
    if i = n then ()
    else begin
      let foff = R.u64 inner in
      let len = R.u64 inner in
      match sels with
      | [] -> ()
      | sel :: rest ->
        let x = { x_foff = foff; x_len = len;
                  x_gate = Gate.mem_gate_of_sel ~sel ~size:len } in
        f.fe_extents <- f.fe_extents @ [ x ];
        f.fe_fetched <- f.fe_fetched + 1;
        f.fe_alloc_end <- max f.fe_alloc_end (foff + len);
        go (i + 1) rest
    end
  in
  go 0 sels

(* A fid minted by a previous incarnation of the service means
   nothing to its replacement. *)
let sync_generation f =
  if f.f_sess_gen <> f.f_mount.m_session_gen then begin
    f.f_fid <- None;
    f.f_sess_gen <- f.f_mount.m_session_gen
  end

(* Revalidates the size of a held fid over the exchange channel —
   cheaper than a second open, and it does not mint another
   server-side handle. *)
let fstat_fid (env : Env.t) f fid =
  let mount = f.f_mount in
  mount.m_calls <- mount.m_calls + 1;
  Env.charge env Account.Os
    (Cost_model.file_call_overhead + Cost_model.file_meta_client);
  let args = W.create () in
  W.u8 args (Fs_proto.xop_to_int Fs_proto.Fs_fstat);
  W.u64 args fid;
  match
    Syscalls.exchange_sess env ~sess_sel:mount.m_sess_sel
      ~args:(W.contents args) ~caps:0
  with
  | Error e -> Error e
  | Ok (out, _) ->
    let r = R.of_bytes out in
    let size = R.u64 r in
    f.f_entry.Fs_cache.fe_size <- size;
    f.f_entry.Fs_cache.fe_valid <- true;
    Ok fid

(* Opens the server-side handle a cache-served open skipped (lazily:
   only data-path operations need one). Also the revalidation point —
   the reply's size is authoritative, which matters after a flush
   marked the entry suspect. *)
let ensure_fid (env : Env.t) f =
  sync_generation f;
  match f.f_fid with
  | Some fid when f.f_entry.Fs_cache.fe_valid -> Ok fid
  | Some fid -> fstat_fid env f fid
  | None ->
    let mount = f.f_mount in
    let flags = if f.f_writable then Fs_proto.o_write else Fs_proto.o_read in
    Env.charge env Account.Os
      (Cost_model.file_call_overhead + Cost_model.file_meta_client);
    (match
       call env mount (fun w ->
           W.u8 w (Fs_proto.op_to_int Fs_proto.Fs_open);
           W.str w f.f_path;
           W.u64 w flags)
     with
    | Error e -> Error e
    | Ok r ->
      let fid = R.u64 r in
      let size = R.u64 r in
      (match mount.m_cache with
      | Some _ ->
        (* skip the registered-session extras (ino, extent count) *)
        ()
      | None -> ());
      f.f_fid <- Some fid;
      f.f_entry.Fs_cache.fe_size <- size;
      f.f_entry.Fs_cache.fe_valid <- true;
      Ok fid)

(* Asks m3fs for the next batch of extent locations; E_not_found means
   the file has no more extents. *)
let fetch_locs env f =
  match ensure_fid env f with
  | Error e -> Error e
  | Ok fid -> (
    let mount = f.f_mount in
    mount.m_loc_requests <- mount.m_loc_requests + 1;
    mount.m_calls <- mount.m_calls + 1;
    Env.charge env Account.Os Cost_model.file_extent_request;
    let args = W.create () in
    W.u8 args (Fs_proto.xop_to_int Fs_proto.Fs_get_locs);
    W.u64 args fid;
    W.u64 args f.f_entry.Fs_cache.fe_fetched;
    W.u64 args mount.m_loc_batch;
    match
      Syscalls.exchange_sess env ~sess_sel:mount.m_sess_sel
        ~args:(W.contents args) ~caps:mount.m_loc_batch
    with
    | Error e -> Error e
    | Ok (out, sels) ->
      absorb_extents f.f_entry out sels;
      Ok ())

let append_alloc env f =
  match ensure_fid env f with
  | Error e -> Error e
  | Ok fid -> (
    let mount = f.f_mount in
    mount.m_loc_requests <- mount.m_loc_requests + 1;
    mount.m_calls <- mount.m_calls + 1;
    Env.charge env Account.Os Cost_model.file_extent_request;
    let args = W.create () in
    W.u8 args (Fs_proto.xop_to_int Fs_proto.Fs_append);
    W.u64 args fid;
    W.u64 args mount.m_append_blocks;
    match
      Syscalls.exchange_sess env ~sess_sel:mount.m_sess_sel
        ~args:(W.contents args) ~caps:1
    with
    | Error e -> Error e
    | Ok (out, sels) ->
      absorb_extents f.f_entry out sels;
      Ok ())

let locate (f : Fs_cache.fentry) pos =
  List.find_opt
    (fun x -> pos >= x.x_foff && pos < x.x_foff + x.x_len)
    f.fe_extents

(* --- open/close ------------------------------------------------------------ *)

let now_of (env : Env.t) = Engine.now env.engine

(* Read-only open served entirely from the mount cache: the attr entry
   supplies the inode and size, the file table the extents fetched by
   earlier opens. Zero service round-trips; the server-side handle is
   created lazily if ever needed. *)
let open_cached (env : Env.t) mount path ~flags =
  let plain =
    flags land (Fs_proto.o_create lor Fs_proto.o_trunc lor Fs_proto.o_write)
    = 0
  in
  if not plain then None
  else
    match mount.m_cache with
    | None -> None
    | Some c -> (
      let now = now_of env in
      match Fs_cache.attr c ~now ~path with
      | Some st when not st.Fs_proto.st_is_dir ->
        let entry =
          match Fs_cache.file_entry c ~now ~ino:st.Fs_proto.st_ino with
          | Some e when e.Fs_cache.fe_valid -> e
          | Some _ | None ->
            Fs_cache.insert_file c ~now ~ino:st.Fs_proto.st_ino
              ~size:st.Fs_proto.st_size
        in
        Some entry
      | Some _ | None -> None)

let open_ env mount path ~flags =
  drain env mount;
  match open_cached env mount path ~flags with
  | Some entry ->
    Env.charge env Account.Os Cost_model.file_call_overhead;
    cache_hit env "open";
    Ok
      (Regular
         {
           f_mount = mount;
           f_path = path;
           f_fid = None;
           f_entry = entry;
           f_pos = 0;
           f_writable = false;
           f_sess_gen = mount.m_session_gen;
         })
  | None ->
    if
      mount.m_cache <> None
      && flags land (Fs_proto.o_create lor Fs_proto.o_trunc lor Fs_proto.o_write)
         = 0
    then cache_miss env "open";
    with_recovery env mount (fun () ->
        Env.charge env Account.Os
          (Cost_model.file_call_overhead + Cost_model.file_meta_client);
        match
          call env mount (fun w ->
              W.u8 w (Fs_proto.op_to_int Fs_proto.Fs_open);
              W.str w path;
              W.u64 w flags)
        with
        | Error e -> Error e
        | Ok r ->
          let fid = R.u64 r in
          let size = R.u64 r in
          let size = if flags land Fs_proto.o_trunc <> 0 then 0 else size in
          (* Creating or truncating through this mount invalidates its
             own single-entry readdir cache — the server's broadcast
             deliberately excludes the requester. *)
          if flags land Fs_proto.o_create <> 0 then mount.m_dir_cache <- None;
          let entry =
            match mount.m_cache with
            | None -> private_entry ~size
            | Some c ->
              (* registered sessions get two extra words: ino and
                 extent count *)
              let ino = R.u64 r in
              let nextents = R.u64 r in
              let now = now_of env in
              let e = Fs_cache.refresh_file c ~now ~ino ~size in
              if flags land Fs_proto.o_trunc <> 0 then begin
                e.Fs_cache.fe_extents <- [];
                e.Fs_cache.fe_fetched <- 0;
                e.Fs_cache.fe_alloc_end <- 0
              end;
              Fs_cache.insert_attr c ~now ~path
                {
                  Fs_proto.st_size = size;
                  st_is_dir = false;
                  st_ino = ino;
                  st_extents = nextents;
                };
              e
          in
          Ok
            (Regular
               {
                 f_mount = mount;
                 f_path = path;
                 f_fid = Some fid;
                 f_entry = entry;
                 f_pos = 0;
                 f_writable = flags land Fs_proto.o_write <> 0;
                 f_sess_gen = mount.m_session_gen;
               }))

let of_pipe_reader r = Pipe_reader r
let of_pipe_writer w = Pipe_writer w

let close env t =
  match t with
  | Pipe_reader _ -> Ok ()
  | Pipe_writer w -> Pipe.close_writer env w
  | Regular f -> (
    drain env f.f_mount;
    sync_generation f;
    match f.f_fid with
    | None when not f.f_writable ->
      (* never touched the server; nothing to release *)
      Env.charge env Account.Os Cost_model.file_call_overhead;
      Ok ()
    | _ ->
      with_recovery env f.f_mount (fun () ->
          sync_generation f;
          match (f.f_writable, f.f_fid) with
          | false, None ->
            (* the fid died with the old service incarnation; nothing
               to release on its replacement *)
            Ok ()
          | writable, _ -> (
            (* a writer must reach the server: close is the commit
               point that truncates to the real size and broadcasts
               it, even if that means re-opening after a crash *)
            match
              if writable then ensure_fid env f
              else Ok (Option.get f.f_fid)
            with
            | Error e -> Error e
            | Ok fid ->
              Env.charge env Account.Os
                (Cost_model.file_call_overhead + Cost_model.file_meta_client);
              let final =
                if writable then f.f_entry.Fs_cache.fe_size else -1
              in
              (match
                 call env f.f_mount (fun w ->
                     W.u8 w (Fs_proto.op_to_int Fs_proto.Fs_close);
                     W.u64 w fid;
                     W.u64 w final)
               with
              | Error e -> Error e
              | Ok _ ->
                f.f_fid <- None;
                Ok ()))))

(* --- read/write -------------------------------------------------------------- *)

let rec read_chunks env f ~local ~len ~done_ =
  let e = f.f_entry in
  let remaining = min len (e.Fs_cache.fe_size - f.f_pos) in
  if remaining <= 0 then Ok done_
  else
    match locate e f.f_pos with
    | Some x -> (
      let off_in_ext = f.f_pos - x.x_foff in
      let chunk = min remaining (x.x_len - off_in_ext) in
      match Gate.read env x.x_gate ~off:off_in_ext ~local ~len:chunk with
      | Error err when is_data_fault err && f.f_mount.m_cache <> None -> (
        (* dead mem capability (service crash-restart revoked it):
           recover the mount, refetch locations, then resume *)
        match recover env f.f_mount with
        | Error e -> Error e
        | Ok () -> read_chunks env f ~local ~len ~done_)
      | Error e -> Error e
      | Ok () ->
        f.f_pos <- f.f_pos + chunk;
        read_chunks env f ~local:(local + chunk) ~len:(len - chunk)
          ~done_:(done_ + chunk))
    | None -> (
      match fetch_locs env f with
      | Ok () -> read_chunks env f ~local ~len ~done_
      | Error Errno.E_not_found -> Ok done_ (* no more extents *)
      | Error err when is_data_fault err && f.f_mount.m_cache <> None -> (
        match recover env f.f_mount with
        | Error e -> Error e
        | Ok () -> read_chunks env f ~local ~len ~done_)
      | Error e -> Error e)

let revalidate env f =
  sync_generation f;
  if f.f_entry.Fs_cache.fe_valid then Ok ()
  else match ensure_fid env f with Error e -> Error e | Ok _ -> Ok ()

let read env t ~local ~len =
  match t with
  | Pipe_reader r -> Pipe.read env r ~local ~len
  | Pipe_writer _ -> Error Errno.E_no_perm
  | Regular f -> (
    drain env f.f_mount;
    match revalidate env f with
    | Error e -> Error e
    | Ok () ->
      Env.charge env Account.Os
        (Cost_model.file_call_overhead + Cost_model.file_locate);
      read_chunks env f ~local ~len ~done_:0)

let rec write_chunks env f ~local ~len =
  let e = f.f_entry in
  if len = 0 then Ok ()
  else if f.f_pos >= e.Fs_cache.fe_alloc_end then begin
    (* Try to learn about existing extents first (overwrite case); only
       a genuinely new region needs an allocation. *)
    match fetch_locs env f with
    | Ok () -> write_chunks env f ~local ~len
    | Error Errno.E_not_found -> (
      match append_alloc env f with
      | Error e -> Error e
      | Ok () -> write_chunks env f ~local ~len)
    | Error e -> Error e
  end
  else
    match locate e f.f_pos with
    | None -> Error Errno.E_no_space
    | Some x -> (
      let off_in_ext = f.f_pos - x.x_foff in
      let chunk = min len (x.x_len - off_in_ext) in
      match Gate.write env x.x_gate ~off:off_in_ext ~local ~len:chunk with
      | Error err when is_data_fault err && f.f_mount.m_cache <> None -> (
        match recover env f.f_mount with
        | Error e -> Error e
        | Ok () -> write_chunks env f ~local ~len)
      | Error e -> Error e
      | Ok () ->
        f.f_pos <- f.f_pos + chunk;
        e.Fs_cache.fe_size <- max e.Fs_cache.fe_size f.f_pos;
        write_chunks env f ~local:(local + chunk) ~len:(len - chunk))

let write env t ~local ~len =
  match t with
  | Pipe_writer w -> Pipe.write env w ~local ~len
  | Pipe_reader _ -> Error Errno.E_no_perm
  | Regular f ->
    if not f.f_writable then Error Errno.E_no_perm
    else begin
      drain env f.f_mount;
      match revalidate env f with
      | Error e -> Error e
      | Ok () ->
        Env.charge env Account.Os
          (Cost_model.file_call_overhead + Cost_model.file_locate);
        write_chunks env f ~local ~len
    end

let seek env t pos =
  match t with
  | Regular f ->
    if pos < 0 then Error Errno.E_inv_args
    else begin
      (* Within cached extents this is pure libm3 work (§4.5.8). *)
      Env.charge env Account.Os Cost_model.file_locate;
      f.f_pos <- pos;
      Ok ()
    end
  | Pipe_reader _ | Pipe_writer _ -> Error Errno.E_inv_args

let size = function
  | Regular f -> f.f_entry.Fs_cache.fe_size
  | Pipe_reader _ | Pipe_writer _ -> 0

let pos = function
  | Regular f -> f.f_pos
  | Pipe_reader _ | Pipe_writer _ -> 0

(* --- meta operations ----------------------------------------------------------- *)

let stat env mount path =
  drain env mount;
  let cached =
    match mount.m_cache with
    | None -> None
    | Some c -> Fs_cache.attr c ~now:(now_of env) ~path
  in
  match cached with
  | Some st ->
    Env.charge env Account.Os Cost_model.file_call_overhead;
    cache_hit env "attr";
    Ok st
  | None ->
    if mount.m_cache <> None then cache_miss env "attr";
    with_recovery env mount (fun () ->
        Env.charge env Account.Os
          (Cost_model.file_call_overhead + Cost_model.file_meta_client);
        match
          call env mount (fun w ->
              W.u8 w (Fs_proto.op_to_int Fs_proto.Fs_stat);
              W.str w path)
        with
        | Error e -> Error e
        | Ok r ->
          let st_size = R.u64 r in
          let st_is_dir = R.u8 r = 1 in
          let st_ino = R.u64 r in
          let st_extents = R.u64 r in
          let st = { Fs_proto.st_size; st_is_dir; st_ino; st_extents } in
          (match mount.m_cache with
          | Some c -> Fs_cache.insert_attr c ~now:(now_of env) ~path st
          | None -> ());
          Ok st)

let simple_meta env mount op path =
  drain env mount;
  with_recovery env mount (fun () ->
      Env.charge env Account.Os
        (Cost_model.file_call_overhead + Cost_model.file_meta_client);
      match
        call env mount (fun w ->
            W.u8 w (Fs_proto.op_to_int op);
            W.str w path)
      with
      | Error e -> Error e
      | Ok r -> Ok r)

let local_inval (env : Env.t) mount kind =
  if mount.m_cache <> None then
    emit env (Event.Fs_cache_inval { pe = Pe.id env.pe; kind })

let mkdir env mount path =
  match simple_meta env mount Fs_proto.Fs_mkdir path with
  | Error e -> Error e
  | Ok _ ->
    (* namespace changed under this mount: the readdir cache is stale
       regardless of caching mode (the old code kept serving it) *)
    mount.m_dir_cache <- None;
    (match mount.m_cache with
    | Some c ->
      ignore (Fs_cache.inval_path c ~path);
      local_inval env mount "local"
    | None -> ());
    Ok ()

let unlink env mount path =
  match simple_meta env mount Fs_proto.Fs_unlink path with
  | Error e -> Error e
  | Ok r ->
    mount.m_dir_cache <- None;
    (match mount.m_cache with
    | Some c ->
      (* registered sessions get the unlinked inode in the reply — the
         broadcast excludes the requester, so it cleans up locally *)
      let ino = R.u64 r in
      ignore (Fs_cache.inval_remove c ~ino ~size:0 ~path);
      local_inval env mount "local"
    | None -> ());
    Ok ()

let rename env mount ~src ~dst =
  drain env mount;
  with_recovery env mount (fun () ->
      Env.charge env Account.Os
        (Cost_model.file_call_overhead + Cost_model.file_meta_client);
      match
        call env mount (fun w ->
            W.u8 w (Fs_proto.op_to_int Fs_proto.Fs_rename);
            W.str w src;
            W.str w dst)
      with
      | Error e -> Error e
      | Ok r ->
        mount.m_dir_cache <- None;
        (match mount.m_cache with
        | Some c ->
          let ino = R.u64 r in
          let size = R.u64 r in
          (* the inode keeps its blocks: surviving handles read on *)
          ignore (Fs_cache.inval_remove c ~ino ~size ~path:src);
          ignore (Fs_cache.inval_path c ~path:dst);
          local_inval env mount "local"
        | None -> ());
        Ok ())

(* Hot-upgrade barrier: one [Fs_drain] round trip. The service flushes
   every pending invalidation broadcast before its reply leaves the
   session channel, so the post-reply notification drain below applies
   everything the old generation still owed us; the returned number is
   the shard's new generation. *)
let drain_service env mount =
  drain env mount;
  with_recovery env mount (fun () ->
      Env.charge env Account.Os
        (Cost_model.file_call_overhead + Cost_model.file_meta_client);
      match
        call env mount (fun w -> W.u8 w (Fs_proto.op_to_int Fs_proto.Fs_drain))
      with
      | Error e -> Error e
      | Ok r ->
        let gen = R.u64 r in
        drain env mount;
        Ok gen)

let service_name mount = mount.m_service

(* The server answers readdir with a batch of entries (like getdents);
   libm3 caches the batch so a directory walk costs one message per
   [Fs_proto.readdir_batch] entries. *)
let readdir env mount path ~index =
  drain env mount;
  let cached =
    match mount.m_dir_cache with
    | Some (p, start, entries)
      when p = path && index >= start && index < start + List.length entries ->
      Some (List.nth entries (index - start))
    | Some _ | None -> None
  in
  match cached with
  | Some entry ->
    Env.charge env Account.Os Cost_model.file_call_overhead;
    if mount.m_cache <> None then cache_hit env "dir";
    Ok (Some entry)
  | None ->
    if mount.m_cache <> None then cache_miss env "dir";
    with_recovery env mount (fun () ->
        Env.charge env Account.Os
          (Cost_model.file_call_overhead + Cost_model.file_meta_client);
        match
          call env mount (fun w ->
              W.u8 w (Fs_proto.op_to_int Fs_proto.Fs_readdir);
              W.str w path;
              W.u64 w index)
        with
        | Error Errno.E_not_found -> Ok None
        | Error e -> Error e
        | Ok r ->
          let count = R.u64 r in
          let entries =
            List.init count (fun _ ->
                let name = R.str r in
                let ino = R.u64 r in
                (name, ino))
          in
          mount.m_dir_cache <- Some (path, index, entries);
          (match entries with
          | first :: _ -> Ok (Some first)
          | [] -> Ok None))

(* --- convenience (scratch-buffer copies) ------------------------------------------ *)

let scratch_size = 4096

let scratches : (int, int) Hashtbl.t = Hashtbl.create 16

let scratch (env : Env.t) =
  match Hashtbl.find_opt scratches env.uid with
  | Some addr -> addr
  | None ->
    let addr = Env.alloc_spm env ~size:scratch_size in
    Hashtbl.replace scratches env.uid addr;
    addr

let write_string (env : Env.t) t s =
  let spm = Pe.spm env.pe in
  let buf = scratch env in
  let rec go off =
    if off >= String.length s then Ok ()
    else begin
      let chunk = min scratch_size (String.length s - off) in
      Store.write_string spm ~addr:buf (String.sub s off chunk);
      match write env t ~local:buf ~len:chunk with
      | Error e -> Error e
      | Ok () -> go (off + chunk)
    end
  in
  go 0

let read_all (env : Env.t) t ~max =
  let spm = Pe.spm env.pe in
  let buf = scratch env in
  let out = Buffer.create 256 in
  let rec go () =
    if Buffer.length out >= max then Ok (Buffer.contents out)
    else
      match
        read env t ~local:buf ~len:(min scratch_size (max - Buffer.length out))
      with
      | Error e -> Error e
      | Ok 0 -> Ok (Buffer.contents out)
      | Ok n ->
        Buffer.add_string out (Store.read_string spm ~addr:buf ~len:n);
        go ()
  in
  go ()
