module Account = M3_sim.Account
module Endpoint = M3_dtu.Endpoint
module Cost_model = M3_hw.Cost_model
module Fabric = M3_noc.Fabric
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module W = Msgbuf.W
module R = Msgbuf.R

let src = Logs.Src.create "m3.m3fs" ~doc:"m3fs service"

module Log = (val Logs.src_log src : Logs.LOG)

type seed = {
  sd_path : string;
  sd_size : int;
  sd_blocks_per_extent : int;
  sd_dir : bool;
}

type config = {
  dram : M3_mem.Store.t;
  fs_size : int;
  block_size : int;
  inode_count : int;
  seed : seed list;
  seed_rng_seed : int;
  srv_name : string;
  emit_queue : bool;
}

let program_name = "m3fs"

let default_config ~dram =
  {
    dram;
    fs_size = 16 * 1024 * 1024;
    block_size = 1024;
    inode_count = 512;
    seed = [];
    seed_rng_seed = 42;
    srv_name = program_name;
    emit_queue = false;
  }

(* One open file of one session. [fo_open_size] is the size at open
   time: if the client dies without closing, blocks appended since then
   were never committed by an [Fs_close] and roll back. *)
type file_open = {
  fo_ino : int;
  fo_open_size : int;
}

(* A session that registered for cache invalidations. [n_seq] counts
   *attempted* sends: a dropped notification (full ringbuffer, dead
   client) leaves a gap the receiver detects and answers with a
   conservative flush. *)
type notify_st = {
  n_gate : Gate.send_gate;
  mutable n_seq : int;
}

type session = {
  ident : int64;
  files : (int, file_open) Hashtbl.t; (* fid -> open file *)
  mutable next_fid : int;
  mutable notify : notify_st option;
}

(* A notification marshaled but not yet sent: broadcasts are deferred
   until after the triggering request is answered. Sending inline can
   deadlock — the first send must activate an endpoint, which is a
   syscall, and during an exchange-channel operation the kernel is
   itself blocked waiting for this server's reply. *)
type pending_inval = {
  pi_sess : int64;
  pi_gate : Gate.send_gate;
  pi_kind : string;
  pi_bytes : Bytes.t;
}

type server = {
  env : Env.t;
  fs : Fs_image.t;
  image_sel : int; (* memory capability covering the whole image *)
  sessions : (int64, session) Hashtbl.t;
  srv_name : string;
  mutable pending : pending_inval list; (* newest first; flushed reversed *)
  mutable gen : int; (* bumped by Fs_drain; survives across drains *)
}

(* Each simulation's running instances, by service name: lets tests
   and the harnesses inspect an instance's image and check that dead
   clients' sessions were reaped. The table hangs off the engine, so a
   finished system's servers — and through them its DRAM — go with it. *)
type M3_sim.Engine.local += Servers of (string, server) Hashtbl.t

let servers engine =
  M3_sim.Engine.local engine
    (function Servers s -> Some s | _ -> None)
    (fun () -> Servers (Hashtbl.create 4))

let server ~engine ~srv_name = Hashtbl.find_opt (servers engine) srv_name

let image_of ~engine ~srv_name =
  Option.map (fun t -> t.fs) (server ~engine ~srv_name)

let current_image engine = image_of ~engine ~srv_name:program_name

let open_sessions ~engine ~srv_name =
  Option.map (fun t -> Hashtbl.length t.sessions) (server ~engine ~srv_name)

let forget ~engine = Hashtbl.reset (servers engine)

let charge_meta t ~scanned =
  Env.charge t.env Account.Os
    (Cost_model.fs_meta_op + (Cost_model.fs_dirent_scan * scanned))

let reply_err errno =
  let w = W.create () in
  W.u64 w (Errno.to_int errno);
  w

let reply_ok fill =
  let w = W.create () in
  W.u64 w (Errno.to_int Errno.E_ok);
  fill w;
  w

(* --- cache-invalidation broadcast -------------------------------------- *)

(* Fire-and-forget: one notify message per registered session, except
   the mutating one (its client invalidates locally as part of the
   operation). Sessions are walked in ident order so event logs stay
   deterministic. The sequence number is claimed here, at the mutation,
   but the send itself is deferred to [flush_invals] after the request
   is answered (see {!pending_inval}). A failed send is tolerated: the
   sequence number was already bumped, so the receiver sees a gap and
   flushes wholesale instead of trusting stale entries. Costs nothing —
   no charges, no events — while no session is registered, which keeps
   cache-off runs byte-identical. *)
let broadcast_inval t ~except kind ~ino ~size ~path =
  let targets =
    Hashtbl.fold
      (fun _ s acc ->
        match s.notify with
        | Some _ when not (Int64.equal s.ident except) -> s :: acc
        | _ -> acc)
      t.sessions []
    |> List.sort (fun a b -> Int64.compare a.ident b.ident)
  in
  List.iter
    (fun s ->
      match s.notify with
      | None -> ()
      | Some n ->
        let seq = n.n_seq in
        n.n_seq <- seq + 1;
        let w = W.create () in
        W.u8 w (Fs_proto.inval_kind_to_int kind);
        W.u64 w seq;
        W.u64 w ino;
        W.u64 w size;
        W.str w path;
        t.pending <-
          {
            pi_sess = s.ident;
            pi_gate = n.n_gate;
            pi_kind = Fs_proto.inval_kind_name kind;
            pi_bytes = W.contents w;
          }
          :: t.pending)
    targets

let flush_invals t =
  match t.pending with
  | [] -> ()
  | pending ->
    t.pending <- [];
    let obs = Fabric.obs t.env.Env.fabric in
    let pe = M3_hw.Pe.id t.env.Env.pe in
    List.iter
      (fun pi ->
        Env.charge t.env Account.Os Cost_model.fs_inval_notify;
        if Obs.enabled obs then
          Obs.emit obs
            (Event.Fs_inval_send
               {
                 pe;
                 srv = t.srv_name;
                 session = Int64.to_int pi.pi_sess;
                 kind = pi.pi_kind;
               });
        (* [block:false]: a registered client may sit suspended for an
           unbounded time (an elastic pool parks idle workers); waiting
           for its resume would wedge the whole server. The dropped
           notify leaves a sequence gap, so the client flushes
           wholesale when it comes back — exactly the drop-tolerant
           contract described above. *)
        match Gate.send ~block:false t.env pi.pi_gate pi.pi_bytes () with
        | Ok () -> ()
        | Error e ->
          Log.debug (fun m ->
              m "%s: inval notify to sess%Ld dropped: %s" t.srv_name pi.pi_sess
                (Errno.to_string e)))
      (List.rev pending)

(* --- session (client-channel) operations ------------------------------ *)

let h_open t sess r =
  let path = R.str r in
  let flags = R.u64 r in
  let want_create = flags land Fs_proto.o_create <> 0 in
  let created = ref false in
  let resolved =
    match Fs_image.lookup t.fs path with
    | Ok (ino, scanned) ->
      charge_meta t ~scanned;
      if Fs_image.is_dir t.fs ~ino then Error Errno.E_is_dir else Ok ino
    | Error Errno.E_not_found when want_create -> (
      match Fs_image.create_file t.fs path with
      | Ok ino ->
        charge_meta t ~scanned:4;
        created := true;
        Ok ino
      | Error e -> Error e)
    | Error e ->
      charge_meta t ~scanned:2;
      Error e
  in
  match resolved with
  | Error e -> reply_err e
  | Ok ino ->
    if flags land Fs_proto.o_trunc <> 0 then Fs_image.truncate t.fs ~ino ~size:0;
    if !created then
      broadcast_inval t ~except:sess.ident Fs_proto.Inval_path ~ino ~size:0
        ~path
    else if flags land Fs_proto.o_trunc <> 0 then
      broadcast_inval t ~except:sess.ident Fs_proto.Inval_ino ~ino ~size:0
        ~path:"";
    let fid = sess.next_fid in
    sess.next_fid <- fid + 1;
    Hashtbl.replace sess.files fid
      { fo_ino = ino; fo_open_size = Fs_image.file_size t.fs ~ino };
    reply_ok (fun w ->
        W.u64 w fid;
        W.u64 w (Fs_image.file_size t.fs ~ino);
        (* Caching clients (identified by their notify registration)
           also get the inode number and extent count, so they can key
           their mount cache without a stat round-trip. Plain clients
           get the unchanged two-word reply — byte-identical wire
           traffic when the cache is off. *)
        if sess.notify <> None then begin
          W.u64 w ino;
          match Fs_image.stat t.fs ~ino with
          | Ok st -> W.u64 w st.extents
          | Error _ -> W.u64 w 0
        end)

let h_close t sess r =
  let fid = R.u64 r in
  let final_size = R.u64 r in
  match Hashtbl.find_opt sess.files fid with
  | None -> reply_err Errno.E_not_found
  | Some { fo_ino = ino; _ } ->
    charge_meta t ~scanned:0;
    (* A writer reports its final size; the over-allocated tail blocks
       return to the bitmap (§4.5.8). The close is the commit point
       other clients may have cached the old size across, so it
       broadcasts the new one. *)
    if final_size >= 0 then begin
      Fs_image.truncate t.fs ~ino ~size:final_size;
      broadcast_inval t ~except:sess.ident Fs_proto.Inval_ino ~ino
        ~size:final_size ~path:""
    end;
    Hashtbl.remove sess.files fid;
    reply_ok (fun _ -> ())

let h_stat t r =
  let path = R.str r in
  match Fs_image.lookup t.fs path with
  | Error e ->
    charge_meta t ~scanned:2;
    reply_err e
  | Ok (ino, scanned) -> (
    charge_meta t ~scanned;
    match Fs_image.stat t.fs ~ino with
    | Error e -> reply_err e
    | Ok st ->
      reply_ok (fun w ->
          W.u64 w st.size;
          W.u8 w (if st.is_dir then 1 else 0);
          W.u64 w st.ino;
          W.u64 w st.extents))

let h_mkdir t sess r =
  let path = R.str r in
  charge_meta t ~scanned:3;
  match Fs_image.mkdir t.fs path with
  | Ok () ->
    broadcast_inval t ~except:sess.ident Fs_proto.Inval_path ~ino:0 ~size:0
      ~path;
    reply_ok (fun _ -> ())
  | Error e -> reply_err e

let h_unlink t sess r =
  let path = R.str r in
  charge_meta t ~scanned:3;
  (* The inode number must be captured before the dirent goes away;
     size 0 in the broadcast sends surviving handles to EOF — the
     blocks return to the bitmap and may be reallocated. *)
  let ino =
    match Fs_image.lookup t.fs path with Ok (ino, _) -> ino | Error _ -> -1
  in
  match Fs_image.unlink t.fs path with
  | Ok () ->
    broadcast_inval t ~except:sess.ident Fs_proto.Inval_both ~ino ~size:0
      ~path;
    (* A caching requester is excluded from its own broadcast; the ino
       in the reply lets it invalidate its own tables locally. *)
    reply_ok (fun w -> if sess.notify <> None then W.u64 w ino)
  | Error e -> reply_err e

let h_readdir t r =
  let path = R.str r in
  let index = R.u64 r in
  match Fs_image.lookup t.fs path with
  | Error e ->
    charge_meta t ~scanned:2;
    reply_err e
  | Ok (ino, scanned) ->
    charge_meta t ~scanned:(scanned + index + 1);
    if not (Fs_image.is_dir t.fs ~ino) then reply_err Errno.E_not_dir
    else begin
      (* getdents-style batching: several entries per message. *)
      match
        Fs_image.readdir_batch t.fs ~dir:ino ~index ~max:Fs_proto.readdir_batch
      with
      | [] -> reply_err Errno.E_not_found
      | entries ->
        reply_ok (fun w ->
            W.u64 w (List.length entries);
            List.iter
              (fun (name, child) ->
                W.str w name;
                W.u64 w child)
              entries)
    end

(* Hot-upgrade barrier.  The generation bump itself is trivial; the
   guarantee is positional: drain answers travel the session channel,
   whose serve loop flushes every pending invalidation broadcast
   before the reply leaves — so once the caller holds the new
   generation number, no registered cache can still owe a flush from
   the old one. *)
let h_drain t _sess =
  charge_meta t ~scanned:1;
  t.gen <- t.gen + 1;
  reply_ok (fun w -> W.u64 w t.gen)

let handle_client t sess r =
  match Fs_proto.op_of_int (R.u8 r) with
  | Some Fs_proto.Fs_open -> h_open t sess r
  | Some Fs_proto.Fs_close -> h_close t sess r
  | Some Fs_proto.Fs_stat -> h_stat t r
  | Some Fs_proto.Fs_mkdir -> h_mkdir t sess r
  | Some Fs_proto.Fs_unlink -> h_unlink t sess r
  | Some Fs_proto.Fs_readdir -> h_readdir t r
  | Some Fs_proto.Fs_drain -> h_drain t sess
  | None -> reply_err Errno.E_inv_args

(* --- kernel-channel operations (session open + cap exchanges) ---------- *)

let perm_rw_int = 3 (* r|w on the wire *)

(* Writes one extent both as reply payload (file offset, byte length)
   and as a capability descriptor for the kernel to derive. *)
let put_extent t w ~file_off_blocks (e : Fs_image.extent) =
  W.u64 w (file_off_blocks * Fs_image.block_size t.fs);
  W.u64 w (e.e_len * Fs_image.block_size t.fs)

let put_cap_descr t w (e : Fs_image.extent) =
  W.u64 w t.image_sel;
  W.u64 w (Fs_image.block_addr t.fs e.e_start);
  W.u64 w (e.e_len * Fs_image.block_size t.fs);
  W.u64 w perm_rw_int

let find_file t sess fid =
  ignore t;
  match Hashtbl.find_opt sess.files fid with
  | Some { fo_ino; _ } -> Ok fo_ino
  | None -> Error Errno.E_not_found

let h_get_locs t sess r =
  let fid = R.u64 r in
  let first = R.u64 r in
  let count = R.u64 r in
  match find_file t sess fid with
  | Error e -> reply_err e
  | Ok ino ->
    let extents = Fs_image.extents t.fs ~ino in
    let rec skip i off = function
      | e :: rest when i > 0 -> skip (i - 1) (off + e.Fs_image.e_len) rest
      | rest -> (off, rest)
    in
    let off_blocks, tail = skip first 0 extents in
    let rec take n = function
      | e :: rest when n > 0 -> e :: take (n - 1) rest
      | _ -> []
    in
    let chosen = take count tail in
    Env.charge t.env Account.Os
      (Cost_model.fs_get_locs * max 1 (List.length chosen));
    if chosen = [] then reply_err Errno.E_not_found
    else begin
      let out = W.create () in
      W.u64 out (List.length chosen);
      let off = ref off_blocks in
      List.iter
        (fun e ->
          put_extent t out ~file_off_blocks:!off e;
          off := !off + e.Fs_image.e_len)
        chosen;
      reply_ok (fun w ->
          W.bytes w (W.contents out);
          W.u64 w (List.length chosen);
          List.iter (fun e -> put_cap_descr t w e) chosen)
    end

let h_append t sess r =
  let fid = R.u64 r in
  let blocks = R.u64 r in
  match find_file t sess fid with
  | Error e -> reply_err e
  | Ok ino ->
    Env.charge t.env Account.Os Cost_model.fs_append;
    let off_blocks =
      List.fold_left (fun acc e -> acc + e.Fs_image.e_len) 0
        (Fs_image.extents t.fs ~ino)
    in
    (match Fs_image.append_extent t.fs ~ino ~blocks with
    | Error e -> reply_err e
    | Ok e ->
      (* Zero blocks are prepared by the DTU in the background (§5.4),
         so no zeroing cost appears here. Other sessions caching this
         file learn the allocation moved under them; the size they
         receive is still the committed one — data only becomes
         visible at the writer's close. *)
      broadcast_inval t ~except:sess.ident Fs_proto.Inval_ino ~ino
        ~size:(Fs_image.file_size t.fs ~ino)
        ~path:"";
      let out = W.create () in
      W.u64 out 1;
      put_extent t out ~file_off_blocks:off_blocks e;
      reply_ok (fun w ->
          W.bytes w (W.contents out);
          W.u64 w 1;
          put_cap_descr t w e))

(* Revalidation by fid: a client whose cached size may be stale (after
   a notification gap flushed its cache) asks for the current committed
   size without a path walk. Exchange-channel reply shape: payload
   bytes + zero capabilities. *)
let h_fstat t sess r =
  let fid = R.u64 r in
  match find_file t sess fid with
  | Error e -> reply_err e
  | Ok ino ->
    Env.charge t.env Account.Os Cost_model.fs_meta_op;
    let out = W.create () in
    W.u64 out (Fs_image.file_size t.fs ~ino);
    reply_ok (fun w ->
        W.bytes w (W.contents out);
        W.u64 w 0)

(* The client delegated a send gate to us via [delegate_sess] and now
   tells us which service-side selector it landed at. The capability
   is a child of the client's, so a dead client takes it down with
   itself — no watchdog needed here. *)
let h_reg_notify t sess r =
  let sel = R.u64 r in
  Env.charge t.env Account.Os Cost_model.fs_meta_op;
  sess.notify <- Some { n_gate = Gate.send_gate_of_sel sel; n_seq = 0 };
  reply_ok (fun w ->
      W.bytes w Bytes.empty;
      W.u64 w 0)

let handle_kernel t r =
  match Proto.srv_opcode_of_int (R.u8 r) with
  | Some Proto.Srv_open ->
    let _arg = R.u64 r in
    let ident = Int64.of_int (Hashtbl.length t.sessions + 1) in
    Hashtbl.replace t.sessions ident
      { ident; files = Hashtbl.create 8; next_fid = 1; notify = None };
    Env.charge t.env Account.Os Cost_model.fs_meta_op;
    reply_ok (fun w -> W.i64 w ident)
  | Some Proto.Srv_exchange -> (
    let ident = R.i64 r in
    let args = R.bytes r in
    match Hashtbl.find_opt t.sessions ident with
    | None -> reply_err Errno.E_not_found
    | Some sess -> (
      let xr = R.of_bytes args in
      match Fs_proto.xop_of_int (R.u8 xr) with
      | Some Fs_proto.Fs_get_locs -> h_get_locs t sess xr
      | Some Fs_proto.Fs_append -> h_append t sess xr
      | Some Fs_proto.Fs_fstat -> h_fstat t sess xr
      | Some Fs_proto.Fs_reg_notify -> h_reg_notify t sess xr
      | None -> reply_err Errno.E_inv_args))
  | Some Proto.Srv_client_gone -> (
    let ident = R.i64 r in
    match Hashtbl.find_opt t.sessions ident with
    | None -> reply_err Errno.E_not_found
    | Some sess ->
      (* The client died without closing: roll every open file back to
         its open-time size, returning blocks it appended but never
         committed, then reap the session. Fids sorted so the reclaim
         order is deterministic. *)
      let fids = Hashtbl.fold (fun fid _ acc -> fid :: acc) sess.files [] in
      List.iter
        (fun fid ->
          let { fo_ino; fo_open_size } = Hashtbl.find sess.files fid in
          charge_meta t ~scanned:0;
          Fs_image.truncate t.fs ~ino:fo_ino ~size:fo_open_size)
        (List.sort compare fids);
      Hashtbl.remove t.sessions ident;
      Env.charge t.env Account.Os Cost_model.fs_meta_op;
      reply_ok (fun _ -> ()))
  | Some Proto.Srv_shutdown -> reply_ok (fun _ -> ())
  | None -> reply_err Errno.E_inv_args

(* --- server main ------------------------------------------------------- *)

let main (config : config) (env : Env.t) =
  let mgate, addr =
    Errno.ok_exn (Gate.req_mem env ~size:config.fs_size ~perm:M3_mem.Perm.rw)
  in
  let fs =
    Fs_image.format config.dram ~base:addr ~size:config.fs_size
      ~block_size:config.block_size ~inode_count:config.inode_count
  in
  (* Pre-boot content: the "disk" the benchmarks find at startup. *)
  let rng = M3_sim.Rng.create ~seed:config.seed_rng_seed in
  List.iter
    (fun sd ->
      if sd.sd_dir then ignore (Errno.ok_exn (Fs_image.mkdir fs sd.sd_path))
      else
        ignore
          (Errno.ok_exn
             (Fs_image.seed_file fs ~path:sd.sd_path ~size:sd.sd_size
                ~blocks_per_extent:sd.sd_blocks_per_extent ~rng:(M3_sim.Rng.split rng))))
    config.seed;
  let krgate =
    Errno.ok_exn
      (Gate.create_recv env ~slot_order:Fs_proto.srv_kchannel_order
         ~slot_count:Fs_proto.srv_kchannel_slots)
  in
  let crgate =
    Errno.ok_exn
      (Gate.create_recv env ~slot_order:Fs_proto.srv_msg_order
         ~slot_count:Fs_proto.srv_slots)
  in
  (* Enter [servers] only once the kernel accepted the service name: a
     duplicate-named instance gets [E_exists] back and dies here
     without having clobbered the live instance's entry. *)
  let _srv_sel =
    Errno.ok_exn
      (Syscalls.create_srv env ~name:config.srv_name ~krgate_sel:krgate.rg_sel
         ~crgate_sel:crgate.rg_sel)
  in
  let t =
    {
      env;
      fs;
      image_sel = mgate.Gate.mg_user.Env.eu_sel;
      sessions = Hashtbl.create 8;
      srv_name = config.srv_name;
      pending = [];
      gen = 0;
    }
  in
  Hashtbl.replace (servers env.Env.engine) config.srv_name t;
  Log.debug (fun m ->
      m "%s up: %d blocks" config.srv_name (Fs_image.total_blocks fs));
  let obs = Fabric.obs env.Env.fabric in
  let pe = M3_hw.Pe.id env.Env.pe in
  let rec serve () =
    let which, msg = Gate.recv_any env [ krgate; crgate ] in
    let gate = if which = 0 then krgate else crgate in
    let traced = Obs.enabled obs in
    if traced && config.emit_queue then
      Obs.emit obs
        (Event.Fs_queue
           {
             pe;
             srv = config.srv_name;
             depth = Gate.backlog env krgate + Gate.backlog env crgate;
           });
    let op, session, t0 =
      if not traced then ("", 0, 0)
      else begin
        let op =
          try
            let r = R.of_bytes msg.payload in
            if which = 0 then
              match Proto.srv_opcode_of_int (R.u8 r) with
              | Some Proto.Srv_open -> "srv_open"
              | Some Proto.Srv_exchange -> (
                let _ident = R.i64 r in
                let xr = R.of_bytes (R.bytes r) in
                match Fs_proto.xop_of_int (R.u8 xr) with
                | Some x -> Fs_proto.xop_name x
                | None -> "srv_exchange")
              | Some Proto.Srv_client_gone -> "srv_client_gone"
              | Some Proto.Srv_shutdown -> "srv_shutdown"
              | None -> "unknown"
            else
              match Fs_proto.op_of_int (R.u8 r) with
              | Some o -> Fs_proto.op_name o
              | None -> "unknown"
          with Msgbuf.R.Underflow -> "unknown"
        in
        let session = if which = 0 then 0 else Int64.to_int msg.header.label in
        let t0 = M3_sim.Engine.now env.Env.engine in
        Obs.emit obs (Event.Fs_request { pe; session; op });
        (op, session, t0)
      end
    in
    let answer =
      try
        let r = R.of_bytes msg.payload in
        if which = 0 then handle_kernel t r
        else (
          match Hashtbl.find_opt t.sessions msg.header.label with
          | Some sess -> handle_client t sess r
          | None -> reply_err Errno.E_not_found)
      with Msgbuf.R.Underflow -> reply_err Errno.E_inv_args
    in
    (* Session-channel mutations deliver their invalidations BEFORE
       the reply: the kernel is not involved, so the endpoint
       activation a first send needs cannot deadlock, and a client
       that synchronizes with the mutator (e.g. waits for its exit)
       is guaranteed to have the invalidation in its buffer. *)
    if which = 1 then flush_invals t;
    (match Gate.reply env gate ~slot:msg.slot (W.contents answer) with
    | Ok () -> ()
    | Error e ->
      Log.err (fun m -> m "m3fs reply failed: %s" (Errno.to_string e)));
    if traced then
      Obs.emit obs
        (Event.Fs_response
           { pe; session; op; cycles = M3_sim.Engine.now env.Env.engine - t0 });
    (* Exchange-channel mutations (append) must defer theirs to here:
       during the exchange the kernel is blocked on our reply, so a
       send needing an activate syscall would deadlock. The committed
       size only changes at close (session channel), so the weaker
       ordering is safe. *)
    flush_invals t;
    serve ()
  in
  serve ()

let program config =
  { Program.prog_main = main config; prog_image_bytes = 24 * 1024 }
