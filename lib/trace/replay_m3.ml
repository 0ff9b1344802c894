module Account = M3_sim.Account
module Env = M3.Env
module Errno = M3.Errno
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

let max_slots = 8

(* Transfer buffer in the SPM: 4 KiB like the Linux runs. *)
let buf_size = 4096

let run env trace =
  let buf = Env.alloc_spm env ~size:buf_size in
  let slots = Array.make max_slots None in
  let slot i =
    match slots.(i) with
    | Some f -> Ok f
    | None -> Error Errno.E_inv_args
  in
  let open_flags ~write ~create ~trunc =
    (if write then Fs_proto.o_write else Fs_proto.o_read)
    lor (if create then Fs_proto.o_create else 0)
    lor if trunc then Fs_proto.o_trunc else 0
  in
  let rec copy ~dst ~src remaining =
    if remaining <= 0 then Ok ()
    else
      let* n = File.read env src ~local:buf ~len:(min buf_size remaining) in
      if n = 0 then Ok () (* source exhausted *)
      else
        let* () = File.write env dst ~local:buf ~len:n in
        copy ~dst ~src (remaining - n)
  in
  let step op =
    match op with
    | Trace.T_open { slot = i; path; write; create; trunc } ->
      let* f = Vfs.open_ env path ~flags:(open_flags ~write ~create ~trunc) in
      slots.(i) <- Some f;
      Ok ()
    | Trace.T_read { slot = i; len } ->
      let* f = slot i in
      let rec drain remaining =
        if remaining <= 0 then Ok ()
        else
          let* n = File.read env f ~local:buf ~len:(min buf_size remaining) in
          if n = 0 then Ok () else drain (remaining - n)
      in
      drain len
    | Trace.T_write { slot = i; len } ->
      let* f = slot i in
      let rec fill remaining =
        if remaining <= 0 then Ok ()
        else
          let chunk = min buf_size remaining in
          let* () = File.write env f ~local:buf ~len:chunk in
          fill (remaining - chunk)
      in
      fill len
    | Trace.T_sendfile { dst; src; len } ->
      let* d = slot dst in
      let* s = slot src in
      copy ~dst:d ~src:s len
    | Trace.T_seek { slot = i; pos } ->
      let* f = slot i in
      File.seek env f pos
    | Trace.T_close { slot = i } ->
      let* f = slot i in
      slots.(i) <- None;
      File.close env f
    | Trace.T_stat { path } ->
      let* _st = Vfs.stat env path in
      Ok ()
    | Trace.T_mkdir path -> Vfs.mkdir env path
    | Trace.T_unlink path -> Vfs.unlink env path
    | Trace.T_readdir { path; entries = _ } ->
      (* m3fs serves one entry per request; walk until the end. *)
      let rec walk index =
        let* entry = Vfs.readdir env path ~index in
        match entry with None -> Ok () | Some _ -> walk (index + 1)
      in
      walk 0
    | Trace.T_compute cycles ->
      Env.charge env Account.App cycles;
      Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | op :: rest ->
      let* () = step op in
      go rest
  in
  go trace
