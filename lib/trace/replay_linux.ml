module Machine = M3_linux.Machine

let apply_seeds machine seeds =
  let fs = Machine.fs machine in
  List.iter
    (fun sd ->
      if sd.M3.M3fs.sd_dir then ignore (M3_linux.Tmpfs.mkdir fs sd.M3.M3fs.sd_path)
      else begin
        ignore (M3_linux.Tmpfs.create_file fs sd.M3.M3fs.sd_path);
        M3_linux.Tmpfs.set_file_size fs sd.M3.M3fs.sd_path sd.M3.M3fs.sd_size
      end)
    seeds

let max_slots = 8

(* Read/write chunk: 4 KiB, the sweet spot on Linux (§5.4). *)
let buf_size = 4096

let run machine trace =
  let slots = Array.make max_slots None in
  let slot i = Option.get slots.(i) in
  let step = function
    | Trace.T_open { slot = i; path; write = _; create; trunc } ->
      slots.(i) <- Machine.open_file machine path ~create ~trunc
    | Trace.T_read { slot = i; len } ->
      let fd = slot i in
      let rec drain remaining =
        if remaining > 0 then begin
          let n = Machine.read machine fd (min buf_size remaining) in
          if n > 0 then drain (remaining - n)
        end
      in
      drain len
    | Trace.T_write { slot = i; len } ->
      let fd = slot i in
      let rec fill remaining =
        if remaining > 0 then begin
          let chunk = min buf_size remaining in
          ignore (Machine.write machine fd chunk);
          fill (remaining - chunk)
        end
      in
      fill len
    | Trace.T_sendfile { dst; src; len } ->
      ignore (Machine.sendfile machine ~dst:(slot dst) ~src:(slot src) len)
    | Trace.T_seek { slot = i; pos } -> Machine.seek machine (slot i) pos
    | Trace.T_close { slot = i } ->
      Machine.close machine (slot i);
      slots.(i) <- None
    | Trace.T_stat { path } -> ignore (Machine.stat machine path)
    | Trace.T_mkdir path -> ignore (Machine.mkdir machine path)
    | Trace.T_unlink path -> ignore (Machine.unlink machine path)
    | Trace.T_readdir { path; entries = _ } ->
      ignore (Machine.readdir machine path)
    | Trace.T_compute cycles -> Machine.compute machine cycles
  in
  List.iter step trace
