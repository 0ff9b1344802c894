type t =
  | Dtu_send of {
      pe : int;
      ep : int;
      dst_pe : int;
      dst_ep : int;
      bytes : int;
      msg : int;
      reply : bool;
    }
  | Dtu_receive of { pe : int; ep : int; src_pe : int; bytes : int; msg : int }
  | Dtu_drop of { pe : int; ep : int; src_pe : int; msg : int; reason : string }
  | Dtu_read of { pe : int; mem_pe : int; bytes : int; msg : int }
  | Dtu_write of { pe : int; mem_pe : int; bytes : int; msg : int }
  | Noc_xfer of {
      src : int;
      dst : int;
      bytes : int;
      depart : int;
      arrive : int;
      msg : int;
    }
  | Noc_link of {
      link_src : int;
      link_dst : int;
      enter : int;
      leave : int;
      queued : int;
      msg : int;
    }
  | Syscall_enter of { pe : int; vpe : int; op : string }
  | Syscall_exit of { pe : int; vpe : int; op : string; ok : bool; cycles : int }
  | Fs_request of { pe : int; session : int; op : string }
  | Fs_response of { pe : int; session : int; op : string; cycles : int }
  | Fs_shard of { pe : int; shard : int; srv : string }
  | Fs_queue of { pe : int; srv : string; depth : int }
  | Fs_cache_hit of { pe : int; kind : string }
  | Fs_cache_miss of { pe : int; kind : string }
  | Fs_cache_inval of { pe : int; kind : string }
  | Fs_cache_flush of { pe : int; gen : int; reason : string }
  | Fs_inval_send of { pe : int; srv : string; session : int; kind : string }
  | Vpe_create of { vpe : int; pe : int; name : string }
  | Vpe_start of { vpe : int; pe : int; name : string }
  | Vpe_exit of { vpe : int; pe : int; code : int }
  | Pipe_push of { vpe : int; pe : int; bytes : int }
  | Pipe_pop of { vpe : int; pe : int; bytes : int }
  | Pe_spawn of { pe : int; name : string }
  | Pe_halt of { pe : int }
  | Fault_drop of { src : int; dst : int; bytes : int; msg : int }
  | Dtu_nack of { pe : int; ep : int; dst_pe : int; msg : int; reason : string }
  | Dtu_retry of { pe : int; dst_pe : int; msg : int; attempt : int; backoff : int }
  | Fault_pe_crash of { pe : int }
  | Vpe_crash of { vpe : int; pe : int }
  | Vpe_abort of { vpe : int; pe : int; reason : string }
  | Vpe_restart of { vpe : int; pe : int; name : string; attempt : int }
  | Kernel_heartbeat of { pe : int; probed : int; dead : int }
  | Serve_admit of { pe : int; pool : string; seq : int; depth : int }
  | Serve_reject of { pe : int; pool : string; seq : int; depth : int }
  | Serve_batch of { pe : int; pool : string; worker : int; size : int }
  | Serve_done of { pe : int; pool : string; seq : int; cycles : int }
  | Serve_restart of { pe : int; pool : string; worker : int; attempt : int }
  | Vpe_suspend of { vpe : int; pe : int; bytes : int }
  | Vpe_resume of { vpe : int; pe : int; from_pe : int }
  | Pool_scale of { pe : int; pool : string; dir : int; active : int }
  | Gw_throttle of { pe : int; pool : string; client : int; seq : int }
  | Gw_break of { pe : int; pool : string; worker : int; phase : string }
  | Gw_upgrade of { pe : int; pool : string; target : string; cycles : int }
  | Kv_op of { pe : int; store : string; op : string; bucket : int; dup : bool }

let name = function
  | Dtu_send { reply = false; _ } -> "dtu.send"
  | Dtu_send { reply = true; _ } -> "dtu.reply"
  | Dtu_receive _ -> "dtu.receive"
  | Dtu_drop _ -> "dtu.drop"
  | Dtu_read _ -> "dtu.read"
  | Dtu_write _ -> "dtu.write"
  | Noc_xfer _ -> "noc.xfer"
  | Noc_link _ -> "noc.link"
  | Syscall_enter _ -> "syscall.enter"
  | Syscall_exit _ -> "syscall.exit"
  | Fs_request _ -> "fs.request"
  | Fs_response _ -> "fs.response"
  | Fs_shard _ -> "fs.shard.resolve"
  | Fs_queue _ -> "fs.shard.queue"
  | Fs_cache_hit _ -> "fs.cache.hit"
  | Fs_cache_miss _ -> "fs.cache.miss"
  | Fs_cache_inval _ -> "fs.cache.inval"
  | Fs_cache_flush _ -> "fs.cache.flush"
  | Fs_inval_send _ -> "fs.inval.send"
  | Vpe_create _ -> "vpe.create"
  | Vpe_start _ -> "vpe.start"
  | Vpe_exit _ -> "vpe.exit"
  | Pipe_push _ -> "pipe.push"
  | Pipe_pop _ -> "pipe.pop"
  | Pe_spawn _ -> "pe.spawn"
  | Pe_halt _ -> "pe.halt"
  | Fault_drop _ -> "fault.drop"
  | Dtu_nack _ -> "dtu.nack"
  | Dtu_retry _ -> "dtu.retry"
  | Fault_pe_crash _ -> "fault.pe_crash"
  | Vpe_crash _ -> "vpe.crash"
  | Vpe_abort _ -> "vpe.abort"
  | Vpe_restart _ -> "vpe.restart"
  | Kernel_heartbeat _ -> "kernel.heartbeat"
  | Serve_admit _ -> "serve.admit"
  | Serve_reject _ -> "serve.reject"
  | Serve_batch _ -> "serve.batch"
  | Serve_done _ -> "serve.done"
  | Serve_restart _ -> "serve.restart"
  | Vpe_suspend _ -> "vpe.suspend"
  | Vpe_resume _ -> "vpe.resume"
  | Pool_scale _ -> "pool.scale"
  | Gw_throttle _ -> "gw.throttle"
  | Gw_break { phase; _ } -> "gw.break." ^ phase
  | Gw_upgrade _ -> "gw.upgrade"
  | Kv_op { op; _ } -> "kv." ^ op

let pp ppf t =
  let f fmt = Format.fprintf ppf fmt in
  match t with
  | Dtu_send { pe; ep; dst_pe; dst_ep; bytes; msg; reply } ->
    f "%s pe%d.ep%d -> pe%d.ep%d bytes=%d msg=%d"
      (if reply then "dtu.reply" else "dtu.send")
      pe ep dst_pe dst_ep bytes msg
  | Dtu_receive { pe; ep; src_pe; bytes; msg } ->
    f "dtu.receive pe%d.ep%d <- pe%d bytes=%d msg=%d" pe ep src_pe bytes msg
  | Dtu_drop { pe; ep; src_pe; msg; reason } ->
    f "dtu.drop pe%d.ep%d <- pe%d msg=%d (%s)" pe ep src_pe msg reason
  | Dtu_read { pe; mem_pe; bytes; msg } ->
    f "dtu.read pe%d <- pe%d bytes=%d msg=%d" pe mem_pe bytes msg
  | Dtu_write { pe; mem_pe; bytes; msg } ->
    f "dtu.write pe%d -> pe%d bytes=%d msg=%d" pe mem_pe bytes msg
  | Noc_xfer { src; dst; bytes; depart; arrive; msg } ->
    f "noc.xfer %d -> %d bytes=%d depart=%d arrive=%d msg=%d" src dst bytes
      depart arrive msg
  | Noc_link { link_src; link_dst; enter; leave; queued; msg } ->
    f "noc.link %d -> %d enter=%d leave=%d queued=%d msg=%d" link_src link_dst
      enter leave queued msg
  | Syscall_enter { pe; vpe; op } -> f "syscall.enter pe%d vpe%d %s" pe vpe op
  | Syscall_exit { pe; vpe; op; ok; cycles } ->
    f "syscall.exit pe%d vpe%d %s %s cycles=%d" pe vpe op
      (if ok then "ok" else "err")
      cycles
  | Fs_request { pe; session; op } -> f "fs.request pe%d sess%d %s" pe session op
  | Fs_response { pe; session; op; cycles } ->
    f "fs.response pe%d sess%d %s cycles=%d" pe session op cycles
  | Fs_shard { pe; shard; srv } -> f "fs.shard.resolve pe%d -> %s[%d]" pe srv shard
  | Fs_queue { pe; srv; depth } -> f "fs.shard.queue pe%d %s depth=%d" pe srv depth
  | Fs_cache_hit { pe; kind } -> f "fs.cache.hit pe%d %s" pe kind
  | Fs_cache_miss { pe; kind } -> f "fs.cache.miss pe%d %s" pe kind
  | Fs_cache_inval { pe; kind } -> f "fs.cache.inval pe%d %s" pe kind
  | Fs_cache_flush { pe; gen; reason } ->
    f "fs.cache.flush pe%d gen=%d (%s)" pe gen reason
  | Fs_inval_send { pe; srv; session; kind } ->
    f "fs.inval.send pe%d %s sess%d %s" pe srv session kind
  | Vpe_create { vpe; pe; name } -> f "vpe.create vpe%d pe%d %s" vpe pe name
  | Vpe_start { vpe; pe; name } -> f "vpe.start vpe%d pe%d %s" vpe pe name
  | Vpe_exit { vpe; pe; code } -> f "vpe.exit vpe%d pe%d code=%d" vpe pe code
  | Pipe_push { vpe; pe; bytes } -> f "pipe.push vpe%d pe%d bytes=%d" vpe pe bytes
  | Pipe_pop { vpe; pe; bytes } -> f "pipe.pop vpe%d pe%d bytes=%d" vpe pe bytes
  | Pe_spawn { pe; name } -> f "pe.spawn pe%d %s" pe name
  | Pe_halt { pe } -> f "pe.halt pe%d" pe
  | Fault_drop { src; dst; bytes; msg } ->
    f "fault.drop %d -> %d bytes=%d msg=%d (drop)" src dst bytes msg
  | Dtu_nack { pe; ep; dst_pe; msg; reason } ->
    f "dtu.nack pe%d.ep%d <- pe%d msg=%d (%s)" pe ep dst_pe msg reason
  | Dtu_retry { pe; dst_pe; msg; attempt; backoff } ->
    f "dtu.retry pe%d -> pe%d msg=%d attempt=%d backoff=%d" pe dst_pe msg attempt
      backoff
  | Fault_pe_crash { pe } -> f "fault.pe_crash pe%d" pe
  | Vpe_crash { vpe; pe } -> f "vpe.crash vpe%d pe%d" vpe pe
  | Vpe_abort { vpe; pe; reason } -> f "vpe.abort vpe%d pe%d (%s)" vpe pe reason
  | Vpe_restart { vpe; pe; name; attempt } ->
    f "vpe.restart vpe%d pe%d %s attempt=%d" vpe pe name attempt
  | Kernel_heartbeat { pe; probed; dead } ->
    f "kernel.heartbeat pe%d probed=%d dead=%d" pe probed dead
  | Serve_admit { pe; pool; seq; depth } ->
    f "serve.admit pe%d %s seq=%d depth=%d" pe pool seq depth
  | Serve_reject { pe; pool; seq; depth } ->
    f "serve.reject pe%d %s seq=%d depth=%d" pe pool seq depth
  | Serve_batch { pe; pool; worker; size } ->
    f "serve.batch pe%d %s worker=%d size=%d" pe pool worker size
  | Serve_done { pe; pool; seq; cycles } ->
    f "serve.done pe%d %s seq=%d cycles=%d" pe pool seq cycles
  | Serve_restart { pe; pool; worker; attempt } ->
    f "serve.restart pe%d %s worker=%d attempt=%d" pe pool worker attempt
  | Vpe_suspend { vpe; pe; bytes } ->
    f "vpe.suspend vpe%d pe%d bytes=%d" vpe pe bytes
  | Vpe_resume { vpe; pe; from_pe } ->
    f "vpe.resume vpe%d pe%d from=%d" vpe pe from_pe
  | Pool_scale { pe; pool; dir; active } ->
    f "pool.scale pe%d %s %s active=%d" pe pool
      (if dir > 0 then "up" else "down")
      active
  | Gw_throttle { pe; pool; client; seq } ->
    f "gw.throttle pe%d %s client=%d seq=%d" pe pool client seq
  | Gw_break { pe; pool; worker; phase } ->
    f "gw.break.%s pe%d %s worker=%d" phase pe pool worker
  | Gw_upgrade { pe; pool; target; cycles } ->
    f "gw.upgrade pe%d %s %s cycles=%d" pe pool target cycles
  | Kv_op { pe; store; op; bucket; dup } ->
    f "kv.%s pe%d %s b%d%s" op pe store bucket (if dup then " dup" else "")

let to_string t = Format.asprintf "%a" pp t
