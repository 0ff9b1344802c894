(** Structured observability events.

    One constructor per instrumentation point in the simulated system.
    Payloads are plain integers and strings so the event layer sits
    below every other library (it depends only on [m3_sim]): PEs,
    endpoints and VPEs are identified by number, syscall and filesystem
    operations by their wire-protocol name.

    [msg] fields carry a bus-unique message id ({!Obs.next_msg}) that
    links a DTU send to its NoC transfer, per-hop link occupancy and
    the eventual receive — the Chrome exporter turns these into flow
    arrows. [msg = 0] means "not correlated" (emission was off when the
    id would have been drawn, or the transfer is untagged kernel
    plumbing). *)

type t =
  | Dtu_send of {
      pe : int;          (** sending PE *)
      ep : int;          (** send endpoint *)
      dst_pe : int;
      dst_ep : int;
      bytes : int;       (** wire size: header + payload *)
      msg : int;
      reply : bool;      (** [true] for DTU reply commands *)
    }
  | Dtu_receive of { pe : int; ep : int; src_pe : int; bytes : int; msg : int }
  | Dtu_drop of { pe : int; ep : int; src_pe : int; msg : int; reason : string }
  | Dtu_read of { pe : int; mem_pe : int; bytes : int; msg : int }
      (** memory-endpoint read: [bytes] pulled from [mem_pe]'s store *)
  | Dtu_write of { pe : int; mem_pe : int; bytes : int; msg : int }
  | Noc_xfer of {
      src : int;
      dst : int;
      bytes : int;       (** payload handed to the fabric *)
      depart : int;      (** cycle the first packet enters the NoC *)
      arrive : int;      (** cycle the last byte reaches [dst] *)
      msg : int;
    }
  | Noc_link of {
      link_src : int;    (** directed link: from this router... *)
      link_dst : int;    (** ...to this one *)
      enter : int;       (** cycle the packet head acquires the link *)
      leave : int;       (** cycle the link is released *)
      queued : int;      (** cycles spent waiting for the link *)
      msg : int;
    }
  | Syscall_enter of { pe : int; vpe : int; op : string }
  | Syscall_exit of { pe : int; vpe : int; op : string; ok : bool; cycles : int }
      (** [cycles] is the client-observed latency since the matching
          [Syscall_enter] *)
  | Fs_request of { pe : int; session : int; op : string }
      (** emitted by the m3fs server; [session] is 0 on the kernel
          channel *)
  | Fs_response of { pe : int; session : int; op : string; cycles : int }
  | Fs_shard of { pe : int; shard : int; srv : string }
      (** client-side: the sharded VFS routed a path to shard [shard]
          (service [srv]) of its mount's ring *)
  | Fs_queue of { pe : int; srv : string; depth : int }
      (** server-side: ringbuffer backlog observed by instance [srv]
          when it picked up a request (emitted only when the instance
          runs with [emit_queue]) *)
  | Fs_cache_hit of { pe : int; kind : string }
      (** client-side mount cache served this lookup; [kind] is
          "attr", "extent", "open" or "dir" *)
  | Fs_cache_miss of { pe : int; kind : string }
  | Fs_cache_inval of { pe : int; kind : string }
      (** client-side: a notification (or local mutation) dropped or
          refreshed cached state; [kind] is the wire kind ("ino",
          "path", "both") or "local" *)
  | Fs_cache_flush of { pe : int; gen : int }
      (** client-side wholesale flush after a notification sequence
          gap; [gen] is the new cache generation *)
  | Fs_inval_send of { pe : int; srv : string; session : int; kind : string }
      (** server-side: m3fs broadcast one invalidation to a registered
          session (attempted — the send may still be dropped) *)
  | Vpe_create of { vpe : int; pe : int; name : string }
  | Vpe_start of { vpe : int; pe : int; name : string }
  | Vpe_exit of { vpe : int; pe : int; code : int }
  | Pipe_push of { vpe : int; pe : int; bytes : int }
  | Pipe_pop of { vpe : int; pe : int; bytes : int }
  | Pe_spawn of { pe : int; name : string }
  | Pe_halt of { pe : int }
  | Fault_drop of { src : int; dst : int; bytes : int; msg : int }
      (** an attached fault plan dropped this transfer in flight *)
  | Dtu_nack of { pe : int; ep : int; dst_pe : int; msg : int; reason : string }
      (** sender-side: delivery to [dst_pe] failed and the send credit
          was refunded (the message may still be retransmitted) *)
  | Dtu_retry of { pe : int; dst_pe : int; msg : int; attempt : int; backoff : int }
      (** sender-side: retransmit number [attempt] scheduled after
          [backoff] cycles *)
  | Fault_pe_crash of { pe : int }
      (** an attached fault plan permanently killed [pe] (core + DTU) *)
  | Vpe_crash of { vpe : int; pe : int }
      (** the kernel heartbeat prober found this VPE's PE dead *)
  | Vpe_abort of { vpe : int; pe : int; reason : string }
      (** the kernel aborted the VPE and reclaimed its resources *)
  | Vpe_restart of { vpe : int; pe : int; name : string; attempt : int }
      (** a supervisor relaunched a crashed program; [vpe]/[pe] are the
          replacement's, [attempt] counts restarts (1-based) *)
  | Kernel_heartbeat of { pe : int; probed : int; dead : int }
      (** one prober sweep from the kernel on [pe]: [probed] running
          VPEs pinged, [dead] of them found unresponsive *)
  | Serve_admit of { pe : int; pool : string; seq : int; depth : int }
      (** dispatcher admitted request [seq] with [depth] requests
          already queued or in flight *)
  | Serve_reject of { pe : int; pool : string; seq : int; depth : int }
      (** admission control turned request [seq] away with
          [E_overload]; [depth] is the queue depth that tripped the
          watermark *)
  | Serve_batch of { pe : int; pool : string; worker : int; size : int }
      (** dispatcher coalesced [size] requests into one DTU message to
          worker [worker] *)
  | Serve_done of { pe : int; pool : string; seq : int; cycles : int }
      (** request [seq] completed; [cycles] is dispatcher-observed
          latency from admission to worker reply *)
  | Serve_restart of { pe : int; pool : string; worker : int; attempt : int }
      (** the dispatcher's watchdog replaced crashed worker [worker];
          [pe] is the replacement's PE *)
  | Vpe_suspend of { vpe : int; pe : int; bytes : int }
      (** the scheduler captured this VPE's state off [pe]; [bytes] is
          the SPM image size pulled over the NoC *)
  | Vpe_resume of { vpe : int; pe : int; from_pe : int }
      (** the scheduler placed the VPE on [pe]. [from_pe] is the PE it
          was suspended on (equal to [pe] for an in-place resume). *)
  | Pool_scale of { pe : int; pool : string; dir : int; active : int }
      (** an elastic pool grew ([dir = +1]) or shrank ([dir = -1]) its
          worker set; [active] is the new live-worker count *)
  | Gw_throttle of { pe : int; pool : string; client : int; seq : int }
      (** the gateway's token bucket shed request [seq] from [client]
          with [E_throttled] — the request was never enqueued *)
  | Gw_break of { pe : int; pool : string; worker : int; phase : string }
      (** circuit-breaker transition on worker seat [worker]; [phase]
          is "trip" (Closed/Half-open → Open), "probe" (Open →
          Half-open, one probe request in flight) or "close" (probe
          succeeded).  The event name is [gw.break.<phase>]. *)
  | Gw_upgrade of { pe : int; pool : string; target : string; cycles : int }
      (** a planned hot upgrade committed: [target] names the swapped
          unit (["worker<i>"] or an m3fs service), [cycles] is the
          swap latency from drain start to the new generation serving *)
  | Kv_op of { pe : int; store : string; op : string; bucket : int; dup : bool }
      (** store [store] executed a KV operation ([op] "get" or
          "put") against bucket directory [bucket];
          [dup] marks a put skipped by the exactly-once dedup header.
          The event name is [kv.<op>]. *)

(** [name t] is the stable dotted kind name, e.g. ["dtu.send"]. *)
val name : t -> string

(** Stable, deterministic rendering — the determinism test compares
    byte-for-byte. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
