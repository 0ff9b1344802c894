(* Chrome trace-event JSON ("JSON Array Format" with legacy flow
   events), loadable in chrome://tracing and https://ui.perfetto.dev.

   Track layout: one pid per PE (plus one pid for the NoC), a tid per
   VPE (syscall/pipe slices), per DTU endpoint (send/receive markers)
   and per m3fs session, and a tid per directed NoC link. DTU message
   ids become flow arrows send -> NoC transfer -> receive. Several
   simulations can share one exporter (the harness boots a fresh
   system per benchmark); [begin_run] opens a new pid namespace. *)

let noc_node = 999 (* pid slot of the NoC pseudo-process within a run *)
let tid_core = 99
let tid_ep_base = 100
let tid_mem = 150
let tid_sess_base = 200

type t = {
  buf : Buffer.t;
  mutable first : bool;
  mutable run_base : int;
  mutable runs : int;
  named : (int * int, unit) Hashtbl.t; (* (pid, tid) with metadata out *)
  named_pids : (int, unit) Hashtbl.t;
}

let create () =
  {
    buf = Buffer.create 65536;
    first = true;
    run_base = 0;
    runs = 0;
    named = Hashtbl.create 64;
    named_pids = Hashtbl.create 16;
  }

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [fields] are preformatted ["key":value] JSON members. *)
let raw t fields =
  if t.first then t.first <- false else Buffer.add_char t.buf ',';
  Buffer.add_char t.buf '{';
  Buffer.add_string t.buf (String.concat "," fields);
  Buffer.add_string t.buf "}\n"

let str k v = Printf.sprintf "\"%s\":\"%s\"" k (escape v)
let int k v = Printf.sprintf "\"%s\":%d" k v

let meta t ~pid ~tid ~which ~name =
  raw t
    [ str "ph" "M"; str "name" which; int "pid" pid; int "tid" tid;
      Printf.sprintf "\"args\":{%s}" (str "name" name) ]

let ensure_pid t pid ~name =
  if not (Hashtbl.mem t.named_pids pid) then begin
    Hashtbl.add t.named_pids pid ();
    meta t ~pid ~tid:0 ~which:"process_name" ~name
  end

let ensure_tid t pid tid ~name =
  if not (Hashtbl.mem t.named (pid, tid)) then begin
    Hashtbl.add t.named (pid, tid) ();
    meta t ~pid ~tid ~which:"thread_name" ~name
  end

let pe_pid t pe =
  let pid = t.run_base + pe in
  ensure_pid t pid ~name:(Printf.sprintf "run%d/pe%d" (t.run_base / 1000) pe);
  pid

let noc_pid t =
  let pid = t.run_base + noc_node in
  ensure_pid t pid ~name:(Printf.sprintf "run%d/noc" (t.run_base / 1000));
  pid

let vpe_tid t pid vpe =
  ensure_tid t pid vpe ~name:(Printf.sprintf "vpe%d" vpe);
  vpe

let ep_tid t pid ep =
  let tid = tid_ep_base + ep in
  ensure_tid t pid tid ~name:(Printf.sprintf "ep%d" ep);
  tid

let begin_run t =
  t.run_base <- t.runs * 1000;
  t.runs <- t.runs + 1

let flow_id t msg = (t.run_base * 1_000_000) + msg

(* A tiny slice rather than an instant, so flow arrows have something
   to bind to in Perfetto's legacy-JSON importer. *)
let marker t ~pid ~tid ~at ~name ~cat args =
  raw t
    ([ str "ph" "X"; str "name" name; str "cat" cat; int "ts" at; int "dur" 1;
       int "pid" pid; int "tid" tid ]
    @ args)

let slice t ~pid ~tid ~ts ~dur ~name ~cat args =
  raw t
    ([ str "ph" "X"; str "name" name; str "cat" cat; int "ts" ts;
       int "dur" (max 1 dur); int "pid" pid; int "tid" tid ]
    @ args)

let flow t ~ph ~pid ~tid ~at ~msg extra =
  raw t
    ([ str "ph" ph; str "name" "msg"; str "cat" "dtu"; int "ts" at;
       int "pid" pid; int "tid" tid; int "id" (flow_id t msg) ]
    @ extra)

let args_of kvs =
  [ Printf.sprintf "\"args\":{%s}"
      (String.concat "," (List.map (fun (k, v) -> int k v) kvs)) ]

let record t ~at (ev : Event.t) =
  match ev with
  | Event.Dtu_send { pe; ep; dst_pe; dst_ep; bytes; msg; reply } ->
    let pid = pe_pid t pe in
    let tid = ep_tid t pid ep in
    marker t ~pid ~tid ~at
      ~name:(if reply then "reply" else "send")
      ~cat:"dtu"
      (args_of
         [ ("dst_pe", dst_pe); ("dst_ep", dst_ep); ("bytes", bytes);
           ("msg", msg) ]);
    if msg <> 0 then flow t ~ph:"s" ~pid ~tid ~at ~msg []
  | Event.Dtu_receive { pe; ep; src_pe; bytes; msg } ->
    let pid = pe_pid t pe in
    let tid = ep_tid t pid ep in
    marker t ~pid ~tid ~at ~name:"receive" ~cat:"dtu"
      (args_of [ ("src_pe", src_pe); ("bytes", bytes); ("msg", msg) ]);
    if msg <> 0 then flow t ~ph:"f" ~pid ~tid ~at ~msg [ str "bp" "e" ]
  | Event.Dtu_drop { pe; ep; src_pe; msg; reason } ->
    let pid = pe_pid t pe in
    let tid = ep_tid t pid ep in
    marker t ~pid ~tid ~at ~name:("drop:" ^ reason) ~cat:"dtu"
      (args_of [ ("src_pe", src_pe); ("msg", msg) ])
  | Event.Dtu_read { pe; mem_pe; bytes; msg } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_mem ~name:"dtu.mem";
    marker t ~pid ~tid:tid_mem ~at ~name:"mem.read" ~cat:"dtu"
      (args_of [ ("mem_pe", mem_pe); ("bytes", bytes); ("msg", msg) ]);
    if msg <> 0 then flow t ~ph:"s" ~pid ~tid:tid_mem ~at ~msg []
  | Event.Dtu_write { pe; mem_pe; bytes; msg } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_mem ~name:"dtu.mem";
    marker t ~pid ~tid:tid_mem ~at ~name:"mem.write" ~cat:"dtu"
      (args_of [ ("mem_pe", mem_pe); ("bytes", bytes); ("msg", msg) ]);
    if msg <> 0 then flow t ~ph:"s" ~pid ~tid:tid_mem ~at ~msg []
  | Event.Noc_xfer { src; dst; bytes; depart; arrive; msg } ->
    let pid = noc_pid t in
    let tid = (src * 100) + dst in
    ensure_tid t pid tid ~name:(Printf.sprintf "xfer %d>%d" src dst);
    slice t ~pid ~tid ~ts:depart ~dur:(arrive - depart) ~name:"xfer" ~cat:"noc"
      (args_of [ ("bytes", bytes); ("msg", msg) ]);
    (* A flow step mid-slice links the sender's arrow through the NoC
       to the receiver. *)
    if msg <> 0 then
      flow t ~ph:"t" ~pid ~tid ~at:((depart + arrive) / 2) ~msg []
  | Event.Noc_link { link_src; link_dst; enter; leave; queued; msg } ->
    let pid = noc_pid t in
    let tid = 10000 + (link_src * 100) + link_dst in
    ensure_tid t pid tid ~name:(Printf.sprintf "link %d>%d" link_src link_dst);
    slice t ~pid ~tid ~ts:enter ~dur:(leave - enter) ~name:"hop" ~cat:"noc"
      (args_of [ ("queued", queued); ("msg", msg) ])
  | Event.Syscall_enter _ -> () (* the exit event carries the slice *)
  | Event.Syscall_exit { pe; vpe; op; ok; cycles } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    slice t ~pid ~tid ~ts:(at - cycles) ~dur:cycles ~name:op ~cat:"syscall"
      (args_of [ ("ok", (if ok then 1 else 0)) ])
  | Event.Fs_request _ -> () (* the response event carries the slice *)
  | Event.Fs_response { pe; session; op; cycles } ->
    let pid = pe_pid t pe in
    let tid = tid_sess_base + session in
    ensure_tid t pid tid ~name:(Printf.sprintf "fs.sess%d" session);
    slice t ~pid ~tid ~ts:(at - cycles) ~dur:cycles ~name:op ~cat:"fs" []
  | Event.Fs_shard { pe; shard; srv } ->
    let pid = pe_pid t pe in
    marker t ~pid ~tid:0 ~at
      ~name:(Printf.sprintf "fs.shard:%s" srv)
      ~cat:"fs"
      (args_of [ ("shard", shard) ])
  | Event.Fs_queue { pe; srv; depth } ->
    let pid = pe_pid t pe in
    marker t ~pid ~tid:0 ~at
      ~name:(Printf.sprintf "fs.queue:%s" srv)
      ~cat:"fs"
      (args_of [ ("depth", depth) ])
  | Event.Fs_cache_hit { pe; kind } ->
    marker t ~pid:(pe_pid t pe) ~tid:0 ~at ~name:("fs.cache.hit:" ^ kind)
      ~cat:"fs" []
  | Event.Fs_cache_miss { pe; kind } ->
    marker t ~pid:(pe_pid t pe) ~tid:0 ~at ~name:("fs.cache.miss:" ^ kind)
      ~cat:"fs" []
  | Event.Fs_cache_inval { pe; kind } ->
    marker t ~pid:(pe_pid t pe) ~tid:0 ~at ~name:("fs.cache.inval:" ^ kind)
      ~cat:"fs" []
  | Event.Fs_cache_flush { pe; gen } ->
    marker t ~pid:(pe_pid t pe) ~tid:0 ~at ~name:"fs.cache.flush:gap"
      ~cat:"fs"
      (args_of [ ("gen", gen) ])
  | Event.Fs_inval_send { pe; srv; session; kind } ->
    let pid = pe_pid t pe in
    let tid = tid_sess_base + session in
    ensure_tid t pid tid ~name:(Printf.sprintf "fs.sess%d" session);
    marker t ~pid ~tid ~at
      ~name:(Printf.sprintf "fs.inval:%s:%s" srv kind)
      ~cat:"fs" []
  | Event.Vpe_create { vpe; pe; name } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:("vpe.create:" ^ name) ~cat:"vpe" []
  | Event.Vpe_start { vpe; pe; name } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:("vpe.start:" ^ name) ~cat:"vpe" []
  | Event.Vpe_exit { vpe; pe; code } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:"vpe.exit" ~cat:"vpe"
      (args_of [ ("code", code) ])
  | Event.Pipe_push { vpe; pe; bytes } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:"pipe.push" ~cat:"pipe"
      (args_of [ ("bytes", bytes) ])
  | Event.Pipe_pop { vpe; pe; bytes } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:"pipe.pop" ~cat:"pipe"
      (args_of [ ("bytes", bytes) ])
  | Event.Pe_spawn { pe; name } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:("spawn:" ^ name) ~cat:"pe" []
  | Event.Pe_halt { pe } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:"halt" ~cat:"pe" []
  | Event.Fault_drop { src; dst; bytes; msg } ->
    let pid = noc_pid t in
    let tid = (src * 100) + dst in
    ensure_tid t pid tid ~name:(Printf.sprintf "xfer %d>%d" src dst);
    marker t ~pid ~tid ~at ~name:"fault.drop:drop" ~cat:"fault"
      (args_of [ ("bytes", bytes); ("msg", msg) ])
  | Event.Dtu_nack { pe; ep; dst_pe; msg; reason } ->
    let pid = pe_pid t pe in
    let tid = ep_tid t pid ep in
    marker t ~pid ~tid ~at ~name:("nack:" ^ reason) ~cat:"dtu"
      (args_of [ ("dst_pe", dst_pe); ("msg", msg) ])
  | Event.Dtu_retry { pe; dst_pe; msg; attempt; backoff } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:"retry" ~cat:"dtu"
      (args_of
         [ ("dst_pe", dst_pe); ("msg", msg); ("attempt", attempt);
           ("backoff", backoff) ])
  | Event.Fault_pe_crash { pe } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:"fault.pe_crash" ~cat:"fault" []
  | Event.Vpe_crash { vpe; pe } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:"vpe.crash" ~cat:"vpe" []
  | Event.Vpe_abort { vpe; pe; reason } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:("vpe.abort:" ^ reason) ~cat:"vpe" []
  | Event.Vpe_restart { vpe; pe; name; attempt } ->
    let pid = pe_pid t pe in
    let tid = vpe_tid t pid vpe in
    marker t ~pid ~tid ~at ~name:("vpe.restart:" ^ name) ~cat:"vpe"
      (args_of [ ("attempt", attempt) ])
  | Event.Kernel_heartbeat { pe; probed; dead } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:"heartbeat" ~cat:"kernel"
      (args_of [ ("probed", probed); ("dead", dead) ])
  | Event.Serve_admit { pe; pool; seq; depth } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:("serve.admit:" ^ pool) ~cat:"serve"
      (args_of [ ("seq", seq); ("depth", depth) ])
  | Event.Serve_reject { pe; pool; seq; depth } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:("serve.reject:" ^ pool) ~cat:"serve"
      (args_of [ ("seq", seq); ("depth", depth) ])
  | Event.Serve_batch { pe; pool; worker; size } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:("serve.batch:" ^ pool) ~cat:"serve"
      (args_of [ ("worker", worker); ("size", size) ])
  | Event.Serve_done { pe; pool; seq; cycles } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    slice t ~pid ~tid:tid_core ~ts:(at - cycles) ~dur:cycles
      ~name:("serve.done:" ^ pool) ~cat:"serve"
      (args_of [ ("seq", seq) ])
  | Event.Serve_restart { pe; pool; worker; attempt } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:("serve.restart:" ^ pool)
      ~cat:"serve"
      (args_of [ ("worker", worker); ("attempt", attempt) ])
  | Event.Vpe_suspend { vpe; pe; bytes } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at
      ~name:(Printf.sprintf "vpe.suspend:vpe%d" vpe)
      ~cat:"sched"
      (args_of [ ("vpe", vpe); ("bytes", bytes) ])
  | Event.Vpe_resume { vpe; pe; from_pe } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at
      ~name:(Printf.sprintf "vpe.resume:vpe%d" vpe)
      ~cat:"sched"
      (args_of [ ("vpe", vpe); ("from_pe", from_pe) ])
  | Event.Pool_scale { pe; pool; dir; active } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at
      ~name:
        (Printf.sprintf "pool.scale:%s:%s" pool (if dir > 0 then "up" else "down"))
      ~cat:"sched"
      (args_of [ ("active", active) ])
  | Event.Gw_throttle { pe; pool; client; seq } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at ~name:("gw.throttle:" ^ pool) ~cat:"serve"
      (args_of [ ("client", client); ("seq", seq) ])
  | Event.Gw_break { pe; pool; worker; phase } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at
      ~name:(Printf.sprintf "gw.break.%s:%s" phase pool)
      ~cat:"serve"
      (args_of [ ("worker", worker) ])
  | Event.Gw_upgrade { pe; pool; target; cycles } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    slice t ~pid ~tid:tid_core ~ts:(at - cycles) ~dur:cycles
      ~name:(Printf.sprintf "gw.upgrade:%s:%s" pool target)
      ~cat:"serve" []
  | Event.Kv_op { pe; store; op; bucket; dup } ->
    let pid = pe_pid t pe in
    ensure_tid t pid tid_core ~name:"core";
    marker t ~pid ~tid:tid_core ~at
      ~name:(Printf.sprintf "kv.%s:%s" op store)
      ~cat:"kv"
      (args_of [ ("bucket", bucket); ("dup", (if dup then 1 else 0)) ])

let sink t =
  { Obs.sink_name = "chrome"; sink_emit = (fun ~at ev -> record t ~at ev) }

let prefix = "{\"traceEvents\":["
let suffix = "],\"displayTimeUnit\":\"ms\"}"

let to_string t = String.concat "" [ prefix; Buffer.contents t.buf; suffix ]

(* Straight from the buffer: a trace of a hundred megabytes is never
   copied into a string. *)
let write_channel t oc =
  output_string oc prefix;
  Buffer.output_buffer oc t.buf;
  output_string oc suffix

let write_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel t oc)
