module Engine = M3_sim.Engine
module Obs = M3_obs.Obs
module Event = M3_obs.Event

type link = {
  link_src : int;
  link_dst : int;
  mutable free_at : int;
  mutable busy : int;
}

type mode =
  [ `Packet
  | `Wormhole
  ]

type config = {
  hop_latency : int;
  bytes_per_cycle : int;
  max_packet : int;
  mode : mode;
}

let default_config =
  { hop_latency = 3; bytes_per_cycle = 8; max_packet = 1024; mode = `Packet }

(* Per-packet header: route / flow-control information on the wire. *)
let packet_header_bytes = 8

type t = {
  engine : Engine.t;
  topology : Topology.t;
  config : config;
  links : (int * int, link) Hashtbl.t;
  (* The route from [src] to [dst] at [src * nodes + dst], built on
     its first transfer; [[||]] until then. *)
  routes : link array array;
  mutable packets : int;
  mutable bytes : int;
  (* Observability bus; the fabric is reachable from every layer, so
     this is where the whole system finds its bus. Obs.null when off. *)
  mutable obs : Obs.t;
  (* Fault plan, same pattern: the fabric is the system-wide rendezvous
     for the injection layer. Plan.none when off. *)
  mutable faults : M3_fault.Plan.t;
}

let create engine topology ~config =
  if config.hop_latency < 0 || config.bytes_per_cycle <= 0
     || config.max_packet <= 0
  then invalid_arg "Fabric.create: bad config";
  {
    engine;
    topology;
    config;
    links = Hashtbl.create 64;
    routes =
      (let n = Topology.node_count topology in
       Array.make (n * n) [||]);
    packets = 0;
    bytes = 0;
    obs = Obs.null;
    faults = M3_fault.Plan.none;
  }

let topology t = t.topology
let engine t = t.engine
let config t = t.config
let obs t = t.obs
let set_obs t obs = t.obs <- obs
let faults t = t.faults
let set_faults t plan = t.faults <- plan

let link t ((link_src, link_dst) as key) =
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let l = { link_src; link_dst; free_at = 0; busy = 0 } in
    Hashtbl.add t.links key l;
    l

(* The links from [src] to [dst <> src], in path order. An
   out-of-range node raises in [Topology.route]. *)
let route t ~src ~dst =
  let n = Topology.node_count t.topology in
  let cached =
    if src >= 0 && src < n && dst >= 0 && dst < n then
      t.routes.((src * n) + dst)
    else [||]
  in
  if Array.length cached > 0 then cached
  else begin
    let r =
      Array.of_list (List.map (link t) (Topology.route t.topology ~src ~dst))
    in
    t.routes.((src * n) + dst) <- r;
    r
  end

let serialization t bytes =
  max 1 ((bytes + t.config.bytes_per_cycle - 1) / t.config.bytes_per_cycle)

(* Packet switching: claims each link of the route in order, respecting
   current occupancy, and returns the arrival time of its tail. *)
let send_packet_store_forward t ~route ~bytes ~msg ~depart =
  let ser = serialization t (bytes + packet_header_bytes) in
  let head = ref depart in
  for i = 0 to Array.length route - 1 do
    let l = route.(i) in
    let ideal = !head + t.config.hop_latency in
    let enter = max ideal l.free_at in
    l.free_at <- enter + ser;
    l.busy <- l.busy + ser;
    if Obs.enabled t.obs then
      Obs.emit_at t.obs ~at:enter
        (Event.Noc_link
           { link_src = l.link_src; link_dst = l.link_dst; enter;
             leave = enter + ser; queued = enter - ideal; msg });
    head := enter
  done;
  !head + ser

(* Wormhole switching: the head acquires links hop by hop (stalling on
   busy ones); every link of the route is then held until the tail has
   drained through the last link — a blocked worm keeps its upstream
   links busy. This slightly over-holds upstream links of a stalled
   worm (by at most hops x hop_latency), a conservative approximation
   of zero-buffer flit backpressure. *)
let send_packet_wormhole t ~route ~bytes ~msg ~depart =
  let flits = serialization t (bytes + packet_header_bytes) in
  let hops = Array.length route in
  let enters = Array.make hops 0 and queued = Array.make hops 0 in
  let head = ref depart in
  for i = 0 to hops - 1 do
    let ideal = !head + t.config.hop_latency in
    let enter = max ideal route.(i).free_at in
    enters.(i) <- enter;
    queued.(i) <- enter - ideal;
    head := enter
  done;
  let tail_done = !head + flits in
  (* Released from the last link back to the first. *)
  for i = hops - 1 downto 0 do
    let l = route.(i) in
    l.busy <- l.busy + (tail_done - max l.free_at depart);
    l.free_at <- tail_done;
    if Obs.enabled t.obs then
      Obs.emit_at t.obs ~at:enters.(i)
        (Event.Noc_link
           { link_src = l.link_src; link_dst = l.link_dst; enter = enters.(i);
             leave = tail_done; queued = queued.(i); msg })
  done;
  tail_done

let send_packet t ~route ~bytes ~msg ~depart =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + bytes;
  match t.config.mode with
  | `Packet -> send_packet_store_forward t ~route ~bytes ~msg ~depart
  | `Wormhole -> send_packet_wormhole t ~route ~bytes ~msg ~depart

let pure_latency t ~src ~dst ~bytes =
  if src = dst then begin
    (* No route to take, so nothing else checks the node. *)
    Topology.check t.topology src;
    1
  end
  else begin
    let hops = Topology.hops t.topology ~src ~dst in
    let packets =
      max 1 ((bytes + t.config.max_packet - 1) / t.config.max_packet)
    in
    let last_chunk =
      if bytes = 0 then 0
      else
        let rem = bytes mod t.config.max_packet in
        if rem = 0 then t.config.max_packet else rem
    in
    (* All packets but the last stream back-to-back through the first
       link; the last packet then crosses the whole path. *)
    let full = serialization t (t.config.max_packet + packet_header_bytes) in
    ((packets - 1) * full)
    + (hops * t.config.hop_latency)
    + serialization t (last_chunk + packet_header_bytes)
  end

let transfer ?(msg = 0) ?on_drop t ~src ~dst ~bytes ~on_deliver =
  if bytes < 0 then invalid_arg "Fabric.transfer: negative size";
  let now = Engine.now t.engine in
  if src = dst then begin
    Topology.check t.topology src;
    Engine.schedule t.engine ~delay:1 on_deliver
  end
  else begin
    (* Drops are drawn only for transfers whose issuer can react to
       them ([on_drop] given, i.e. the DTU message path) and only when
       a plan is attached — otherwise this is the exact pre-existing
       delivery path. *)
    let dropped =
      Option.is_some on_drop && M3_fault.Plan.drop_now t.faults ~src ~dst ~bytes
    in
    let route = route t ~src ~dst in
    let remaining = ref bytes and depart = ref now and arrival = ref now in
    (* A zero-byte message still occupies one header packet. *)
    let continue = ref true in
    while !continue do
      let chunk = min !remaining t.config.max_packet in
      let arrive = send_packet t ~route ~bytes:chunk ~msg ~depart:!depart in
      arrival := max !arrival arrive;
      (* Next packet can leave as soon as this one has fully entered
         the first link (pipelining across packets). *)
      depart := !depart + serialization t (chunk + packet_header_bytes);
      remaining := !remaining - chunk;
      if !remaining <= 0 then continue := false
    done;
    match on_drop with
    | Some drop when dropped ->
      (* The packets still occupied their links; the loss is observed
         at the would-be arrival time. *)
      if Obs.enabled t.obs then
        Obs.emit t.obs (Event.Fault_drop { src; dst; bytes; msg });
      Engine.schedule_at t.engine ~time:!arrival drop
    | _ ->
      if Obs.enabled t.obs then
        Obs.emit t.obs
          (Event.Noc_xfer
             { src; dst; bytes; depart = now; arrive = !arrival; msg });
      Engine.schedule_at t.engine ~time:!arrival on_deliver
  end

let packets_sent t = t.packets
let bytes_sent t = t.bytes

let link_busy_cycles t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some l -> l.busy
  | None -> 0
