module Engine = M3_sim.Engine
module Obs = M3_obs.Obs
module Event = M3_obs.Event

type link = {
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

let link t key =
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let l = { free_at = 0; busy = 0 } in
    Hashtbl.add t.links key l;
    l

let serialization t bytes =
  max 1 ((bytes + t.config.bytes_per_cycle - 1) / t.config.bytes_per_cycle)

(* Packet switching: claims each link of the route in order, respecting
   current occupancy, and returns the arrival time of its tail. *)
let send_packet_store_forward t ~route ~bytes ~msg ~depart =
  let ser = serialization t (bytes + packet_header_bytes) in
  let head = ref depart in
  List.iter
    (fun ((link_src, link_dst) as hop) ->
      let l = link t hop in
      let ideal = !head + t.config.hop_latency in
      let enter = max ideal l.free_at in
      l.free_at <- enter + ser;
      l.busy <- l.busy + ser;
      if Obs.enabled t.obs then
        Obs.emit_at t.obs ~at:enter
          (Event.Noc_link
             { link_src; link_dst; enter; leave = enter + ser;
               queued = enter - ideal; msg });
      head := enter)
    route;
  !head + ser

(* Wormhole switching: the head acquires links hop by hop (stalling on
   busy ones); every link of the route is then held until the tail has
   drained through the last link — a blocked worm keeps its upstream
   links busy. This slightly over-holds upstream links of a stalled
   worm (by at most hops x hop_latency), a conservative approximation
   of zero-buffer flit backpressure. *)
let send_packet_wormhole t ~route ~bytes ~msg ~depart =
  let flits = serialization t (bytes + packet_header_bytes) in
  let head = ref depart in
  let acquired = ref [] in
  List.iter
    (fun ((link_src, link_dst) as hop) ->
      let l = link t hop in
      let ideal = !head + t.config.hop_latency in
      let enter = max ideal l.free_at in
      if Obs.enabled t.obs then
        acquired := (l, link_src, link_dst, enter, enter - ideal) :: !acquired
      else acquired := (l, link_src, link_dst, enter, 0) :: !acquired;
      head := enter)
    route;
  let tail_done = !head + flits in
  List.iter
    (fun (l, link_src, link_dst, enter, queued) ->
      l.busy <- l.busy + (tail_done - max l.free_at depart);
      l.free_at <- tail_done;
      if Obs.enabled t.obs then
        Obs.emit_at t.obs ~at:enter
          (Event.Noc_link
             { link_src; link_dst; enter; leave = tail_done; queued; msg }))
    !acquired;
  tail_done

let send_packet t ~route ~bytes ~msg ~depart =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + bytes;
  match t.config.mode with
  | `Packet -> send_packet_store_forward t ~route ~bytes ~msg ~depart
  | `Wormhole -> send_packet_wormhole t ~route ~bytes ~msg ~depart

let pure_latency t ~src ~dst ~bytes =
  if src = dst then 1
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

type fault =
  | Lost of string
  | Corrupted

let transfer ?(msg = 0) ?on_fault t ~src ~dst ~bytes ~on_deliver =
  if bytes < 0 then invalid_arg "Fabric.transfer: negative size";
  let now = Engine.now t.engine in
  if src = dst then Engine.schedule t.engine ~delay:1 on_deliver
  else begin
    (* Faults are drawn only for transfers whose issuer can react to
       them ([on_fault] given, i.e. the DTU message path) and only when
       a plan is attached — otherwise this is the exact pre-existing
       delivery path. *)
    let outcome =
      match on_fault with
      | Some _ when M3_fault.Plan.enabled t.faults ->
        M3_fault.Plan.xfer_outcome t.faults ~src ~dst ~bytes
      | _ -> M3_fault.Plan.Deliver
    in
    let route = Topology.route t.topology ~src ~dst in
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
    match (outcome, on_fault) with
    | M3_fault.Plan.Drop reason, Some fail ->
      (* The packets still occupied their links; the loss is observed
         at the would-be arrival time. *)
      if Obs.enabled t.obs then
        Obs.emit t.obs (Event.Fault_drop { src; dst; bytes; msg; reason });
      Engine.schedule_at t.engine ~time:!arrival (fun () -> fail (Lost reason))
    | M3_fault.Plan.Corrupt, Some fail ->
      if Obs.enabled t.obs then begin
        Obs.emit t.obs
          (Event.Noc_xfer
             { src; dst; bytes; depart = now; arrive = !arrival; msg });
        Obs.emit t.obs (Event.Fault_corrupt { src; dst; bytes; msg })
      end;
      Engine.schedule_at t.engine ~time:!arrival (fun () -> fail Corrupted)
    | (M3_fault.Plan.Deliver | M3_fault.Plan.Drop _ | M3_fault.Plan.Corrupt), _
      ->
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
