module Engine = M3_sim.Engine
module Store = M3_mem.Store
module Topology = M3_noc.Topology
module Fabric = M3_noc.Fabric
module Dtu = M3_dtu.Dtu

type config = {
  pe_count : int;
  spm_size : int;
  ep_count : int;
  dram_size : int;
  noc : Fabric.config;
  core_at : int -> Core_type.t;
}

let default_config =
  {
    pe_count = 16;
    spm_size = 64 * 1024;
    ep_count = 8;
    dram_size = 64 * 1024 * 1024;
    noc = Fabric.default_config;
    core_at = (fun _ -> Core_type.General_purpose);
  }

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  config : config;
  pes : Pe.t array;
  quarantined : bool array;
  dram_node : int;
  dram : Store.t;
}

let create ?(config = default_config) engine =
  if config.pe_count <= 0 then invalid_arg "Platform.create: no PEs";
  let topology = Topology.for_nodes (config.pe_count + 1) in
  let fabric = Fabric.create engine topology ~config:config.noc in
  let pes =
    Array.init config.pe_count (fun i ->
        Pe.create engine fabric ~id:i ~core:(config.core_at i)
          ~spm_size:config.spm_size ~ep_count:config.ep_count)
  in
  let dram_node = config.pe_count in
  let dram = Store.create ~name:"dram" ~size:config.dram_size in
  let store_of node =
    if node >= 0 && node < config.pe_count then Some (Pe.spm pes.(node))
    else if node = dram_node then Some dram
    else None
  in
  let dtu_of node =
    if node >= 0 && node < config.pe_count then Some (Pe.dtu pes.(node))
    else None
  in
  Array.iter (fun pe -> Dtu.set_resolvers (Pe.dtu pe) ~store_of ~dtu_of) pes;
  {
    engine;
    fabric;
    config;
    pes;
    quarantined = Array.make config.pe_count false;
    dram_node;
    dram;
  }

let engine t = t.engine
let fabric t = t.fabric
let config t = t.config
let pe_count t = Array.length t.pes

let pe t i =
  if i < 0 || i >= Array.length t.pes then
    invalid_arg (Printf.sprintf "Platform.pe: %d out of range" i);
  t.pes.(i)

let pes t = Array.to_list t.pes

let is_quarantined t i =
  if i < 0 || i >= Array.length t.quarantined then
    invalid_arg (Printf.sprintf "Platform.is_quarantined: %d out of range" i);
  t.quarantined.(i)

let quarantine t i =
  if i < 0 || i >= Array.length t.quarantined then
    invalid_arg (Printf.sprintf "Platform.quarantine: %d out of range" i);
  t.quarantined.(i) <- true

let find_pe t ~core ~used =
  let rec go i =
    if i >= Array.length t.pes then None
    else if
      Core_type.equal (Pe.core t.pes.(i)) core
      && (not t.quarantined.(i))
      && not (used i)
    then Some t.pes.(i)
    else go (i + 1)
  in
  go 0

let dram_node t = t.dram_node
let dram t = t.dram

let run t = Engine.run t.engine
