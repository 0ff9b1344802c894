module Engine = M3_sim.Engine
module Account = M3_sim.Account
module Platform = M3_hw.Platform

type measure = {
  m_cycles : int;
  m_app : int;
  m_os : int;
  m_xfer : int;
}

let zero_measure = { m_cycles = 0; m_app = 0; m_os = 0; m_xfer = 0 }

let add_measure a b =
  {
    m_cycles = a.m_cycles + b.m_cycles;
    m_app = a.m_app + b.m_app;
    m_os = a.m_os + b.m_os;
    m_xfer = a.m_xfer + b.m_xfer;
  }

let scale_measure m f =
  let s v = int_of_float (float_of_int v *. f) in
  {
    m_cycles = s m.m_cycles;
    m_app = s m.m_app;
    m_os = s m.m_os;
    m_xfer = s m.m_xfer;
  }

let other m = m.m_cycles - m.m_xfer

let serialized m =
  let charged = m.m_app + m.m_os + m.m_xfer in
  { m with m_cycles = max m.m_cycles charged }

let snapshot account =
  Account.(get account App, get account Os, get account Xfer)

(* Observability hook: when set, every M3 run builds an event bus over
   its engine and hands it to the callback (which attaches sinks)
   before the system boots. Used by `m3_repro trace`. *)
let observer : (M3_obs.Obs.t -> unit) option ref = ref None

let run_m3 ?(pe_count = 16) ?(dram_mib = 64) ?core_at ?(seeds = [])
    ?(no_fs = false) ?(sched = false) ?faults ?inspect app =
  let engine = Engine.create () in
  let dram_size = dram_mib * 1024 * 1024 in
  let config =
    match core_at with
    | None -> { Platform.default_config with pe_count; dram_size }
    | Some core_at -> { Platform.default_config with pe_count; dram_size; core_at }
  in
  let fs ~dram =
    let base = M3.M3fs.default_config ~dram in
    { base with seed = seeds; fs_size = min base.fs_size (dram_size / 2) }
  in
  let obs =
    match !observer with
    | None -> None
    | Some attach ->
      let o = M3_obs.Obs.of_engine engine in
      attach o;
      Some o
  in
  let sched = if sched then Some (M3_sched.Sched.create ()) else None in
  let sys =
    M3.Bootstrap.start ~platform_config:config ~fs ~no_fs ?obs ?sched ?faults
      engine
  in
  let account = Account.create () in
  let result = ref zero_measure in
  let exit =
    M3.Bootstrap.launch sys ~name:"bench" ~account (fun env ->
        let measured f =
          let t0 = Engine.now engine in
          let a0, o0, x0 = snapshot account in
          f ();
          let a1, o1, x1 = snapshot account in
          result :=
            add_measure !result
              {
                m_cycles = Engine.now engine - t0;
                m_app = a1 - a0;
                m_os = o1 - o0;
                m_xfer = x1 - x0;
              }
        in
        app env ~measured;
        0)
  in
  ignore (Engine.run engine);
  M3.Bootstrap.expect_exit sys exit;
  Option.iter (fun f -> f sys.M3.Bootstrap.platform) inspect;
  (* One figure run boots many systems in this process; drop
     this engine's m3fs registry entries so the tables stay bounded. *)
  M3.M3fs.forget ~engine;
  !result

let run_linux ?(cache_ideal = false) ?(arch = M3_linux.Arch.xtensa) ?(seeds = [])
    f =
  let machine = M3_linux.Machine.create ~cache_ideal arch in
  M3_trace.Replay_linux.apply_seeds machine seeds;
  let account = M3_linux.Machine.account machine in
  let t0 = M3_linux.Machine.cycles machine in
  let a0, o0, x0 = snapshot account in
  f machine;
  let a1, o1, x1 = snapshot account in
  {
    m_cycles = M3_linux.Machine.cycles machine - t0;
    m_app = a1 - a0;
    m_os = o1 - o0;
    m_xfer = x1 - x0;
  }

let mounted env = M3.Errno.ok_exn (M3.Vfs.mount_root env)

let fmt_k cycles =
  if cycles >= 10_000_000 then
    Printf.sprintf "%.2f M" (float_of_int cycles /. 1_000_000.0)
  else if cycles >= 10_000 then
    Printf.sprintf "%.1f K" (float_of_int cycles /. 1_000.0)
  else string_of_int cycles
