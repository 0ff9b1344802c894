let src = Logs.Src.create "m3.fault" ~doc:"deterministic fault injection"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  drop_prob : float;
  link_fault_prob : float;
  corrupt_prob : float;
  stall_prob : float;
  stall_cycles : int;
  crash_prob : float;
  crashes : (int * int) list;
  max_retries : int;
  retry_base : int;
}

let default_config =
  {
    drop_prob = 0.05;
    link_fault_prob = 0.01;
    corrupt_prob = 0.0;
    stall_prob = 0.0;
    stall_cycles = 0;
    crash_prob = 0.0;
    crashes = [];
    max_retries = 4;
    retry_base = 64;
  }

type t = {
  cfg : config;
  rng : M3_sim.Rng.t option; (* None <=> disabled plan *)
  mutable drops : int;
  mutable corrupts : int;
  mutable stalls : int;
  mutable crashed : int list; (* PEs whose crash already fired, newest first *)
}

let none =
  { cfg = default_config; rng = None; drops = 0; corrupts = 0; stalls = 0; crashed = [] }

let create ?(config = default_config) ~seed () =
  if config.drop_prob < 0. || config.link_fault_prob < 0. || config.corrupt_prob < 0. then
    invalid_arg "Plan.create: negative probability";
  if config.crash_prob < 0. then invalid_arg "Plan.create: negative probability";
  if config.max_retries < 0 || config.retry_base < 0 then
    invalid_arg "Plan.create: negative retry parameter";
  List.iter
    (fun (pe, after) ->
      if pe < 0 || after < 1 then invalid_arg "Plan.create: bad crash entry")
    config.crashes;
  {
    cfg = config;
    rng = Some (M3_sim.Rng.create ~seed);
    drops = 0;
    corrupts = 0;
    stalls = 0;
    crashed = [];
  }

let enabled t = t.rng <> None

let config t = t.cfg

type outcome =
  | Deliver
  | Drop of string
  | Corrupt

let xfer_outcome t ~src ~dst ~bytes =
  match t.rng with
  | None -> Deliver
  | Some rng ->
    (* One uniform draw per transfer keeps the schedule a pure function
       of (seed, transfer order) whatever the probabilities are. *)
    let u = M3_sim.Rng.float rng in
    let c = t.cfg in
    if u < c.drop_prob then begin
      t.drops <- t.drops + 1;
      Log.debug (fun m -> m "inject drop %d->%d (%d B)" src dst bytes);
      Drop "drop"
    end
    else if u < c.drop_prob +. c.link_fault_prob then begin
      t.drops <- t.drops + 1;
      Log.debug (fun m -> m "inject link fault %d->%d (%d B)" src dst bytes);
      Drop "link fault"
    end
    else if u < c.drop_prob +. c.link_fault_prob +. c.corrupt_prob then begin
      t.corrupts <- t.corrupts + 1;
      Log.debug (fun m -> m "inject corruption %d->%d (%d B)" src dst bytes);
      Corrupt
    end
    else Deliver

let stall t ~pe =
  match t.rng with
  | None -> 0
  | Some rng ->
    if t.cfg.stall_prob <= 0. || t.cfg.stall_cycles <= 0 then 0
    else if M3_sim.Rng.float rng < t.cfg.stall_prob then begin
      let cycles = 1 + M3_sim.Rng.int rng t.cfg.stall_cycles in
      t.stalls <- t.stalls + 1;
      Log.debug (fun m -> m "inject stall pe%d (%d cy)" pe cycles);
      cycles
    end
    else 0

let crashes_injected t = List.length t.crashed

let can_crash t =
  t.rng <> None && (t.cfg.crash_prob > 0. || t.cfg.crashes <> [])

(* Whether any further crash could still fire: a probabilistic plan can
   always crash another PE; an explicit schedule is exhausted once every
   entry has fired. Used by the kernel prober to decide when to stand
   down so an otherwise-idle system can drain. *)
let more_crashes_possible t =
  t.rng <> None
  && (t.cfg.crash_prob > 0.
     || List.exists (fun (pe, _) -> not (List.mem pe t.crashed)) t.cfg.crashes)

let crash_now t ~pe ~cmd =
  match t.rng with
  | None -> false
  | Some rng ->
    if List.mem pe t.crashed then false
    else begin
      (* Explicit schedule first: checked without touching the RNG so a
         crash-free config leaves the drop/stall stream untouched. *)
      let scheduled =
        List.exists (fun (p, after) -> p = pe && cmd >= after) t.cfg.crashes
      in
      let fired =
        scheduled
        || (t.cfg.crash_prob > 0. && M3_sim.Rng.float rng < t.cfg.crash_prob)
      in
      if fired then begin
        t.crashed <- pe :: t.crashed;
        Log.debug (fun m -> m "inject pe_crash pe%d (command %d)" pe cmd)
      end;
      fired
    end

let corrupt_bytes t buf =
  match t.rng with
  | None -> ()
  | Some rng ->
    let len = Bytes.length buf in
    if len > 0 then begin
      let pos = M3_sim.Rng.int rng len in
      let mask = 1 + M3_sim.Rng.int rng 255 in
      Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor mask))
    end

let backoff t ~attempt =
  if attempt < 0 then invalid_arg "Plan.backoff: negative attempt";
  let shift = min attempt 20 in
  t.cfg.retry_base * (1 lsl shift)

let max_retries t = t.cfg.max_retries

let drops_injected t = t.drops

let corrupts_injected t = t.corrupts

