let src = Logs.Src.create "m3.fault" ~doc:"deterministic fault injection"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  drop : float;
  crashes : (int * int) list;
  max_retries : int;
  rng : M3_sim.Rng.t option; (* None <=> disabled plan *)
  mutable drops : int;
  mutable crashed : int list; (* PEs whose crash already fired, newest first *)
}

let none =
  { drop = 0.; crashes = []; max_retries = 4; rng = None; drops = 0; crashed = [] }

let create ?(drop = 0.) ?(crashes = []) ?(max_retries = 4) ~seed () =
  if drop < 0. then invalid_arg "Plan.create: negative probability";
  if max_retries < 0 then invalid_arg "Plan.create: negative retry parameter";
  List.iter
    (fun (pe, after) ->
      if pe < 0 || after < 1 then invalid_arg "Plan.create: bad crash entry")
    crashes;
  {
    drop;
    crashes;
    max_retries;
    rng = Some (M3_sim.Rng.create ~seed);
    drops = 0;
    crashed = [];
  }

let enabled t = t.rng <> None

let drop_now t ~src ~dst ~bytes =
  match t.rng with
  | None -> false
  | Some rng ->
    (* One uniform draw per transfer keeps the schedule a pure function
       of (seed, transfer order) whatever the probability is. *)
    M3_sim.Rng.float rng < t.drop
    && begin
      t.drops <- t.drops + 1;
      Log.debug (fun m -> m "inject drop %d->%d (%d B)" src dst bytes);
      true
    end

let crashes_injected t = List.length t.crashed

let can_crash t = t.crashes <> []

(* Whether any further crash could still fire: the schedule is
   exhausted once every entry has fired. Used by the kernel prober to
   decide when to stand down so an otherwise-idle system can drain. *)
let more_crashes_possible t =
  List.exists (fun (pe, _) -> not (List.mem pe t.crashed)) t.crashes

let crash_now t ~pe ~cmd =
  (not (List.mem pe t.crashed))
  && List.exists (fun (p, after) -> p = pe && cmd >= after) t.crashes
  && begin
    t.crashed <- pe :: t.crashed;
    Log.debug (fun m -> m "inject pe_crash pe%d (command %d)" pe cmd);
    true
  end

let retry_base = 64

let backoff ~attempt =
  if attempt < 0 then invalid_arg "Plan.backoff: negative attempt";
  retry_base * (1 lsl min attempt 20)

let max_retries t = t.max_retries

let drops_injected t = t.drops
