(* serve-open: open-loop Poisson load against a 4-worker serving pool
   answering [Echo 2000] requests, with no filesystem and 4 MiB of
   DRAM, on a fresh system per offered rate. Host time is all event
   processing and almost none is set-up, so engine, DTU and
   dispatcher changes show here while memory and fs changes must read
   flat. *)

module Engine = M3_sim.Engine
module Stats = M3_sim.Stats
module Rng = M3_sim.Rng
module Pool = M3_serve.Pool
module Load = M3_serve.Load
module Wire = M3_serve.Wire

let workers = 4
let service = 2000

(* Nominal capacity: every worker busy all the time, in requests per
   cycle (2 per kcycle). *)
let nominal = float_of_int workers /. float_of_int service

(* The latency limit of the capacity search, and the backlog test: a
   run whose last quarter of completions has a median latency above
   twice that of its second quarter is falling behind. *)
let p99_limit = 50_000.0
let backlog_factor = 2.0
let headline = 0.8
let fixed_utils = [ 0.5; headline; 0.95 ]
let probes = 6

type size = { fixed_requests : int; probe_requests : int }

let full = { fixed_requests = 12_000; probe_requests = 5_000 }
let tiny = { fixed_requests = 300; probe_requests = 100 }

let platform =
  { M3_hw.Platform.default_config with pe_count = 8; dram_size = 4 * 1024 * 1024 }

(* Stretch a drawn schedule so that its realized rate is exactly
   [1 / mean_gap]. The draw's burstiness stays; only its overall rate,
   which strays from the nominal one by about 1/sqrt(count) and moves
   queueing delay near saturation several times as much, is pinned, so
   a fixed-rate cell offers the same load on every seed. *)
let pinned ~mean_gap schedule =
  let n = Array.length schedule in
  let span = if n = 0 then 1 else max 1 schedule.(n - 1).Load.at in
  let scale = float_of_int n *. mean_gap /. float_of_int span in
  Array.map
    (fun a ->
      { a with Load.at = int_of_float (Float.round (float_of_int a.Load.at *. scale)) })
    schedule

let schedule ~seed ~util ~count =
  let mean_gap = 1.0 /. (util *. nominal) in
  Load.poisson ~rng:(Rng.create ~seed) ~mean_gap ~count
    ~mix:(Load.pure (Wire.Echo service)) ()
  |> pinned ~mean_gap

type outcome = {
  cr : Pool.client_result;
  stats : Pool.pool_stats;
  late : Stats.t;  (** generator lateness, every 64th arrival *)
}

(* One fresh system playing [schedule] against a fresh pool. *)
let play ctx ~label ~schedule =
  let out = ref None in
  Ctx.system ctx ~label ~platform_config:platform ~no_fs:true
    (fun ~services:_ env ->
      let engine = env.M3.Env.engine in
      let pool =
        M3.Errno.ok_exn
          (Pool.start env (Pool.default_config ~name:"ledger" ~workers ()))
      in
      let late = Stats.create () in
      let t_start = Engine.now engine in
      let actions =
        List.init
          ((Array.length schedule + 63) / 64)
          (fun k ->
            let i = k * 64 in
            ( i,
              fun () ->
                Stats.add late
                  (float_of_int
                     (Engine.now engine - (t_start + schedule.(i).Load.at))) ))
      in
      let cr =
        Ctx.span ctx ~engine ~tid:env.M3.Env.uid "pool.run_open" (fun () ->
            Pool.run_open ~actions env pool ~schedule)
      in
      M3.Errno.ok_exn (Pool.stop env pool);
      out := Some { cr; stats = Pool.stats pool; late };
      0);
  !out

let refused cr = cr.Pool.cr_rejected + cr.Pool.cr_throttled + cr.Pool.cr_unavail

(* The request accounting every run must balance. *)
let balanced cr =
  cr.Pool.cr_sent = cr.Pool.cr_completed + refused cr + cr.Pool.cr_failed

let quarter_p50 completions q =
  let a = Array.of_list completions in
  let n = Array.length a in
  let lo = q * n / 4 and hi = (q + 1) * n / 4 in
  let st = Stats.create () in
  for i = lo to hi - 1 do
    Stats.add st (float_of_int (snd a.(i)))
  done;
  Meter.pct st 50.0

(* Meets the limit: p99 within bound, nothing refused or failed, and
   no growing backlog. *)
let meets o =
  let cr = o.cr in
  refused cr = 0
  && cr.Pool.cr_failed = 0
  && cr.Pool.cr_completed = cr.Pool.cr_sent
  && Meter.pct cr.Pool.cr_latency 99.0 <= p99_limit
  && quarter_p50 cr.Pool.cr_completions 3
     <= backlog_factor *. quarter_p50 cr.Pool.cr_completions 1

let note_outcome ctx label o =
  let cr = o.cr in
  List.iter
    (fun (k, v) -> Ctx.note_int ctx (label ^ "." ^ k) v)
    [
      ("sent", cr.Pool.cr_sent);
      ("completed", cr.Pool.cr_completed);
      ("refused", refused cr);
      ("failed", cr.Pool.cr_failed);
      ("first", cr.Pool.cr_first_send);
      ("last", cr.Pool.cr_last_done);
      ("batches", o.stats.Pool.p_batches);
      ("depth", o.stats.Pool.p_max_depth);
    ];
  Ctx.note ctx (label ^ ".completions")
    (Digest.to_hex
       (Digest.string
          (String.concat ","
             (List.map
                (fun (c, l) -> Printf.sprintf "%d:%d" c l)
                cr.Pool.cr_completions))))

let run ctx =
  let size = if ctx.Ctx.tiny then tiny else full in
  let seed = ctx.Ctx.seed in
  let fixed =
    Ctx.input ctx (fun () ->
        List.map
          (fun u -> (u, schedule ~seed ~util:u ~count:size.fixed_requests))
          fixed_utils)
  in
  let best = ref None in
  let passed u = best := Some (u *. nominal) in
  List.iter
    (fun (u, sched) ->
      let label = Printf.sprintf "u%.0f" (u *. 100.0) in
      match play ctx ~label ~schedule:sched with
      | None -> Ctx.error ctx (label ^ ": no result")
      | Some o ->
        let cr = o.cr in
        Ctx.attempt ctx cr.Pool.cr_sent;
        ctx.Ctx.failed <- ctx.Ctx.failed + (cr.Pool.cr_sent - cr.Pool.cr_completed);
        Ctx.check ctx (balanced cr) (label ^ ": request accounting does not balance");
        Ctx.check ctx
          (cr.Pool.cr_sent = Array.length sched)
          (label ^ ": not every arrival was sent");
        Ctx.check ctx
          (cr.Pool.cr_completed = cr.Pool.cr_sent)
          (Printf.sprintf "%s: %d of %d requests did not complete" label
             (cr.Pool.cr_sent - cr.Pool.cr_completed)
             cr.Pool.cr_sent);
        note_outcome ctx label o;
        if u = 0.5 && meets o then passed u;
        Ctx.add ctx "sim_mcycles"
          (float_of_int (cr.Pool.cr_last_done - cr.Pool.cr_first_send) /. 1e6);
        let p99 = Meter.pct cr.Pool.cr_latency 99.0 in
        if u = headline then begin
          Ctx.set ctx "p50_cyc" (Meter.pct cr.Pool.cr_latency 50.0);
          Ctx.set ctx "p99_cyc" p99;
          Ctx.set ctx "serve.service_p99_cyc"
            (Meter.pct (Pool.service_latency o.stats) 99.0);
          Ctx.set ctx "serve.disp_p99_cyc"
            (Meter.pct o.stats.Pool.p_disp_latency 99.0);
          Ctx.set ctx "serve.batch_mean"
            (float_of_int o.stats.Pool.p_batched
            /. float_of_int (max 1 o.stats.Pool.p_batches));
          Ctx.set ctx "serve.max_depth" (float_of_int o.stats.Pool.p_max_depth);
          Ctx.set ctx "serve.gen_late_p99_cyc" (Meter.pct o.late 99.0)
        end
        else Ctx.set ctx (Printf.sprintf "serve.p99_cyc_u%.0f" (u *. 100.0)) p99)
    fixed;
  (* Capacity: bisection over [0.5, 1.5] x nominal on shorter
     schedules drawn from the same seed. *)
  let lo = ref 0.5 and hi = ref 1.5 in
  for step = 1 to probes do
    let u = (!lo +. !hi) /. 2.0 in
    let sched =
      Ctx.input ctx (fun () -> schedule ~seed ~util:u ~count:size.probe_requests)
    in
    let label = Printf.sprintf "probe%d" step in
    match play ctx ~label ~schedule:sched with
    | None -> Ctx.error ctx (label ^ ": no result")
    | Some o ->
      Ctx.check ctx (balanced o.cr) (label ^ ": request accounting does not balance");
      note_outcome ctx label o;
      if meets o then begin
        passed u;
        lo := u
      end
      else hi := u
  done;
  (* Below the searched interval, report half its lower end. *)
  let cap =
    match !best with Some r -> r | None -> 0.25 *. nominal
  in
  Ctx.set ctx "capacity_rpmc" (cap *. 1e6)
