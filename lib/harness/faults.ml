(* Fault-injection sweep: run a workload under increasing message drop
   rates and report completion time plus the DTU's recovery work
   (retransmits, refunds, expiries). The interesting shape: completion
   time grows smoothly with the drop rate — bounded retransmit absorbs
   the losses — instead of the system wedging. *)

module Plan = M3_fault.Plan
module Store = M3_mem.Store
module Env = M3.Env
module Errno = M3.Errno
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api

let ok = Errno.ok_exn

type point = {
  p_drop : float;  (* injected drop probability per message transfer *)
  p_cycles : int;  (* measured completion cycles of the workload *)
  p_injected : int;  (* drops the plan injected *)
  p_retransmits : int;  (* retry attempts summed over all DTUs *)
  p_refunds : int;  (* credits handed back by the NACK path *)
  p_expired : int;  (* messages abandoned after the retry budget *)
  p_dropped : int;  (* deliveries rejected or lost, summed over DTUs *)
}

type t = {
  f_exp : string;
  f_points : point list;
}

let drop_rates = [ 0.0; 0.02; 0.05; 0.10 ]

let total_bytes = 256 * 1024
let buf_size = 4096

let file_seed =
  [
    { M3.M3fs.sd_path = "/faults.dat"; sd_size = total_bytes;
      sd_blocks_per_extent = 256; sd_dir = false };
  ]

(* The three workloads stress the three message paths: pure
   kernel round-trips, client->m3fs service traffic + DRAM transfers,
   and cross-VPE notification traffic. *)

let syscall_workload env ~measured =
  ok (M3.Syscalls.noop env);
  measured (fun () ->
      for _ = 1 to 50 do
        ok (M3.Syscalls.noop env)
      done)

let read_workload env ~measured =
  Runner.mounted env;
  let buf = Env.alloc_spm env ~size:buf_size in
  let file = ok (Vfs.open_ env "/faults.dat" ~flags:Fs_proto.o_read) in
  measured (fun () ->
      let rec drain () =
        match ok (File.read env file ~local:buf ~len:buf_size) with
        | 0 -> ()
        | _ -> drain ()
      in
      drain ());
  ok (File.close env file)

let pipe_workload env ~measured =
  let ring = 16 * 1024 in
  let reader = ok (Pipe.create_reader env ~ring_size:ring) in
  let vpe =
    ok (Vpe_api.create env ~name:"producer" ~core:M3_hw.Core_type.General_purpose)
  in
  ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
  ok
    (Vpe_api.run env vpe (fun cenv ->
         let w = ok (Pipe.connect_writer cenv ~ring_size:ring) in
         let buf = Env.alloc_spm cenv ~size:buf_size in
         for _ = 1 to total_bytes / buf_size do
           ok (Pipe.write cenv w ~local:buf ~len:buf_size)
         done;
         ok (Pipe.close_writer cenv w);
         0));
  let buf = Env.alloc_spm env ~size:buf_size in
  measured (fun () ->
      let rec drain () =
        match ok (Pipe.read env reader ~local:buf ~len:buf_size) with
        | 0 -> ()
        | _ -> drain ()
      in
      drain ());
  match Vpe_api.wait env vpe with
  | Ok 0 -> ()
  | Ok code -> failwith (Printf.sprintf "pipe producer exited %d" code)
  | Error e -> failwith (Errno.to_string e)

let experiments =
  [
    ("syscall", `No_fs, syscall_workload);
    ("read", `Seeded, read_workload);
    ("pipe", `No_fs, pipe_workload);
  ]

let names = List.map (fun (n, _, _) -> n) experiments

let run_point ~exp ~fs ~workload ~index ~drop =
  (* Seed derived from experiment and sweep position only, so the same
     invocation replays the same fault schedule. *)
  let seed = 0xFA17 + (index * 1000) + String.length exp + Char.code exp.[0] in
  (* More retries than the default: at a 10% drop rate the workload
     must ride through thousands of transfers without a single expiry
     on the kernel path. *)
  let plan =
    if drop = 0.0 then Plan.none else Plan.create ~drop ~max_retries:6 ~seed ()
  in
  let retransmits = ref 0 and refunds = ref 0 in
  let expired = ref 0 and dropped = ref 0 in
  let inspect platform =
    List.iter
      (fun pe ->
        let dtu = M3_hw.Pe.dtu pe in
        retransmits := !retransmits + M3_dtu.Dtu.retransmits dtu;
        refunds := !refunds + M3_dtu.Dtu.credits_refunded dtu;
        expired := !expired + M3_dtu.Dtu.msgs_expired dtu;
        dropped := !dropped + M3_dtu.Dtu.msgs_dropped dtu)
      (M3_hw.Platform.pes platform)
  in
  let measure =
    match fs with
    | `No_fs -> Runner.run_m3 ~no_fs:true ~faults:plan ~inspect workload
    | `Seeded -> Runner.run_m3 ~seeds:file_seed ~faults:plan ~inspect workload
  in
  {
    p_drop = drop;
    p_cycles = measure.Runner.m_cycles;
    p_injected = Plan.drops_injected plan;
    p_retransmits = !retransmits;
    p_refunds = !refunds;
    p_expired = !expired;
    p_dropped = !dropped;
  }

let run exp =
  match List.find_opt (fun (n, _, _) -> n = exp) experiments with
  | None ->
    invalid_arg
      (Printf.sprintf "Faults.run: unknown experiment %s (have: %s)" exp
         (String.concat ", " names))
  | Some (_, fs, workload) ->
    let points =
      List.mapi (fun index drop -> run_point ~exp ~fs ~workload ~index ~drop)
        drop_rates
    in
    { f_exp = exp; f_points = points }

let print ppf t =
  Format.fprintf ppf
    "Fault sweep: %s (drop rate vs. completion, bounded retransmit)@." t.f_exp;
  Format.fprintf ppf
    "  %8s %12s %10s %12s %9s %9s %9s@." "drop" "cycles" "injected"
    "retransmits" "refunds" "expired" "dropped";
  let base =
    match t.f_points with p :: _ -> p.p_cycles | [] -> 0
  in
  List.iter
    (fun p ->
      let slowdown =
        if base > 0 then float_of_int p.p_cycles /. float_of_int base else 1.0
      in
      Format.fprintf ppf "  %7.0f%% %12s %10d %12d %9d %9d %9d  (x%.2f)@."
        (p.p_drop *. 100.0)
        (Runner.fmt_k p.p_cycles)
        p.p_injected p.p_retransmits p.p_refunds p.p_expired p.p_dropped
        slowdown)
    t.f_points;
  Format.fprintf ppf
    "  expectation: smooth slowdown with the drop rate, no deadlock@."
