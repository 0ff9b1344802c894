(* Capabilities and NoC-level isolation: delegate, obtain, revoke.

   Shows what makes M3's protection model tick: a VPE can only reach
   what its DTU endpoints are configured for, endpoints can only be
   configured from capabilities, and revoking a capability recursively
   undoes every delegation — remotely invalidating endpoints on other
   PEs, without any cooperation from the code running there.

   Run with: dune exec examples/capabilities.exe *)

module Engine = M3_sim.Engine
module Store = M3_mem.Store
module Env = M3.Env
module Gate = M3.Gate
module Vpe_api = M3.Vpe_api
module Perm = M3_mem.Perm

let ok = M3.Errno.ok_exn

let show name = function
  | Ok _ -> Printf.printf "  %-34s allowed\n" name
  | Error e -> Printf.printf "  %-34s DENIED (%s)\n" name (M3.Errno.to_string e)

let () =
  let engine = Engine.create () in
  let sys = M3.Bootstrap.start ~no_fs:true engine in
  let exit_code =
    M3.Bootstrap.launch sys ~name:"alice" (fun env ->
        (* Alice owns a DRAM buffer and writes a secret into it. *)
        let mem, _addr = ok (Gate.req_mem env ~size:4096 ~perm:Perm.rw) in
        let spm = M3_hw.Pe.spm env.Env.pe in
        let buf = Env.alloc_spm env ~size:64 in
        Store.write_string spm ~addr:buf "the secret ingredient is love";
        ok (Gate.write env mem ~off:0 ~local:buf ~len:29);
        print_endline "alice: wrote her secret to DRAM";

        (* Bob gets a READ-ONLY view of the first kilobyte only. *)
        let ro_sel =
          ok
            (M3.Syscalls.derive_mem env ~src_sel:mem.Gate.mg_user.Env.eu_sel
               ~off:0 ~size:1024 ~perm:Perm.r)
        in
        let bob =
          ok (Vpe_api.create env ~name:"bob" ~core:M3_hw.Core_type.General_purpose)
        in
        ok (Vpe_api.delegate env bob ~own_sel:ro_sel ~other_sel:100);
        ok
          (Vpe_api.run env bob (fun benv ->
               print_endline "bob: trying his delegated capability...";
               let view = Gate.mem_gate_of_sel ~sel:100 ~size:1024 in
               let b = Env.alloc_spm benv ~size:64 in
               show "bob reads the shared kilobyte"
                 (Gate.read benv view ~off:0 ~local:b ~len:29);
               Printf.printf "  bob sees: %S\n"
                 (Store.read_string (M3_hw.Pe.spm benv.Env.pe) ~addr:b ~len:29);
               show "bob writes through it"
                 (Gate.write benv view ~off:0 ~local:b ~len:8);
               (* The capability cannot be widened either. *)
               show "bob derives a wider capability"
                 (M3.Syscalls.derive_mem benv ~src_sel:100 ~off:0 ~size:1024
                    ~perm:Perm.rw);
               (* NoC-level isolation: bob's DTU was downgraded at VPE
                  creation, so he cannot reconfigure anyone's endpoints
                  — not even his own. *)
               show "bob reconfigures his own DTU"
                 (match
                    M3_dtu.Dtu.config_local
                      (M3_hw.Pe.dtu benv.Env.pe)
                      ~ep:5 M3_dtu.Endpoint.Invalid
                  with
                 | Ok () -> Ok ()
                 | Error e ->
                   Error (M3.Errno.E_dtu (M3_dtu.Dtu_error.to_string e)));
               (* Wait until alice revokes, then try again. *)
               M3_sim.Process.wait 50_000;
               print_endline "bob: after alice revoked...";
               show "bob reads the shared kilobyte"
                 (Gate.read benv view ~off:0 ~local:b ~len:29);
               0));

        (* Alice revokes the read-only view while bob is running: the
           kernel recursively destroys bob's copy and remotely
           invalidates the endpoint his DTU had configured for it. *)
        M3_sim.Process.wait 20_000;
        ok (M3.Syscalls.revoke env ~sel:ro_sel);
        print_endline "alice: revoked bob's view";
        match ok (Vpe_api.wait env bob) with
        | 0 -> 0
        | c -> c)
  in
  ignore (Engine.run engine);
  match M3_sim.Process.Ivar.peek exit_code with
  | Some 0 -> print_endline "capabilities demo finished"
  | Some c ->
    Printf.printf "demo FAILED with code %d\n" c;
    exit 1
  | None ->
    print_endline "demo did not terminate";
    exit 1
