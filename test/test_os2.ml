(* Second batch of OS tests: marshalling, endpoint multiplexing,
   capability-tree internals, resource exhaustion, and service-protocol
   error paths. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Perm = M3_mem.Perm

module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Errno = M3.Errno
module Msgbuf = M3.Msgbuf
module Kdata = M3.Kdata
module Gate = M3.Gate
module Epmux = M3.Epmux
module Syscalls = M3.Syscalls
module Kernel = M3.Kernel
module Program = M3.Program

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok = Errno.ok_exn

let run_app ?platform_config ?(no_fs = true) main =
  let engine = Engine.create () in
  let sys = Bootstrap.start ?platform_config ~no_fs engine in
  let exit = Bootstrap.launch sys ~name:"app2" (fun env -> main sys env) in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit

(* --- msgbuf ------------------------------------------------------------ *)

let test_msgbuf_roundtrip () =
  let w = Msgbuf.W.create () in
  Msgbuf.W.u8 w 0xAB;
  Msgbuf.W.u64 w 123456789;
  Msgbuf.W.i64 w (-42L);
  Msgbuf.W.str w "hello";
  Msgbuf.W.bytes w (Bytes.of_string "\x00\x01\x02");
  let r = Msgbuf.R.of_bytes (Msgbuf.W.contents w) in
  check_int "u8" 0xAB (Msgbuf.R.u8 r);
  check_int "u64" 123456789 (Msgbuf.R.u64 r);
  Alcotest.(check int64) "i64" (-42L) (Msgbuf.R.i64 r);
  Alcotest.(check string) "str" "hello" (Msgbuf.R.str r);
  Alcotest.(check string) "bytes" "\x00\x01\x02"
    (Bytes.to_string (Msgbuf.R.bytes r));
  check_int "fully consumed" 0 (Msgbuf.R.remaining r)

let test_msgbuf_underflow () =
  let r = Msgbuf.R.of_bytes (Bytes.create 4) in
  check_bool "u64 from 4 bytes underflows" true
    (match Msgbuf.R.u64 r with
    | exception Msgbuf.R.Underflow -> true
    | _ -> false);
  (* A length prefix pointing past the end must not read garbage. *)
  let w = Msgbuf.W.create () in
  Msgbuf.W.u64 w 1000;
  let r = Msgbuf.R.of_bytes (Msgbuf.W.contents w) in
  check_bool "lying length underflows" true
    (match Msgbuf.R.str r with
    | exception Msgbuf.R.Underflow -> true
    | _ -> false)

let qcheck_msgbuf_roundtrip =
  QCheck.Test.make ~name:"msgbuf roundtrips arbitrary scripts" ~count:200
    QCheck.(list (pair (int_bound 2) (pair small_nat small_printable_string)))
    (fun script ->
      let w = Msgbuf.W.create () in
      List.iter
        (fun (tag, (n, s)) ->
          match tag with
          | 0 -> Msgbuf.W.u8 w n
          | 1 -> Msgbuf.W.u64 w n
          | _ -> Msgbuf.W.str w s)
        script;
      let r = Msgbuf.R.of_bytes (Msgbuf.W.contents w) in
      List.for_all
        (fun (tag, (n, s)) ->
          match tag with
          | 0 -> Msgbuf.R.u8 r = n land 0xff
          | 1 -> Msgbuf.R.u64 r = n
          | _ -> Msgbuf.R.str r = s)
        script)

(* --- kdata (capability tree, white box) --------------------------------- *)

let mem_obj n =
  Kdata.O_mem { mem_pe = 99; mem_addr = n * 100; mem_size = 100; mem_perm = Perm.rw }

let test_kdata_revoke_recursive () =
  let a = Kdata.make_vpe ~id:1 ~name:"a" ~pe:1 in
  let b = Kdata.make_vpe ~id:2 ~name:"b" ~pe:2 in
  let c = Kdata.make_vpe ~id:3 ~name:"c" ~pe:3 in
  let root = Result.get_ok (Kdata.insert a ~sel:10 (mem_obj 0) ~parent:None) in
  let to_b = Result.get_ok (Kdata.derive_to ~cap:root ~dst:b ~dst_sel:20 (mem_obj 0)) in
  let _to_c = Result.get_ok (Kdata.derive_to ~cap:to_b ~dst:c ~dst_sel:30 (mem_obj 0)) in
  let dropped = ref [] in
  Kdata.revoke root ~on_drop:(fun cap ->
      dropped := (cap.Kdata.c_owner.Kdata.v_id, cap.Kdata.c_sel) :: !dropped);
  (* Deepest first: c's copy, then b's, then the root. *)
  Alcotest.(check (list (pair int int)))
    "drop order deepest-first"
    [ (3, 30); (2, 20); (1, 10) ]
    (List.rev !dropped);
  check_int "a empty" 0 (Kdata.count_caps a);
  check_int "b empty" 0 (Kdata.count_caps b);
  check_int "c empty" 0 (Kdata.count_caps c)

let test_kdata_revoke_subtree_only () =
  let a = Kdata.make_vpe ~id:1 ~name:"a" ~pe:1 in
  let b = Kdata.make_vpe ~id:2 ~name:"b" ~pe:2 in
  let root = Result.get_ok (Kdata.insert a ~sel:1 (mem_obj 0) ~parent:None) in
  let child = Result.get_ok (Kdata.derive_to ~cap:root ~dst:b ~dst_sel:2 (mem_obj 0)) in
  let _grand = Result.get_ok (Kdata.derive_to ~cap:child ~dst:a ~dst_sel:3 (mem_obj 0)) in
  Kdata.revoke child ~on_drop:(fun _ -> ());
  check_bool "root survives" true (Result.is_ok (Kdata.get a ~sel:1));
  check_bool "grandchild gone" true (Result.is_error (Kdata.get a ~sel:3));
  check_bool "child gone" true (Result.is_error (Kdata.get b ~sel:2));
  check_int "root has no children" 0 (List.length root.Kdata.c_children)

let test_kdata_selector_collision () =
  let a = Kdata.make_vpe ~id:1 ~name:"a" ~pe:1 in
  ignore (Result.get_ok (Kdata.insert a ~sel:5 (mem_obj 1) ~parent:None));
  check_bool "duplicate selector rejected" true
    (match Kdata.insert a ~sel:5 (mem_obj 2) ~parent:None with
    | Error Errno.E_no_sel -> true
    | _ -> false)

let qcheck_kdata_revoke_root_empties_everything =
  QCheck.Test.make ~name:"revoking the root empties every table" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 3) (int_bound 200)))
    (fun script ->
      let vpes = Array.init 4 (fun i -> Kdata.make_vpe ~id:i ~name:"v" ~pe:i) in
      let root =
        Result.get_ok (Kdata.insert vpes.(0) ~sel:1000 (mem_obj 0) ~parent:None)
      in
      let caps = ref [ root ] in
      List.iter
        (fun (v, sel) ->
          let parent = List.nth !caps (sel mod List.length !caps) in
          match Kdata.derive_to ~cap:parent ~dst:vpes.(v) ~dst_sel:sel (mem_obj sel) with
          | Ok cap -> caps := cap :: !caps
          | Error _ -> ())
        script;
      Kdata.revoke root ~on_drop:(fun _ -> ());
      Array.for_all (fun v -> Kdata.count_caps v = 0) vpes)

(* The derivation tree as [Kdata] kept it with a list filter per
   unlink: the reference for the O(1) amortised unlink. *)
module Ref_tree = struct
  type node = {
    id : int;
    owner : int;
    parent : node option;
    mutable children : node list;
    mutable valid : bool;
  }

  let make ~id ~owner parent =
    let n = { id; owner; parent; children = []; valid = true } in
    Option.iter (fun p -> p.children <- n :: p.children) parent;
    n

  let rec revoke n ~on_drop =
    if n.valid then begin
      List.iter (fun c -> revoke c ~on_drop) n.children;
      n.children <- [];
      n.valid <- false;
      (match n.parent with
      | Some p -> p.children <- List.filter (fun c -> c != n) p.children
      | None -> ());
      on_drop n
    end
end

(* Random scripts of root inserts, derives from live capabilities and
   revokes, on [Kdata] and on the reference. Capability [i] has
   selector [i]. After every step: the same [on_drop] order, and for
   every capability the same liveness and live children, newest first;
   revoked entries never outnumber a capability's live children. *)
let qcheck_kdata_unlink_matches_list =
  QCheck.Test.make ~name:"revoke matches the list-filter derivation tree" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (triple (int_bound 9) (int_bound 2) (int_bound 1000)))
    (fun script ->
      let vpes = Array.init 3 (fun i -> Kdata.make_vpe ~id:i ~name:"v" ~pe:i) in
      let caps = ref [||] and nodes = ref [||] in
      let add cap node =
        caps := Array.append !caps [| cap |];
        nodes := Array.append !nodes [| node |]
      in
      let pick k = k mod Array.length !caps in
      List.iteri
        (fun step (kind, v, k) ->
          let id = Array.length !caps in
          let dropped = ref [] and ref_dropped = ref [] in
          (if kind = 0 || id = 0 then
             add
               (Result.get_ok (Kdata.insert vpes.(v) ~sel:id (mem_obj id) ~parent:None))
               (Ref_tree.make ~id ~owner:v None)
           else if kind <= 5 then begin
             let i = pick k in
             if !nodes.(i).Ref_tree.valid then
               add
                 (Result.get_ok
                    (Kdata.derive_to ~cap:!caps.(i) ~dst:vpes.(v) ~dst_sel:id
                       (mem_obj id)))
                 (Ref_tree.make ~id ~owner:v (Some !nodes.(i)))
           end
           else begin
             let i = pick k in
             Kdata.revoke !caps.(i) ~on_drop:(fun c ->
                 dropped := c.Kdata.c_sel :: !dropped);
             Ref_tree.revoke !nodes.(i) ~on_drop:(fun n ->
                 ref_dropped := n.Ref_tree.id :: !ref_dropped)
           end);
          if !dropped <> !ref_dropped then
            QCheck.Test.fail_reportf "step %d: on_drop order differs" step;
          Array.iteri
            (fun i (cap : Kdata.cap) ->
              let node = !nodes.(i) in
              let live =
                List.filter_map
                  (fun (c : Kdata.cap) -> if c.c_valid then Some c.c_sel else None)
                  cap.c_children
              in
              if cap.c_valid <> node.valid
                 || live <> List.map (fun n -> n.Ref_tree.id) node.children
              then QCheck.Test.fail_reportf "step %d: capability %d differs" step i;
              if cap.c_live <> List.length live
                 || cap.c_stale <> List.length cap.c_children - cap.c_live
                 || cap.c_stale > cap.c_live
              then
                QCheck.Test.fail_reportf "step %d: capability %d keeps %d of %d stale"
                  step i cap.c_stale (List.length cap.c_children))
            !caps;
          Array.iteri
            (fun v vpe ->
              let held =
                Array.fold_left
                  (fun n (node : Ref_tree.node) ->
                    if node.valid && node.owner = v then n + 1 else n)
                  0 !nodes
              in
              if Kdata.count_caps vpe <> held then
                QCheck.Test.fail_reportf "step %d: VPE %d holds %d, not %d" step v
                  (Kdata.count_caps vpe) held)
            vpes)
        script;
      true)

(* --- endpoint multiplexing ----------------------------------------------- *)

let test_epmux_eviction_round_robin () =
  run_app (fun _sys env ->
      (* 6 general EPs; create 9 memory gates and touch them all
         twice: every touch after the working set overflows must
         re-activate. *)
      let gates =
        List.init 9 (fun _ ->
            fst (ok (Gate.req_mem env ~size:4096 ~perm:Perm.rw)))
      in
      let buf = Env.alloc_spm env ~size:64 in
      let touch g = ok (Gate.read env g ~off:0 ~local:buf ~len:8) in
      let a0 = Epmux.activations env in
      List.iter touch gates;
      let after_first = Epmux.activations env - a0 in
      check_int "first pass activates all" 9 after_first;
      List.iter touch gates;
      let after_second = Epmux.activations env - a0 in
      (* With 9 gates on 6 endpoints and round-robin eviction, the
         second pass cannot all hit. *)
      check_bool "second pass re-activates some" true (after_second > 9);
      0)

let test_epmux_sticky_within_capacity () =
  run_app (fun _sys env ->
      let gates =
        List.init 3 (fun _ -> fst (ok (Gate.req_mem env ~size:4096 ~perm:Perm.rw)))
      in
      let buf = Env.alloc_spm env ~size:64 in
      let touch g = ok (Gate.read env g ~off:0 ~local:buf ~len:8) in
      List.iter touch gates;
      let a1 = Epmux.activations env in
      for _ = 1 to 5 do
        List.iter touch gates
      done;
      check_int "no re-activation within capacity" a1 (Epmux.activations env);
      0)

let test_recv_gates_exhaust_eps () =
  run_app (fun _sys env ->
      (* 6 general EPs; receive gates pin them permanently. *)
      for _ = 1 to 6 do
        ignore (ok (Gate.create_recv env ~slot_order:6 ~slot_count:1))
      done;
      check_bool "7th receive gate fails" true
        (match Gate.create_recv env ~slot_order:6 ~slot_count:1 with
        | exception Errno.Error Errno.E_no_ep -> true
        | Error Errno.E_no_ep -> true
        | _ -> false);
      0)

let test_spm_exhaustion () =
  run_app (fun _sys env ->
      (* The 64 KiB scratchpad bounds allocations. *)
      let ok_alloc = Env.alloc_spm env ~size:(48 * 1024) in
      check_bool "large alloc fits" true (ok_alloc > 0);
      check_bool "overflow rejected" true
        (match Env.alloc_spm env ~size:(32 * 1024) with
        | exception Errno.Error Errno.E_no_space -> true
        | _ -> false);
      0)

(* --- syscall / service error paths ----------------------------------------- *)

let test_bad_selectors () =
  run_app (fun _sys env ->
      check_bool "activate bad sel" true
        (Syscalls.activate env ~sel:9999 ~ep:3 = Error Errno.E_no_sel);
      check_bool "revoke bad sel" true
        (Syscalls.revoke env ~sel:9999 = Error Errno.E_no_sel);
      check_bool "wait on non-vpe cap" true
        (Syscalls.vpe_wait env ~vpe_sel:Env.sel_mem = Error Errno.E_inv_args);
      check_bool "activate own vpe cap" true
        (Syscalls.activate env ~sel:Env.sel_vpe ~ep:3 = Error Errno.E_inv_args);
      check_bool "activate reserved ep" true
        (Syscalls.activate env ~sel:Env.sel_mem ~ep:0 = Error Errno.E_inv_args);
      0)

let test_unknown_service_and_program () =
  run_app (fun _sys env ->
      check_bool "open_sess unknown service" true
        (Syscalls.open_sess env ~srv:"nope" ~arg:0 = Error Errno.E_not_found);
      let vpe =
        ok (M3.Vpe_api.create env ~name:"x" ~core:M3_hw.Core_type.General_purpose)
      in
      check_bool "start unknown program" true
        (Syscalls.vpe_start env ~vpe_sel:vpe.M3.Vpe_api.vpe_sel
           ~prog:"no-such-program" ~args:Bytes.empty
        = Error Errno.E_not_found);
      0)

let test_double_service_registration () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let register_one name =
    Bootstrap.launch sys ~name (fun env ->
        let kr = ok (Gate.create_recv env ~slot_order:8 ~slot_count:4) in
        let cr = ok (Gate.create_recv env ~slot_order:8 ~slot_count:4) in
        match
          Syscalls.create_srv env ~name:"dup" ~krgate_sel:kr.Gate.rg_sel
            ~crgate_sel:cr.Gate.rg_sel
        with
        | Ok _ -> 0
        | Error Errno.E_exists -> 42
        | Error _ -> 1)
  in
  let a = register_one "srv-a" in
  let b = register_one "srv-b" in
  ignore (Engine.run engine);
  let codes =
    List.sort compare
      [ Option.get (Process.Ivar.peek a); Option.get (Process.Ivar.peek b) ]
  in
  Alcotest.(check (list int)) "one wins, one E_exists" [ 0; 42 ] codes;
  (* The winner exited, which revoked its service capability — the
     registration dies with its owner. *)
  check_bool "service deregistered when owner exits" false
    (Kernel.service_registered sys.Bootstrap.kernel ~name:"dup")

let test_exchange_with_unrelated_vpe_fails () =
  run_app (fun _sys env ->
      (* Delegating via a selector that is a MEM cap, not a VPE cap. *)
      check_bool "exchange needs a vpe cap" true
        (Syscalls.delegate env ~vpe_sel:Env.sel_mem ~own_sel:Env.sel_mem
           ~other_sel:50
        = Error Errno.E_inv_args);
      0)

let test_args_reach_child () =
  run_app (fun _sys env ->
      let vpe =
        ok (M3.Vpe_api.create env ~name:"argv" ~core:M3_hw.Core_type.General_purpose)
      in
      ok
        (M3.Vpe_api.run env vpe
           ~args:(Bytes.of_string "payload-42")
           (fun cenv ->
             if Bytes.to_string cenv.Env.args = "payload-42" then 7 else 1));
      check_int "child saw the args" 7 (ok (M3.Vpe_api.wait env vpe));
      0)

let test_kernel_stats () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let exit =
    Bootstrap.launch sys ~name:"stats" (fun env ->
        for _ = 1 to 10 do
          ok (Syscalls.noop env)
        done;
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  (* 10 noops + the exit syscall (plus nothing else on a bare system). *)
  check_int "syscalls counted" 11 (Kernel.syscalls_handled sys.Bootstrap.kernel)

let test_two_clients_share_m3fs () =
  (* Two applications with independent sessions write and cross-read
     files concurrently; the image stays consistent. *)
  let engine = Engine.create () in
  let sys = Bootstrap.start engine in
  let client k peer =
    Bootstrap.launch sys ~name:(Printf.sprintf "client%d" k) (fun env ->
        ok (M3.Vfs.mount_root env);
        let path = Printf.sprintf "/c%d.txt" k in
        let f =
          ok
            (M3.Vfs.open_ env path
               ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_create))
        in
        ok (M3.File.write_string env f (Printf.sprintf "written by %d" k));
        ok (M3.File.close env f);
        (* Wait for the peer's file to appear, then read it. *)
        let peer_path = Printf.sprintf "/c%d.txt" peer in
        let rec poll tries =
          if tries = 0 then Error Errno.E_not_found
          else
            match M3.Vfs.stat env peer_path with
            | Ok st when st.M3.Fs_proto.st_size > 0 -> Ok ()
            | Ok _ | Error Errno.E_not_found ->
              Process.wait 2000;
              poll (tries - 1)
            | Error e -> Error e
        in
        ok (poll 1000);
        let f = ok (M3.Vfs.open_ env peer_path ~flags:M3.Fs_proto.o_read) in
        let s = ok (M3.File.read_all env f ~max:100) in
        ok (M3.File.close env f);
        if s = Printf.sprintf "written by %d" peer then 0 else 1)
  in
  let a = client 1 2 and b = client 2 1 in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys a;
  Bootstrap.expect_exit sys b;
  match M3.M3fs.current_image engine with
  | None -> Alcotest.fail "no image"
  | Some fs -> (
    match M3.Fs_image.fsck fs with
    | Ok () -> ()
    | Error e -> Alcotest.failf "fsck: %s" e)

let test_program_registry () =
  let engine = Engine.create () in
  Program.register engine ~name:"reg-test" ~image_bytes:1024 (fun _ -> 0);
  check_bool "find" true (Program.find engine "reg-test" <> None);
  check_bool "missing" true (Program.find engine "reg-missing" = None);
  check_bool "other engine's registry" true
    (Program.find (Engine.create ()) "reg-test" = None);
  let n1 = Program.register_lambda engine ~image_bytes:1 (fun _ -> 1) in
  let n2 = Program.register_lambda engine ~image_bytes:1 (fun _ -> 2) in
  check_bool "lambda names unique" true (n1 <> n2);
  Alcotest.(check (option string))
    "shebang roundtrip" (Some "reg-test")
    (Program.parse_shebang (Program.shebang "reg-test"));
  Alcotest.(check (option string)) "no shebang" None (Program.parse_shebang "ELF")

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "os2.msgbuf",
      [
        tc "scalar/string roundtrip" test_msgbuf_roundtrip;
        tc "underflow protection" test_msgbuf_underflow;
        QCheck_alcotest.to_alcotest qcheck_msgbuf_roundtrip;
      ] );
    ( "os2.captree",
      [
        tc "recursive revoke, deepest first" test_kdata_revoke_recursive;
        tc "subtree revoke leaves the rest" test_kdata_revoke_subtree_only;
        tc "selector collisions rejected" test_kdata_selector_collision;
        QCheck_alcotest.to_alcotest qcheck_kdata_revoke_root_empties_everything;
        QCheck_alcotest.to_alcotest qcheck_kdata_unlink_matches_list;
      ] );
    ( "os2.epmux",
      [
        tc "eviction under pressure" test_epmux_eviction_round_robin;
        tc "sticky within capacity" test_epmux_sticky_within_capacity;
        tc "receive gates exhaust endpoints" test_recv_gates_exhaust_eps;
        tc "SPM exhaustion" test_spm_exhaustion;
      ] );
    ( "os2.errors",
      [
        tc "bad selectors" test_bad_selectors;
        tc "unknown service and program" test_unknown_service_and_program;
        tc "double service registration" test_double_service_registration;
        tc "exchange needs a VPE cap" test_exchange_with_unrelated_vpe_fails;
        tc "args reach the child" test_args_reach_child;
        tc "two clients share m3fs" test_two_clients_share_m3fs;
        tc "kernel syscall counter" test_kernel_stats;
        tc "program registry" test_program_registry;
      ] );
  ]
