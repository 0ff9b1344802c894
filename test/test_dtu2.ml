(* DTU and kernel edge cases: reply-info one-shot use, invalidation
   mid-flight, wait_any, the deadline-aware Dtu.wait, deferred waits
   with multiple waiters, and image re-attachment. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Store = M3_mem.Store
module Endpoint = M3_dtu.Endpoint
module Dtu = M3_dtu.Dtu
module Dtu_error = M3_dtu.Dtu_error
module Platform = M3_hw.Platform
module Pe = M3_hw.Pe

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "DTU error: %s" (Dtu_error.to_string e)

let make_platform () =
  let engine = Engine.create () in
  let config = { Platform.default_config with pe_count = 4 } in
  (engine, Platform.create ~config engine)

let recv_cfg ~addr ~slots =
  Endpoint.Receive { buf_addr = addr; slot_order = 8; slot_count = slots }

let send_cfg ?(credits = Endpoint.Credits 4) ~dst_pe ~dst_ep () =
  Endpoint.Send { dst_pe; dst_ep; label = 0L; msg_order = 8; credits }

(* Replying to the same slot twice must fail: the first reply consumes
   the stored reply information (§4.4.4's security concern). *)
let test_reply_is_one_shot () =
  let engine, platform = make_platform () in
  let a = Platform.pe platform 0 and b = Platform.pe platform 1 in
  ok (Dtu.config_local (Pe.dtu a) ~ep:1 (recv_cfg ~addr:0x100 ~slots:4));
  ok (Dtu.config_local (Pe.dtu b) ~ep:2 (send_cfg ~dst_pe:0 ~dst_ep:1 ()));
  ok (Dtu.config_local (Pe.dtu b) ~ep:3 (recv_cfg ~addr:0x100 ~slots:4));
  let second = ref (Ok ()) in
  ignore
    (Pe.spawn b ~name:"sender" (fun () ->
         ok (Dtu.send (Pe.dtu b) ~ep:2 ~payload:Bytes.empty ~reply:(3, 0L) ())));
  ignore
    (Pe.spawn a ~name:"recv" (fun () ->
         let m = Dtu.wait_msg (Pe.dtu a) ~ep:1 in
         ok (Dtu.reply (Pe.dtu a) ~ep:1 ~slot:m.slot ~payload:Bytes.empty);
         second := Dtu.reply (Pe.dtu a) ~ep:1 ~slot:m.slot ~payload:Bytes.empty));
  ignore (Engine.run engine);
  check_bool "second reply rejected" true
    (match !second with
    | Error (Dtu_error.Invalid_ep | Dtu_error.No_reply_cap) -> true
    | Ok () | Error _ -> false)

let test_send_after_invalidate_fails () =
  let engine, platform = make_platform () in
  let a = Platform.pe platform 0 and b = Platform.pe platform 1 in
  ok (Dtu.config_local (Pe.dtu a) ~ep:1 (recv_cfg ~addr:0x100 ~slots:4));
  ok (Dtu.config_local (Pe.dtu b) ~ep:2 (send_cfg ~dst_pe:0 ~dst_ep:1 ()));
  let result = ref (Ok ()) in
  ignore
    (Pe.spawn a ~name:"kernel-ish" (fun () ->
         (* PE0 still privileged: tear the sender's EP down remotely. *)
         ok (Dtu.ext_invalidate (Pe.dtu a) ~target:1 ~ep:2)));
  ignore
    (Pe.spawn b ~name:"sender" (fun () ->
         Process.wait 200;
         result := Dtu.send (Pe.dtu b) ~ep:2 ~payload:Bytes.empty ()));
  ignore (Engine.run engine);
  check_bool "send on invalidated EP fails" true
    (!result = Error Dtu_error.Invalid_ep)

(* [hub_start] cycles in, the hub takes two messages with [wait]; the
   sources send at 0 and 500. *)
let two_sources ~hub_start ~wait =
  let engine, platform = make_platform () in
  let hub = Platform.pe platform 0 in
  let s1 = Platform.pe platform 1 and s2 = Platform.pe platform 2 in
  ok (Dtu.config_local (Pe.dtu hub) ~ep:1 (recv_cfg ~addr:0x100 ~slots:4));
  ok (Dtu.config_local (Pe.dtu hub) ~ep:2 (recv_cfg ~addr:0x800 ~slots:4));
  ok (Dtu.config_local (Pe.dtu s1) ~ep:2 (send_cfg ~dst_pe:0 ~dst_ep:1 ()));
  ok (Dtu.config_local (Pe.dtu s2) ~ep:2 (send_cfg ~dst_pe:0 ~dst_ep:2 ()));
  let arrivals = ref [] in
  ignore
    (Pe.spawn s1 ~name:"s1" (fun () ->
         Process.wait 100;
         ok (Dtu.send (Pe.dtu s1) ~ep:2 ~payload:(Bytes.of_string "one") ())));
  ignore
    (Pe.spawn s2 ~name:"s2" (fun () ->
         Process.wait 500;
         ok (Dtu.send (Pe.dtu s2) ~ep:2 ~payload:(Bytes.of_string "two") ())));
  ignore
    (Pe.spawn hub ~name:"hub" (fun () ->
         Process.wait hub_start;
         for _ = 1 to 2 do
           let msg : Endpoint.message = wait (Pe.dtu hub) in
           arrivals := (msg.ep, Bytes.to_string msg.payload) :: !arrivals;
           Dtu.ack (Pe.dtu hub) ~ep:msg.ep ~slot:msg.slot
         done));
  ignore (Engine.run engine);
  List.rev !arrivals

let test_wait_any_two_sources () =
  let check = Alcotest.(check (list (pair int string))) in
  check "both endpoints served in arrival order"
    [ (1, "one"); (2, "two") ]
    (two_sources ~hub_start:0 ~wait:(fun dtu -> Dtu.wait_any dtu ~eps:[ 1; 2 ]));
  (* Once both rings hold a message, the first endpoint listed wins,
     and a deadline long gone does not hide what is waiting. *)
  check "first endpoint listed served first"
    [ (2, "two"); (1, "one") ]
    (two_sources ~hub_start:1_000 ~wait:(fun dtu ->
         Option.get (Dtu.wait dtu ~eps:[ 2; 1 ] ~deadline:0)))

(* A timed wait with nothing sent returns [None] exactly at its
   deadline and leaves no registration on any watched EP. *)
let test_wait_times_out_at_deadline () =
  List.iter
    (fun eps ->
      let engine, platform = make_platform () in
      let hub = Platform.pe platform 0 in
      ok (Dtu.config_local (Pe.dtu hub) ~ep:1 (recv_cfg ~addr:0x100 ~slots:4));
      ok (Dtu.config_local (Pe.dtu hub) ~ep:2 (recv_cfg ~addr:0x800 ~slots:4));
      let outcome = ref None and at = ref (-1) in
      ignore
        (Pe.spawn hub ~name:"hub" (fun () ->
             Process.wait 100;
             outcome := Some (Dtu.wait (Pe.dtu hub) ~eps ~deadline:1_000);
             at := Engine.now engine));
      ignore (Engine.run engine);
      check_bool "nothing delivered" true (!outcome = Some None);
      check_int "returned at the deadline cycle" 1_000 !at;
      check_int "no waiters on ep1" 0 (Dtu.waiters (Pe.dtu hub) ~ep:1);
      check_int "no waiters on ep2" 0 (Dtu.waiters (Pe.dtu hub) ~ep:2))
    [ [ 1 ]; [ 1; 2 ] ]

let test_message_to_nonrecv_ep_dropped () =
  let engine, platform = make_platform () in
  let a = Platform.pe platform 0 and b = Platform.pe platform 1 in
  (* Target EP is a MEMORY endpoint: the message must be dropped. *)
  ok
    (Dtu.config_local (Pe.dtu a) ~ep:1
       (Endpoint.Memory { dst_pe = 4; base = 0; size = 64; perm = M3_mem.Perm.r }));
  ok (Dtu.config_local (Pe.dtu b) ~ep:2 (send_cfg ~dst_pe:0 ~dst_ep:1 ()));
  ignore
    (Pe.spawn b ~name:"sender" (fun () ->
         ok (Dtu.send (Pe.dtu b) ~ep:2 ~payload:(Bytes.of_string "x") ())));
  ignore (Engine.run engine);
  check_int "dropped" 1 (Dtu.msgs_dropped (Pe.dtu a));
  check_int "not received" 0 (Dtu.msgs_received (Pe.dtu a))

(* --- kernel: multiple deferred waiters ---------------------------------- *)

let test_two_waiters_one_vpe () =
  let engine = Engine.create () in
  let sys = M3.Bootstrap.start ~no_fs:true engine in
  let okk = M3.Errno.ok_exn in
  let exit =
    M3.Bootstrap.launch sys ~name:"parent" (fun env ->
        let vpe =
          okk
            (M3.Vpe_api.create env ~name:"shared"
               ~core:M3_hw.Core_type.General_purpose)
        in
        (* Delegate the VPE capability to a sibling, which also waits. *)
        let sibling =
          okk
            (M3.Vpe_api.create env ~name:"sibling"
               ~core:M3_hw.Core_type.General_purpose)
        in
        okk
          (M3.Syscalls.delegate env ~vpe_sel:sibling.M3.Vpe_api.vpe_sel
             ~own_sel:vpe.M3.Vpe_api.vpe_sel ~other_sel:700);
        okk
          (M3.Vpe_api.run env sibling (fun senv ->
               (* The sibling waits on the shared VPE via its delegated
                  capability. *)
               match M3.Syscalls.vpe_wait senv ~vpe_sel:700 with
               | Ok 5 -> 0
               | Ok c -> c
               | Error _ -> 99));
        okk
          (M3.Vpe_api.run env vpe (fun _ ->
               M3_sim.Process.wait 30_000;
               5));
        (* Both the parent and the sibling block on the same exit. *)
        let code = okk (M3.Vpe_api.wait env vpe) in
        let sib = okk (M3.Vpe_api.wait env sibling) in
        if code = 5 && sib = 0 then 0 else 1)
  in
  ignore (Engine.run engine);
  M3.Bootstrap.expect_exit sys exit

(* --- image re-attachment ---------------------------------------------------- *)

let test_fs_image_attach () =
  let store = Store.create ~name:"disk" ~size:(1024 * 1024) in
  let fs =
    M3.Fs_image.format store ~base:4096 ~size:(768 * 1024) ~block_size:1024
      ~inode_count:64
  in
  ignore (M3.Errno.ok_exn (M3.Fs_image.mkdir fs "/d"));
  let ino = M3.Errno.ok_exn (M3.Fs_image.create_file fs "/d/file") in
  ignore (M3.Errno.ok_exn (M3.Fs_image.append_extent fs ~ino ~blocks:3));
  M3.Fs_image.set_file_size fs ~ino 2222;
  (* Re-open purely from the bytes, as a persistent mount would. *)
  match M3.Fs_image.attach store ~base:4096 with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok fs2 ->
    let ino2, _ = M3.Errno.ok_exn (M3.Fs_image.lookup fs2 "/d/file") in
    check_int "same inode" ino ino2;
    check_int "size survives" 2222 (M3.Fs_image.file_size fs2 ~ino:ino2);
    check_int "extents survive" 1
      (List.length (M3.Fs_image.extents fs2 ~ino:ino2));
    (match M3.Fs_image.fsck fs2 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "fsck after attach: %s" e);
    check_bool "attach rejects garbage" true
      (match M3.Fs_image.attach store ~base:0 with
      | Error _ -> true
      | Ok _ -> false)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "dtu2.edges",
      [
        tc "reply information is one-shot" test_reply_is_one_shot;
        tc "send after remote invalidation fails" test_send_after_invalidate_fails;
        tc "wait_any serves two endpoints" test_wait_any_two_sources;
        tc "message to a non-receive EP drops" test_message_to_nonrecv_ep_dropped;
      ] );
    ( "dtu2.wait",
      [
        tc "timed wait returns None at its deadline"
          test_wait_times_out_at_deadline;
      ] );
    ( "dtu2.kernel",
      [ tc "two waiters on one VPE exit" test_two_waiters_one_vpe ] );
    ( "dtu2.persistence",
      [ tc "image re-attach from superblock" test_fs_image_attach ] );
  ]
