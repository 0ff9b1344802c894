(* Tests for the DTU: message passing, ringbuffers, credits, replies,
   remote memory access, and NoC-level isolation. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Store = M3_mem.Store
module Perm = M3_mem.Perm
module Endpoint = M3_dtu.Endpoint
module Dtu = M3_dtu.Dtu
module Dtu_error = M3_dtu.Dtu_error
module Header = M3_dtu.Header
module Platform = M3_hw.Platform
module Pe = M3_hw.Pe

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected DTU error: %s" (Dtu_error.to_string e)

let expect_error expected = function
  | Ok _ -> Alcotest.failf "expected error %s" (Dtu_error.to_string expected)
  | Error e ->
    check_str "error" (Dtu_error.to_string expected) (Dtu_error.to_string e)

let make_platform ?(pe_count = 4) () =
  let engine = Engine.create () in
  let config = { Platform.default_config with pe_count } in
  (engine, Platform.create ~config engine)

(* Standard test channel: PE0 receives on EP1 (ringbuffer at SPM 0x100,
   8 slots of 256 bytes), PE1 sends on EP2 with [credits]. *)
let setup_channel ?(credits = Endpoint.Credits 4) ?(label = 0x1234L) platform =
  let receiver = Platform.pe platform 0 and sender = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu receiver) ~ep:1
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 8; slot_count = 8 }));
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:2
       (Endpoint.Send
          { dst_pe = 0; dst_ep = 1; label; msg_order = 8; credits }));
  (receiver, sender)

let test_send_receive_roundtrip () =
  let engine, platform = make_platform () in
  let receiver, sender = setup_channel platform in
  let got = ref None in
  ignore
    (Pe.spawn sender ~name:"sender" (fun () ->
         ok
           (Dtu.send (Pe.dtu sender) ~ep:2
              ~payload:(Bytes.of_string "hello dtu") ())));
  ignore
    (Pe.spawn receiver ~name:"receiver" (fun () ->
         let msg = Dtu.wait_msg (Pe.dtu receiver) ~ep:1 in
         got := Some msg;
         Dtu.ack (Pe.dtu receiver) ~ep:1 ~slot:msg.slot));
  ignore (Engine.run engine);
  match !got with
  | None -> Alcotest.fail "no message delivered"
  | Some msg ->
    check_str "payload" "hello dtu" (Bytes.to_string msg.payload);
    Alcotest.(check int64) "label from EP config" 0x1234L msg.header.label;
    check_int "sender PE" 1 msg.header.sender_pe;
    check_bool "no reply allowed" false msg.header.has_reply

let test_message_lands_in_spm_ringbuffer () =
  let engine, platform = make_platform () in
  let receiver, sender = setup_channel platform in
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.of_string "XYZ") ())));
  ignore (Engine.run engine);
  (* Slot 0 of the ringbuffer: header then payload, physically in the
     receiver's scratchpad. *)
  let spm = Pe.spm receiver in
  let header = Header.read spm ~addr:0x100 in
  check_int "length in SPM header" 3 header.length;
  check_str "payload in SPM" "XYZ"
    (Store.read_string spm ~addr:(0x100 + Header.size) ~len:3)

let test_reply_roundtrip_and_credits () =
  let engine, platform = make_platform () in
  let receiver, sender = setup_channel ~credits:(Endpoint.Credits 2) platform in
  let reply_payload = ref "" in
  (* Sender also needs a receive EP for the reply. *)
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:3
       (Endpoint.Receive { buf_addr = 0x800; slot_order = 8; slot_count = 2 }));
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         ok
           (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.of_string "ping")
              ~reply:(3, 0x77L) ());
         check_int "credit consumed" 1
           (match Dtu.credits (Pe.dtu sender) ~ep:2 with
           | Some (Endpoint.Credits n) -> n
           | _ -> -1);
         let reply = Dtu.wait_msg (Pe.dtu sender) ~ep:3 in
         reply_payload := Bytes.to_string reply.payload;
         Alcotest.(check int64) "reply label" 0x77L reply.header.label;
         check_bool "marked as reply" true reply.header.is_reply;
         Dtu.ack (Pe.dtu sender) ~ep:3 ~slot:reply.slot));
  ignore
    (Pe.spawn receiver ~name:"r" (fun () ->
         let msg = Dtu.wait_msg (Pe.dtu receiver) ~ep:1 in
         check_bool "reply allowed" true msg.header.has_reply;
         ok
           (Dtu.reply (Pe.dtu receiver) ~ep:1 ~slot:msg.slot
              ~payload:(Bytes.of_string "pong"))));
  ignore (Engine.run engine);
  check_str "reply payload" "pong" !reply_payload;
  check_int "credit refilled by reply" 2
    (match Dtu.credits (Pe.dtu sender) ~ep:2 with
    | Some (Endpoint.Credits n) -> n
    | _ -> -1)

let test_credits_block_sending () =
  let engine, platform = make_platform () in
  let _receiver, sender = setup_channel ~credits:(Endpoint.Credits 2) platform in
  let third = ref (Ok ()) in
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:Bytes.empty ());
         ok (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:Bytes.empty ());
         third := Dtu.send (Pe.dtu sender) ~ep:2 ~payload:Bytes.empty ()));
  ignore (Engine.run engine);
  expect_error Dtu_error.No_credits !third

let test_unlimited_credits () =
  let engine, platform = make_platform () in
  let receiver, sender = setup_channel ~credits:Endpoint.Unlimited platform in
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         for i = 0 to 5 do
           ok
             (Dtu.send (Pe.dtu sender) ~ep:2
                ~payload:(Bytes.of_string (string_of_int i)) ())
         done));
  let seen = ref [] in
  ignore
    (Pe.spawn receiver ~name:"r" (fun () ->
         for _ = 0 to 5 do
           let msg = Dtu.wait_msg (Pe.dtu receiver) ~ep:1 in
           seen := Bytes.to_string msg.payload :: !seen;
           Dtu.ack (Pe.dtu receiver) ~ep:1 ~slot:msg.slot
         done));
  ignore (Engine.run engine);
  Alcotest.(check (list string))
    "all delivered in order"
    [ "0"; "1"; "2"; "3"; "4"; "5" ]
    (List.rev !seen)

let test_ringbuffer_overflow_drops () =
  let engine, platform = make_platform () in
  (* 2-slot ringbuffer, unlimited credits, receiver never acks: the
     third message must be dropped, not corrupt the buffer. *)
  let receiver = Platform.pe platform 0 and sender = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu receiver) ~ep:1
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 8; slot_count = 2 }));
  ok
    (Dtu.config_local (Pe.dtu sender) ~ep:2
       (Endpoint.Send
          {
            dst_pe = 0;
            dst_ep = 1;
            label = 0L;
            msg_order = 8;
            credits = Endpoint.Unlimited;
          }));
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         for i = 0 to 2 do
           ok
             (Dtu.send (Pe.dtu sender) ~ep:2
                ~payload:(Bytes.of_string (string_of_int i)) ())
         done));
  ignore (Engine.run engine);
  check_int "one drop" 1 (Dtu.msgs_dropped (Pe.dtu receiver));
  check_int "two delivered" 2 (Dtu.msgs_received (Pe.dtu receiver))

let test_ringbuffer_wraparound () =
  let engine, platform = make_platform () in
  let receiver, sender = setup_channel ~credits:Endpoint.Unlimited platform in
  let seen = ref [] in
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         for i = 0 to 19 do
           ok
             (Dtu.send (Pe.dtu sender) ~ep:2
                ~payload:(Bytes.of_string (Printf.sprintf "m%02d" i)) ());
           (* Give the receiver time to drain (8 slots only). *)
           Process.wait 100
         done));
  ignore
    (Pe.spawn receiver ~name:"r" (fun () ->
         for _ = 0 to 19 do
           let msg = Dtu.wait_msg (Pe.dtu receiver) ~ep:1 in
           seen := Bytes.to_string msg.payload :: !seen;
           Dtu.ack (Pe.dtu receiver) ~ep:1 ~slot:msg.slot
         done));
  ignore (Engine.run engine);
  check_int "all 20 received" 20 (List.length !seen);
  Alcotest.(check (list string))
    "in order"
    (List.init 20 (Printf.sprintf "m%02d"))
    (List.rev !seen)

let test_msg_too_big () =
  let engine, platform = make_platform () in
  let _receiver, sender = setup_channel platform in
  let result = ref (Ok ()) in
  ignore
    (Pe.spawn sender ~name:"s" (fun () ->
         result :=
           Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.create 300) ()));
  ignore (Engine.run engine);
  expect_error Dtu_error.Msg_too_big !result

let test_send_on_wrong_ep_kind () =
  let engine, platform = make_platform () in
  let receiver, _sender = setup_channel platform in
  let result = ref (Ok ()) in
  ignore
    (Pe.spawn receiver ~name:"r" (fun () ->
         result := Dtu.send (Pe.dtu receiver) ~ep:1 ~payload:Bytes.empty ()));
  ignore (Engine.run engine);
  expect_error Dtu_error.Invalid_ep !result

(* --- memory endpoints --- *)

let test_mem_write_read_dram () =
  let engine, platform = make_platform () in
  let pe = Platform.pe platform 0 in
  let dram_node = Platform.dram_node platform in
  ok
    (Dtu.config_local (Pe.dtu pe) ~ep:4
       (Endpoint.Memory
          { dst_pe = dram_node; base = 0x1000; size = 0x1000; perm = Perm.rw }));
  ignore
    (Pe.spawn pe ~name:"mem" (fun () ->
         Store.write_string (Pe.spm pe) ~addr:0 "M3 over the NoC!";
         ok (Dtu.write_mem (Pe.dtu pe) ~ep:4 ~off:0x10 ~local:0 ~len:16);
         (* Round-trip through DRAM into a different SPM location. *)
         ok (Dtu.read_mem (Pe.dtu pe) ~ep:4 ~off:0x10 ~local:0x40 ~len:16);
         check_str "roundtrip" "M3 over the NoC!"
           (Store.read_string (Pe.spm pe) ~addr:0x40 ~len:16)));
  ignore (Engine.run engine);
  (* The data really is in DRAM at base+off. *)
  check_str "in dram" "M3 over the NoC!"
    (Store.read_string (Platform.dram platform) ~addr:0x1010 ~len:16)

let test_mem_perms_enforced () =
  let engine, platform = make_platform () in
  let pe = Platform.pe platform 0 in
  let dram_node = Platform.dram_node platform in
  ok
    (Dtu.config_local (Pe.dtu pe) ~ep:4
       (Endpoint.Memory
          { dst_pe = dram_node; base = 0; size = 0x100; perm = Perm.r }));
  let write_result = ref (Ok ()) and oob_result = ref (Ok ()) in
  ignore
    (Pe.spawn pe ~name:"mem" (fun () ->
         write_result := Dtu.write_mem (Pe.dtu pe) ~ep:4 ~off:0 ~local:0 ~len:8;
         oob_result := Dtu.read_mem (Pe.dtu pe) ~ep:4 ~off:0xF8 ~local:0 ~len:16));
  ignore (Engine.run engine);
  expect_error Dtu_error.No_perm !write_result;
  expect_error Dtu_error.Out_of_bounds !oob_result

let test_mem_spm_to_spm () =
  let engine, platform = make_platform () in
  let a = Platform.pe platform 0 and b = Platform.pe platform 2 in
  (* Memory EP pointing at another PE's scratchpad. *)
  ok
    (Dtu.config_local (Pe.dtu a) ~ep:5
       (Endpoint.Memory { dst_pe = 2; base = 0x2000; size = 64; perm = Perm.rw }));
  Store.write_string (Pe.spm b) ~addr:0x2000 "remote scratchpad";
  ignore
    (Pe.spawn a ~name:"rdma" (fun () ->
         ok (Dtu.read_mem (Pe.dtu a) ~ep:5 ~off:0 ~local:0x80 ~len:17);
         check_str "spm-to-spm rdma" "remote scratchpad"
           (Store.read_string (Pe.spm a) ~addr:0x80 ~len:17)));
  ignore (Engine.run engine)

let test_bulk_transfer_time () =
  let engine, platform = make_platform () in
  let pe = Platform.pe platform 0 in
  let dram_node = Platform.dram_node platform in
  let len = 2 * 1024 * 1024 in
  ok
    (Dtu.config_local (Pe.dtu pe) ~ep:4
       (Endpoint.Memory
          { dst_pe = dram_node; base = 0; size = len; perm = Perm.rw }));
  let elapsed = ref 0 in
  ignore
    (Pe.spawn pe ~name:"bulk" (fun () ->
         let t0 = Engine.now engine in
         (* SPM is 64 KiB: transfer in 16 KiB chunks like libm3 would. *)
         let chunk = 16 * 1024 in
         let off = ref 0 in
         while !off < len do
           ok (Dtu.read_mem (Pe.dtu pe) ~ep:4 ~off:!off ~local:0 ~len:chunk);
           off := !off + chunk
         done;
         elapsed := Engine.now engine - t0));
  ignore (Engine.run engine);
  let ideal = len / 8 in
  check_bool "at least 8B/cycle bound" true (!elapsed >= ideal);
  (* Overhead (headers, hops, per-chunk requests) stays under 10%. *)
  check_bool "within 10% of 8B/cycle" true (!elapsed < ideal * 11 / 10)

(* --- NoC-level isolation / external commands --- *)

let test_ext_config_and_downgrade () =
  let engine, platform = make_platform () in
  let kernel = Platform.pe platform 0 and app = Platform.pe platform 1 in
  ignore
    (Pe.spawn kernel ~name:"kernel" (fun () ->
         (* Kernel configures an endpoint remotely, then downgrades. *)
         ok
           (Dtu.ext_config (Pe.dtu kernel) ~target:1 ~ep:0
              (Endpoint.Receive
                 { buf_addr = 0x100; slot_order = 6; slot_count = 4 }));
         ok (Dtu.ext_set_privileged (Pe.dtu kernel) ~target:1 false);
         check_bool "app downgraded" false (Dtu.is_privileged (Pe.dtu app))));
  ignore (Engine.run engine);
  (match Dtu.ep_config (Pe.dtu app) ~ep:0 with
  | Endpoint.Receive r -> check_int "configured remotely" 4 r.slot_count
  | _ -> Alcotest.fail "EP not configured");
  (* The downgraded app cannot configure its own endpoints... *)
  let local = ref (Ok ()) and remote = ref (Ok ()) in
  ignore
    (Pe.spawn app ~name:"app" (fun () ->
         local := Dtu.config_local (Pe.dtu app) ~ep:3 Endpoint.Invalid;
         (* ...nor reach into other DTUs over the NoC. *)
         remote := Dtu.ext_invalidate (Pe.dtu app) ~target:0 ~ep:0));
  ignore (Engine.run engine);
  expect_error Dtu_error.Not_privileged !local;
  expect_error Dtu_error.Not_privileged !remote

(* The kernel reads a target PE's SPM over the NoC, as its PE probe
   does; the bytes are placed there directly. *)
let test_ext_read () =
  let engine, platform = make_platform () in
  let kernel = Platform.pe platform 0 in
  Store.write_string (Pe.spm (Platform.pe platform 2)) ~addr:0x500 "boot image";
  let back = ref "" in
  ignore
    (Pe.spawn kernel ~name:"kernel" (fun () ->
         back :=
           Bytes.to_string
             (ok (Dtu.ext_read (Pe.dtu kernel) ~target:2 ~addr:0x500 ~len:10))));
  ignore (Engine.run engine);
  check_str "ext read over the NoC" "boot image" !back

let test_ext_reset_invalidates () =
  let engine, platform = make_platform () in
  let kernel = Platform.pe platform 0 and app = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu app) ~ep:2
       (Endpoint.Memory { dst_pe = 0; base = 0; size = 8; perm = Perm.r }));
  ignore
    (Pe.spawn kernel ~name:"kernel" (fun () ->
         ok (Dtu.ext_reset (Pe.dtu kernel) ~target:1)));
  ignore (Engine.run engine);
  check_bool "all EPs invalid" true
    (List.for_all
       (fun ep -> Dtu.ep_config (Pe.dtu app) ~ep = Endpoint.Invalid)
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_syscall_shaped_latency () =
  (* A 16-byte request + 16-byte reply between neighbours should cost
     on the order of 30 cycles — the paper's "message transfers" share
     of the 200-cycle syscall. *)
  let engine, platform = make_platform () in
  let kernel = Platform.pe platform 0 and app = Platform.pe platform 1 in
  ok
    (Dtu.config_local (Pe.dtu kernel) ~ep:0
       (Endpoint.Receive { buf_addr = 0x100; slot_order = 8; slot_count = 8 }));
  ok
    (Dtu.config_local (Pe.dtu app) ~ep:0
       (Endpoint.Send
          {
            dst_pe = 0;
            dst_ep = 0;
            label = 1L;
            msg_order = 8;
            credits = Endpoint.Credits 1;
          }));
  ok
    (Dtu.config_local (Pe.dtu app) ~ep:1
       (Endpoint.Receive { buf_addr = 0x800; slot_order = 8; slot_count = 1 }));
  let elapsed = ref 0 in
  ignore
    (Pe.spawn app ~name:"app" (fun () ->
         let t0 = Engine.now engine in
         ok
           (Dtu.send (Pe.dtu app) ~ep:0 ~payload:(Bytes.create 16)
              ~reply:(1, 0L) ());
         let reply = Dtu.wait_msg (Pe.dtu app) ~ep:1 in
         Dtu.ack (Pe.dtu app) ~ep:1 ~slot:reply.slot;
         elapsed := Engine.now engine - t0));
  ignore
    (Pe.spawn kernel ~name:"kernel" (fun () ->
         let msg = Dtu.wait_msg (Pe.dtu kernel) ~ep:0 in
         ok (Dtu.reply (Pe.dtu kernel) ~ep:0 ~slot:msg.slot ~payload:(Bytes.create 16))));
  ignore (Engine.run engine);
  check_bool
    (Printf.sprintf "round-trip 20..60 cycles (got %d)" !elapsed)
    true
    (!elapsed >= 20 && !elapsed <= 60)

let qcheck_credit_invariant =
  QCheck.Test.make ~name:"credits bound in-flight messages; none dropped"
    ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 30))
    (fun (credit_count, rounds) ->
      let engine, platform = make_platform () in
      let receiver, sender =
        setup_channel ~credits:(Endpoint.Credits credit_count) platform
      in
      (* Sender fires-and-waits-for-reply [rounds] times; receiver
         replies to everything. With credits <= slots, nothing may ever
         be dropped. *)
      ignore
        (Pe.spawn receiver ~name:"r" (fun () ->
             for _ = 1 to rounds do
               let msg = Dtu.wait_msg (Pe.dtu receiver) ~ep:1 in
               ok
                 (Dtu.reply (Pe.dtu receiver) ~ep:1 ~slot:msg.slot
                    ~payload:Bytes.empty)
             done));
      ok
        (Dtu.config_local (Pe.dtu sender) ~ep:3
           (Endpoint.Receive { buf_addr = 0x900; slot_order = 6; slot_count = 8 }));
      ignore
        (Pe.spawn sender ~name:"s" (fun () ->
             for _ = 1 to rounds do
               ok
                 (Dtu.send (Pe.dtu sender) ~ep:2 ~payload:(Bytes.create 8)
                    ~reply:(3, 0L) ());
               let reply = Dtu.wait_msg (Pe.dtu sender) ~ep:3 in
               Dtu.ack (Pe.dtu sender) ~ep:3 ~slot:reply.slot
             done));
      ignore (Engine.run engine);
      Dtu.msgs_dropped (Pe.dtu receiver) = 0
      && Dtu.msgs_dropped (Pe.dtu sender) = 0
      && Dtu.msgs_received (Pe.dtu receiver) = rounds)

(* --- ring unread count ------------------------------------------------- *)

(* Each receive EP counts its unread slots; [buffered] reads the count
   and an empty [fetch] returns at once. Random mixes of deliveries,
   fetches, acks (of read and unread slots), replies and a
   capture/restore of the receiver must keep the count equal to what
   [fetch] then returns. *)
let qcheck_buffered_matches_fetch =
  QCheck.Test.make ~name:"buffered equals what fetch returns" ~count:60
    QCheck.(list_of_size Gen.(int_range 5 40) (int_bound 7))
    (fun script ->
      let engine, platform = make_platform () in
      let receiver, sender =
        setup_channel ~credits:Endpoint.Unlimited platform
      in
      ok
        (Dtu.config_local (Pe.dtu sender) ~ep:3
           (Endpoint.Receive
              { buf_addr = 0x800; slot_order = 8; slot_count = 8 }));
      let recv = Pe.dtu receiver and kernel = Pe.dtu (Platform.pe platform 2) in
      let fetched = ref [] and agree = ref true in
      let fetch () =
        match Dtu.fetch recv ~ep:1 with
        | Some m ->
          fetched := m.Endpoint.slot :: !fetched;
          true
        | None -> false
      in
      let check () =
        let n = Dtu.buffered recv ~ep:1 in
        let rec drain k = if fetch () then drain (k + 1) else k in
        if drain 0 <> n then agree := false
      in
      let take () =
        match !fetched with
        | slot :: rest ->
          fetched := rest;
          Some slot
        | [] -> None
      in
      let driver =
        Pe.spawn sender ~name:"driver" (fun () ->
            List.iteri
              (fun i op ->
                (match op with
                | 0 | 1 | 2 ->
                  ok
                    (Dtu.send (Pe.dtu sender) ~ep:2
                       ~payload:(Bytes.of_string (string_of_int i))
                       ~reply:(3, Int64.of_int i) ())
                | 3 -> ignore (fetch ())
                | 4 ->
                  (* Any slot: read, unread or empty. *)
                  let slot = i mod 8 in
                  fetched := List.filter (( <> ) slot) !fetched;
                  Dtu.ack recv ~ep:1 ~slot
                | 5 -> (
                  match take () with
                  | Some slot ->
                    ignore
                      (Dtu.reply recv ~ep:1 ~slot
                         ~payload:(Bytes.of_string "r"))
                  | None -> ())
                | 6 ->
                  let snap = ok (Dtu.ext_capture kernel ~target:0) in
                  ok (Dtu.ext_restore kernel ~target:0 snap)
                | _ -> check ());
                Process.wait 2000)
              script;
            check ())
      in
      ignore (Engine.run engine);
      Process.status driver = Process.Finished && !agree)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "dtu.messages",
      [
        tc "send/receive roundtrip" test_send_receive_roundtrip;
        tc "message lands in SPM ringbuffer" test_message_lands_in_spm_ringbuffer;
        tc "reply roundtrip refills credits" test_reply_roundtrip_and_credits;
        tc "credits block sending" test_credits_block_sending;
        tc "unlimited credits" test_unlimited_credits;
        tc "ringbuffer overflow drops" test_ringbuffer_overflow_drops;
        tc "ringbuffer wraparound in order" test_ringbuffer_wraparound;
        tc "message too big rejected" test_msg_too_big;
        tc "send on receive EP rejected" test_send_on_wrong_ep_kind;
        QCheck_alcotest.to_alcotest qcheck_credit_invariant;
        QCheck_alcotest.to_alcotest qcheck_buffered_matches_fetch;
      ] );
    ( "dtu.memory",
      [
        tc "write/read DRAM roundtrip" test_mem_write_read_dram;
        tc "permissions enforced" test_mem_perms_enforced;
        tc "SPM-to-SPM RDMA" test_mem_spm_to_spm;
        tc "2 MiB at ~8 bytes/cycle" test_bulk_transfer_time;
      ] );
    ( "dtu.isolation",
      [
        tc "ext config then downgrade" test_ext_config_and_downgrade;
        tc "ext raw write/read" test_ext_read;
        tc "ext reset invalidates all EPs" test_ext_reset_invalidates;
        tc "syscall-shaped message latency" test_syscall_shaped_latency;
      ] );
  ]
