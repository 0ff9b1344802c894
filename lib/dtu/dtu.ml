module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Store = M3_mem.Store
module Perm = M3_mem.Perm
module Fabric = M3_noc.Fabric
module Obs = M3_obs.Obs
module Event = M3_obs.Event

let src = Logs.Src.create "m3.dtu" ~doc:"data transfer unit"

module Log = (val Logs.src_log src : Logs.LOG)

(* Cycles a DTU needs to accept and decode a command. *)
let cmd_latency = 4

(* Wire size of memory-access request and ext-command packets. *)
let request_bytes = 16
let ext_cmd_bytes = 32

type send_state = {
  s_dst_pe : int;
  s_dst_ep : int;
  s_label : int64;
  s_msg_order : int;
  s_max : Endpoint.credit;
  mutable s_cur : int; (* meaningful only when s_max = Credits _ *)
}

type recv_state = {
  r_buf_addr : int;
  r_slot_order : int;
  r_slot_count : int;
  mutable r_wpos : int;
  mutable r_rpos : int;
  r_occupied : bool array;
  r_unread : bool array;
}

type mem_state = {
  m_dst_pe : int;
  m_base : int;
  m_size : int;
  m_perm : Perm.t;
}

type ep_state =
  | S_invalid
  | S_send of send_state
  | S_recv of recv_state
  | S_mem of mem_state
  | S_park of send_state
      (* send EP whose destination VPE is suspended: the kernel parked
         it to freeze outbound traffic (a retry against the old PE could
         reach whoever is placed there next). Credits and config are
         preserved; the kernel rewrites it to [S_send] with the new
         destination when the VPE resumes. *)

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  pe : int;
  spm : Store.t;
  eps : ep_state array;
  ep_waiters : unit Process.Waitq.waitq array;
  mutable privileged : bool;
  mutable failed : bool; (* pe_crash fired: core and DTU answer nothing *)
  mutable suspend_pending : bool; (* kernel asked the program to quiesce *)
  mutable suspended : bool; (* state captured; deliveries NACK "suspended" *)
  mutable parked : (t -> unit) option; (* quiesced program's continuation *)
  mutable on_quiesce : (unit -> unit) option; (* kernel's quiesce callback *)
  mutable idle_since : int option; (* cycle the program parked in a wait *)
  mutable pending_replies : int; (* sends with a reply grant still unanswered *)
  mutable cmds_accepted : int;
  mutable store_of : int -> Store.t option;
  mutable dtu_of : int -> t option;
  mutable msgs_sent : int;
  mutable msgs_received : int;
  mutable msgs_dropped : int;
  mutable credits_refunded : int;
  mutable retransmits : int;
  mutable msgs_expired : int;
  mutable mem_read : int;
  mutable mem_written : int;
}

let create engine fabric ~pe ~spm ~ep_count =
  if ep_count <= 0 then invalid_arg "Dtu.create: need at least one endpoint";
  {
    engine;
    fabric;
    pe;
    spm;
    eps = Array.make ep_count S_invalid;
    ep_waiters = Array.init ep_count (fun _ -> Process.Waitq.create ());
    privileged = true;
    failed = false;
    suspend_pending = false;
    suspended = false;
    parked = None;
    on_quiesce = None;
    idle_since = None;
    pending_replies = 0;
    cmds_accepted = 0;
    store_of = (fun _ -> None);
    dtu_of = (fun _ -> None);
    msgs_sent = 0;
    msgs_received = 0;
    msgs_dropped = 0;
    credits_refunded = 0;
    retransmits = 0;
    msgs_expired = 0;
    mem_read = 0;
    mem_written = 0;
  }

let set_resolvers t ~store_of ~dtu_of =
  t.store_of <- store_of;
  t.dtu_of <- dtu_of

let pe t = t.pe
let ep_count t = Array.length t.eps
let is_privileged t = t.privileged

let check_ep t ep =
  if ep < 0 || ep >= Array.length t.eps then
    invalid_arg (Printf.sprintf "Dtu: endpoint %d out of range" ep)

let state_of_config = function
  | Endpoint.Invalid -> S_invalid
  | Endpoint.Send s ->
    let cur = match s.credits with Endpoint.Credits n -> n | Unlimited -> 0 in
    S_send
      {
        s_dst_pe = s.dst_pe;
        s_dst_ep = s.dst_ep;
        s_label = s.label;
        s_msg_order = s.msg_order;
        s_max = s.credits;
        s_cur = cur;
      }
  | Endpoint.Receive r ->
    S_recv
      {
        r_buf_addr = r.buf_addr;
        r_slot_order = r.slot_order;
        r_slot_count = r.slot_count;
        r_wpos = 0;
        r_rpos = 0;
        r_occupied = Array.make r.slot_count false;
        r_unread = Array.make r.slot_count false;
      }
  | Endpoint.Memory m ->
    S_mem { m_dst_pe = m.dst_pe; m_base = m.base; m_size = m.size; m_perm = m.perm }

let ep_config t ~ep =
  check_ep t ep;
  match t.eps.(ep) with
  | S_invalid -> Endpoint.Invalid
  | S_send s | S_park s ->
    Endpoint.Send
      {
        dst_pe = s.s_dst_pe;
        dst_ep = s.s_dst_ep;
        label = s.s_label;
        msg_order = s.s_msg_order;
        credits =
          (match s.s_max with
          | Endpoint.Unlimited -> Endpoint.Unlimited
          | Endpoint.Credits _ -> Endpoint.Credits s.s_cur);
      }
  | S_recv r ->
    Endpoint.Receive
      {
        buf_addr = r.r_buf_addr;
        slot_order = r.r_slot_order;
        slot_count = r.r_slot_count;
      }
  | S_mem m ->
    Endpoint.Memory
      { dst_pe = m.m_dst_pe; base = m.m_base; size = m.m_size; perm = m.m_perm }

let credits t ~ep =
  check_ep t ep;
  match t.eps.(ep) with
  | S_send s | S_park s -> (
    match s.s_max with
    | Endpoint.Unlimited -> Some Endpoint.Unlimited
    | Endpoint.Credits _ -> Some (Endpoint.Credits s.s_cur))
  | S_invalid | S_recv _ | S_mem _ -> None

let set_ep t ep config = t.eps.(ep) <- state_of_config config

let config_local t ~ep config =
  check_ep t ep;
  if not t.privileged then Error Dtu_error.Not_privileged
  else begin
    set_ep t ep config;
    Ok ()
  end

(* --- suspend/quiesce checkpoints -------------------------------------- *)

(* EPs 0 and 1 are the syscall send/reply channel by platform
   convention; a program blocked there is mid-syscall and must not be
   captured (the kernel's reply would land in a snapshot instead of the
   live ringbuffer). Quiesce points therefore only fire on waits whose
   endpoints are all application-level. *)
let suspendable_ep ep = ep >= 2

(* Cooperative suspend checkpoint. When the kernel has flagged this
   DTU for suspension, the calling program parks itself here and hands
   its continuation to the kernel (via [take_parked]); the kernel fires
   it after restoring the captured state — on this DTU, or on the DTU
   of the PE the VPE migrated to. Returns the DTU the program resumed
   on, which callers thread into the rest of their wait loop. When no
   suspension is pending this is a pure no-op: no time, no events. *)
let rec quiesce_point t =
  if not t.suspend_pending || t.pending_replies > 0 then
    (* An outstanding reply grant pins the VPE to this PE: the reply is
       addressed to this DTU's ringbuffer and a capture would strand it
       in the sender's retry loop aimed at the old coordinates. The
       program quiesces at the wait after the reply lands (the reply
       itself travels with the snapshot, in the ringbuffer). *)
    t
  else
    let next =
      Process.suspend (fun resume ->
          t.suspend_pending <- false;
          t.parked <- Some resume;
          match t.on_quiesce with
          | Some f ->
            t.on_quiesce <- None;
            f ()
          | None -> ())
    in
    quiesce_point next

let suspend_pending t = t.suspend_pending
let is_suspended t = t.suspended
let idle_since t = t.idle_since
let quiesced t = t.parked <> None
let set_on_quiesce t f = t.on_quiesce <- Some f

let take_parked t =
  let p = t.parked in
  t.parked <- None;
  p

(* --- message delivery (runs at the receiving DTU) ------------------- *)

let faults t = Fabric.faults t.fabric

let refill_credits t crd_ep =
  if crd_ep >= 0 && crd_ep < Array.length t.eps then
    match t.eps.(crd_ep) with
    | S_send s | S_park s -> (
      match s.s_max with
      | Endpoint.Credits max ->
        s.s_cur <- min max (s.s_cur + 1);
        true
      | Endpoint.Unlimited -> false)
    | S_invalid | S_recv _ | S_mem _ -> false
  else false

(* A NACKed delivery hands the consumed credit back to the sending EP
   (bugfix: drops used to leak Credits n bandwidth permanently). *)
let refund_credit t ~ep = if refill_credits t ep then t.credits_refunded <- t.credits_refunded + 1

let obs_drop t ~ep ~src_pe ~msg ~reason =
  let obs = Fabric.obs t.fabric in
  if Obs.enabled obs then
    Obs.emit obs (Event.Dtu_drop { pe = t.pe; ep; src_pe; msg; reason })

(* Outcome reported back to the sending DTU: [Rejected] travels as a
   NACK packet over the fabric. *)
type deliver_result =
  | Accepted
  | Rejected of string

let deliver_message t ~dst_ep ~(header : Header.t) ~payload ~msg =
  if t.suspended then begin
    (* The endpoint set is captured in a kernel-held snapshot; the
       message must wait in the sender's retry loop until the kernel
       restores the VPE (possibly on another PE). Checked before the
       endpoint lookup — the wiped EP would otherwise answer with the
       non-retryable "no recv ep" and lose the message for good. *)
    t.msgs_dropped <- t.msgs_dropped + 1;
    obs_drop t ~ep:dst_ep ~src_pe:header.sender_pe ~msg ~reason:"suspended";
    Rejected "suspended"
  end
  else if
    M3_fault.Plan.enabled (faults t)
    && header.checksum <> Header.payload_checksum payload
  then begin
    t.msgs_dropped <- t.msgs_dropped + 1;
    obs_drop t ~ep:dst_ep ~src_pe:header.sender_pe ~msg ~reason:"corrupt";
    Log.warn (fun m ->
        m "pe%d ep%d: dropped message from pe%d (checksum mismatch)" t.pe dst_ep
          header.sender_pe);
    Rejected "corrupt"
  end
  else
    match
      if dst_ep < 0 || dst_ep >= Array.length t.eps then S_invalid
      else t.eps.(dst_ep)
    with
    | S_recv r ->
      let slot_size = Endpoint.slot_size ~slot_order:r.r_slot_order in
      if
        Header.size + Bytes.length payload > slot_size || r.r_occupied.(r.r_wpos)
      then begin
        t.msgs_dropped <- t.msgs_dropped + 1;
        let reason =
          if r.r_occupied.(r.r_wpos) then "ringbuffer full" else "oversize"
        in
        obs_drop t ~ep:dst_ep ~src_pe:header.sender_pe ~msg ~reason;
        Log.warn (fun m ->
            m "pe%d ep%d: dropped message from pe%d (%s)" t.pe dst_ep
              header.sender_pe reason);
        Rejected reason
      end
      else begin
        (* The reply credit refills only on an accepted delivery; a
           rejected reply refunds through the NACK path instead, so a
           retried reply cannot refill twice. *)
        if header.is_reply then begin
          ignore (refill_credits t header.crd_ep);
          t.pending_replies <- max 0 (t.pending_replies - 1)
        end;
        let slot = r.r_wpos in
        let addr = r.r_buf_addr + (slot * slot_size) in
        Header.write t.spm ~addr header;
        Store.write_bytes t.spm ~addr:(addr + Header.size) payload ~pos:0
          ~len:(Bytes.length payload);
        r.r_occupied.(slot) <- true;
        r.r_unread.(slot) <- true;
        r.r_wpos <- (slot + 1) mod r.r_slot_count;
        t.msgs_received <- t.msgs_received + 1;
        let obs = Fabric.obs t.fabric in
        if Obs.enabled obs then
          Obs.emit obs
            (Event.Dtu_receive
               {
                 pe = t.pe;
                 ep = dst_ep;
                 src_pe = header.sender_pe;
                 bytes = Bytes.length payload;
                 msg;
               });
        Process.Waitq.broadcast t.ep_waiters.(dst_ep) ();
        Accepted
      end
    | S_invalid | S_send _ | S_mem _ | S_park _ ->
      t.msgs_dropped <- t.msgs_dropped + 1;
      obs_drop t ~ep:dst_ep ~src_pe:header.sender_pe ~msg ~reason:"no recv ep";
      Rejected "no recv ep"

(* Failures that can clear on their own (transient loss, a momentarily
   full ringbuffer, corruption) are worth retransmitting; a message
   that does not fit the channel, or a target without a DTU, never
   improves. *)
let retryable = function
  | "oversize" | "no recv ep" | "no dtu" -> false
  | _ -> true

(* A send into a suspended DTU always retransmits — even without a
   fault plan attached — because the condition clears deterministically
   when the kernel resumes the VPE. Bounded geometric backoff so a
   resume that takes a while (the scheduler may first have to make room
   on another PE) is bridged without flooding the fabric. *)
let suspend_max_retries = 100
let suspend_backoff ~attempt = min (64 lsl min attempt 7) 8192

(* [transmit] sends one attempt; [handle_failure] runs at the sending
   DTU when the attempt's NACK arrives and either schedules a
   retransmit (bounded, exponential backoff — only with a fault plan
   attached) or gives up and refunds the credit. *)
let rec transmit t ~dst_pe ~dst_ep ~(header : Header.t) ~payload ~msg ~attempt =
  let wire = Header.size + Bytes.length payload in
  if attempt = 0 then t.msgs_sent <- t.msgs_sent + 1
  else t.retransmits <- t.retransmits + 1;
  let nack reason =
    (* The rejecting side signals the sender with a small control
       packet; control traffic is modelled as reliable. *)
    Fabric.transfer t.fabric ~src:dst_pe ~dst:t.pe ~bytes:request_bytes
      ~on_deliver:(fun () ->
        handle_failure t ~dst_pe ~dst_ep ~header ~payload ~msg ~attempt reason)
  in
  let deliver payload =
    match t.dtu_of dst_pe with
    | Some dst when not dst.failed -> (
      match deliver_message dst ~dst_ep ~header ~payload ~msg with
      | Accepted -> ()
      | Rejected reason -> nack reason)
    | Some _ | None ->
      (* A crashed DTU is indistinguishable from a missing one. *)
      t.msgs_dropped <- t.msgs_dropped + 1;
      nack "no dtu"
  in
  Fabric.transfer ~msg t.fabric ~src:t.pe ~dst:dst_pe ~bytes:wire
    ~on_fault:(fun fault ->
      match fault with
      | Fabric.Lost reason -> nack reason
      | Fabric.Corrupted ->
        (* Damage a copy; the receiving DTU's checksum check turns the
           corruption into a NACK. *)
        let damaged = Bytes.copy payload in
        M3_fault.Plan.corrupt_bytes (faults t) damaged;
        deliver damaged)
    ~on_deliver:(fun () -> deliver payload)

and handle_failure t ~dst_pe ~dst_ep ~(header : Header.t) ~payload ~msg ~attempt
    reason =
  let plan = faults t in
  let plan_retry =
    M3_fault.Plan.enabled plan && retryable reason
    && attempt < M3_fault.Plan.max_retries plan
  in
  if plan_retry || (reason = "suspended" && attempt < suspend_max_retries)
  then begin
    let backoff =
      if plan_retry then M3_fault.Plan.backoff plan ~attempt
      else suspend_backoff ~attempt
    in
    let obs = Fabric.obs t.fabric in
    if Obs.enabled obs then
      Obs.emit obs (Event.Dtu_retry { pe = t.pe; dst_pe; msg; attempt; backoff });
    if reason = "suspended" then
      (* The kernel may park or rebind the sending EP while the
         destination is captured; the retransmit must follow the EP's
         current configuration instead of the stale destination. *)
      Engine.schedule t.engine ~delay:backoff (fun () ->
          retransmit_suspended t ~dst_pe ~dst_ep ~header ~payload ~msg
            ~attempt:(attempt + 1))
    else
      Engine.schedule t.engine ~delay:backoff (fun () ->
          transmit t ~dst_pe ~dst_ep ~header ~payload ~msg ~attempt:(attempt + 1))
  end
  else begin
    if attempt > 0 then t.msgs_expired <- t.msgs_expired + 1;
    let obs = Fabric.obs t.fabric in
    if Obs.enabled obs then
      Obs.emit obs
        (Event.Dtu_nack { pe = t.pe; ep = header.crd_ep; dst_pe; msg; reason });
    Log.debug (fun m ->
        m "pe%d: giving up on msg to pe%d.ep%d after %d attempt(s) (%s)" t.pe
          dst_pe dst_ep (attempt + 1) reason);
    (* A failed reply refunds the destination's send EP (the client that
       the reply would have refilled); a failed send refunds our own. *)
    if header.is_reply then (
      match t.dtu_of dst_pe with
      | Some dst ->
        refund_credit dst ~ep:header.crd_ep;
        dst.pending_replies <- max 0 (dst.pending_replies - 1)
      | None -> ())
    else refund_credit t ~ep:header.crd_ep
  end

and retransmit_suspended t ~dst_pe ~dst_ep ~(header : Header.t) ~payload ~msg
    ~attempt =
  if header.is_reply then
    transmit t ~dst_pe ~dst_ep ~header ~payload ~msg ~attempt
  else
    match
      if header.crd_ep >= 0 && header.crd_ep < Array.length t.eps then
        t.eps.(header.crd_ep)
      else S_invalid
    with
    | S_park _ when attempt < suspend_max_retries ->
      (* Kernel froze this EP: its destination VPE is between PEs. Poll
         until the resume rewrites it. *)
      Engine.schedule t.engine ~delay:(suspend_backoff ~attempt) (fun () ->
          retransmit_suspended t ~dst_pe ~dst_ep ~header ~payload ~msg
            ~attempt:(attempt + 1))
    | S_send s ->
      transmit t ~dst_pe:s.s_dst_pe ~dst_ep:s.s_dst_ep ~header ~payload ~msg
        ~attempt
    | S_park _ | S_invalid | S_recv _ | S_mem _ ->
      transmit t ~dst_pe ~dst_ep ~header ~payload ~msg ~attempt

(* DTU command acceptance: the fixed decode latency, plus any stall or
   permanent crash an attached fault plan injects. A crash marks the
   whole PE dead — the DTU stops accepting deliveries and ext commands
   — and kills the program mid-command by raising [Process.Killed], so
   the victim never reaches its normal exit path; only the kernel's
   heartbeat prober can discover it. *)
let accept_command t =
  Process.wait cmd_latency;
  let plan = faults t in
  if M3_fault.Plan.enabled plan then begin
    t.cmds_accepted <- t.cmds_accepted + 1;
    if M3_fault.Plan.crash_now plan ~pe:t.pe ~cmd:t.cmds_accepted then begin
      t.failed <- true;
      let obs = Fabric.obs t.fabric in
      if Obs.enabled obs then Obs.emit obs (Event.Fault_pe_crash { pe = t.pe });
      Log.warn (fun m -> m "pe%d: PE crashed (fault plan)" t.pe);
      raise Process.Killed
    end;
    let extra = M3_fault.Plan.stall plan ~pe:t.pe in
    if extra > 0 then begin
      let obs = Fabric.obs t.fabric in
      if Obs.enabled obs then
        Obs.emit obs (Event.Fault_stall { pe = t.pe; cycles = extra });
      Process.wait extra
    end
  end

(* --- software-facing commands --------------------------------------- *)

let rec send ?(block = true) t ~ep ~payload ?reply () =
  check_ep t ep;
  match t.eps.(ep) with
  | S_park _ when not block ->
    (* Destination VPE is suspended and the caller would rather drop
       than wait for a resume that may never come (fire-and-forget
       notifications). *)
    Error Dtu_error.Suspended
  | S_park _ ->
    (* Destination VPE is suspended. Block until the kernel rewrites
       the EP at resume (the Config broadcast wakes the waitq); the
       caller observes only added latency. *)
    Process.Waitq.park t.ep_waiters.(ep);
    send ~block t ~ep ~payload ?reply ()
  | S_send s ->
    let size = Header.size + Bytes.length payload in
    if size > 1 lsl s.s_msg_order then Error Dtu_error.Msg_too_big
    else begin
      let has_credit =
        match s.s_max with
        | Endpoint.Unlimited -> true
        | Endpoint.Credits _ -> s.s_cur > 0
      in
      if not has_credit then Error Dtu_error.No_credits
      else begin
        (match s.s_max with
        | Endpoint.Credits _ -> s.s_cur <- s.s_cur - 1
        | Endpoint.Unlimited -> ());
        accept_command t;
        let reply_ep, reply_label, has_reply =
          match reply with
          | Some (ep', label') -> (ep', label', true)
          | None -> (0, 0L, false)
        in
        let header =
          {
            Header.length = Bytes.length payload;
            label = s.s_label;
            sender_pe = t.pe;
            crd_ep = ep;
            reply_ep;
            reply_label;
            has_reply;
            is_reply = false;
            checksum =
              (if M3_fault.Plan.enabled (faults t) then
                 Header.payload_checksum payload
               else 0);
          }
        in
        let obs = Fabric.obs t.fabric in
        let msg = Obs.next_msg obs in
        if Obs.enabled obs then
          Obs.emit obs
            (Event.Dtu_send
               {
                 pe = t.pe;
                 ep;
                 dst_pe = s.s_dst_pe;
                 dst_ep = s.s_dst_ep;
                 bytes = Bytes.length payload;
                 msg;
                 reply = false;
               });
        if has_reply then t.pending_replies <- t.pending_replies + 1;
        transmit t ~dst_pe:s.s_dst_pe ~dst_ep:s.s_dst_ep ~header
          ~payload:(Bytes.copy payload) ~msg ~attempt:0;
        Ok ()
      end
    end
  | S_invalid | S_recv _ | S_mem _ -> Error Dtu_error.Invalid_ep

let slot_addr r slot =
  r.r_buf_addr + (slot * Endpoint.slot_size ~slot_order:r.r_slot_order)

let reply t ~ep ~slot ~payload =
  check_ep t ep;
  match t.eps.(ep) with
  | S_recv r when slot >= 0 && slot < r.r_slot_count && r.r_occupied.(slot) ->
    let header = Header.read t.spm ~addr:(slot_addr r slot) in
    if not header.has_reply then Error Dtu_error.No_reply_cap
    else begin
      accept_command t;
      let reply_header =
        {
          Header.length = Bytes.length payload;
          label = header.reply_label;
          sender_pe = t.pe;
          crd_ep = header.crd_ep;
          reply_ep = 0;
          reply_label = 0L;
          has_reply = false;
          is_reply = true;
          checksum =
            (if M3_fault.Plan.enabled (faults t) then
               Header.payload_checksum payload
             else 0);
        }
      in
      (* Replying acks the slot: the reply info must not be reusable. *)
      r.r_occupied.(slot) <- false;
      r.r_unread.(slot) <- false;
      let obs = Fabric.obs t.fabric in
      let msg = Obs.next_msg obs in
      if Obs.enabled obs then
        Obs.emit obs
          (Event.Dtu_send
             {
               pe = t.pe;
               ep;
               dst_pe = header.sender_pe;
               dst_ep = header.reply_ep;
               bytes = Bytes.length payload;
               msg;
               reply = true;
             });
      transmit t ~dst_pe:header.sender_pe ~dst_ep:header.reply_ep
        ~header:reply_header ~payload:(Bytes.copy payload) ~msg ~attempt:0;
      Ok ()
    end
  | S_recv _ -> Error Dtu_error.Invalid_ep
  | S_invalid | S_send _ | S_mem _ | S_park _ -> Error Dtu_error.Invalid_ep

let fetch t ~ep =
  check_ep t ep;
  match t.eps.(ep) with
  | S_recv r ->
    let rec scan tried pos =
      if tried = r.r_slot_count then None
      else if r.r_unread.(pos) then begin
        r.r_unread.(pos) <- false;
        r.r_rpos <- (pos + 1) mod r.r_slot_count;
        let header = Header.read t.spm ~addr:(slot_addr r pos) in
        let payload =
          Store.read_bytes t.spm
            ~addr:(slot_addr r pos + Header.size)
            ~len:header.length
        in
        Some { Endpoint.slot = pos; header; payload }
      end
      else scan (tried + 1) ((pos + 1) mod r.r_slot_count)
    in
    scan 0 r.r_rpos
  | S_invalid | S_send _ | S_mem _ | S_park _ -> None

let buffered t ~ep =
  check_ep t ep;
  match t.eps.(ep) with
  | S_recv r ->
    let n = ref 0 in
    Array.iter (fun u -> if u then incr n) r.r_unread;
    !n
  | S_invalid | S_send _ | S_mem _ | S_park _ -> 0

let is_recv t ep = match t.eps.(ep) with S_recv _ -> true | _ -> false

(* A waiter woken on an EP that was a live receive EP when it parked
   and is invalid now has been revoked out from under it (Invalidate /
   Reset): re-parking would hang forever, so surface the revocation.
   An EP that was already unconfigured keeps the old behavior — the
   waiter polls again after the kernel's Config broadcast. *)
let check_revoked t ~ep ~was_recv =
  if was_recv && not (is_recv t ep) then raise (Dtu_error.Error Dtu_error.Invalid_ep)

let rec wait_msg t ~ep =
  let t = if suspendable_ep ep then quiesce_point t else t in
  match fetch t ~ep with
  | Some msg ->
    t.idle_since <- None;
    msg
  | None ->
    if suspendable_ep ep && t.idle_since = None then
      t.idle_since <- Some (Engine.now t.engine);
    let was_recv = is_recv t ep in
    Process.Waitq.park t.ep_waiters.(ep);
    check_revoked t ~ep ~was_recv;
    wait_msg t ~ep

let wait_reconfig t ~ep =
  check_ep t ep;
  Process.Waitq.park t.ep_waiters.(ep)

let rec wait_any t ~eps =
  let t =
    if List.for_all suspendable_ep eps then quiesce_point t else t
  in
  let rec poll = function
    | [] -> None
    | ep :: rest -> (
      match fetch t ~ep with
      | Some msg -> Some (ep, msg)
      | None -> poll rest)
  in
  match poll eps with
  | Some hit ->
    t.idle_since <- None;
    hit
  | None ->
    if List.for_all suspendable_ep eps && t.idle_since = None then
      t.idle_since <- Some (Engine.now t.engine);
    let was_recv = List.map (fun ep -> (ep, is_recv t ep)) eps in
    Process.suspend (fun resume ->
        (* One registration per queue, all cancelled on the first
           wakeup so no stale entry outlives the wait (they used to
           accumulate and absorb later signals). *)
        let entries = ref [] in
        let fire v =
          List.iter Process.Waitq.cancel !entries;
          resume v
        in
        entries :=
          List.map (fun ep -> Process.Waitq.register t.ep_waiters.(ep) fire) eps);
    List.iter (fun (ep, was_recv) -> check_revoked t ~ep ~was_recv) was_recv;
    wait_any t ~eps

let wait_msg_for t ~ep ~timeout =
  check_ep t ep;
  if timeout <= 0 then invalid_arg "Dtu.wait_msg_for: timeout must be positive";
  let deadline = Engine.now t.engine + timeout in
  let rec loop () =
    let t = if suspendable_ep ep then quiesce_point t else t in
    match fetch t ~ep with
    | Some msg ->
      t.idle_since <- None;
      Some msg
    | None ->
      let remaining = deadline - Engine.now t.engine in
      if remaining <= 0 then None
      else begin
        if suspendable_ep ep && t.idle_since = None then
          t.idle_since <- Some (Engine.now t.engine);
        let was_recv = is_recv t ep in
        let woke =
          Process.suspend (fun resume ->
              let entry =
                Process.Waitq.register t.ep_waiters.(ep) (fun () ->
                    resume `Signal)
              in
              Engine.schedule t.engine ~delay:remaining (fun () ->
                  (* The entry must die with the timeout, or a later
                     signal would be absorbed by a waiter that already
                     gave up. *)
                  Process.Waitq.cancel entry;
                  resume `Timeout))
        in
        check_revoked t ~ep ~was_recv;
        match woke with
        | `Signal -> loop ()
        | `Timeout -> fetch t ~ep
      end
  in
  loop ()

let wait_any_for t ~eps ~timeout =
  List.iter (fun ep -> check_ep t ep) eps;
  if timeout <= 0 then invalid_arg "Dtu.wait_any_for: timeout must be positive";
  let deadline = Engine.now t.engine + timeout in
  let rec poll = function
    | [] -> None
    | ep :: rest -> (
      match fetch t ~ep with
      | Some msg -> Some (ep, msg)
      | None -> poll rest)
  in
  let rec loop () =
    let t =
      if List.for_all suspendable_ep eps then quiesce_point t else t
    in
    match poll eps with
    | Some hit ->
      t.idle_since <- None;
      Some hit
    | None ->
      let remaining = deadline - Engine.now t.engine in
      if remaining <= 0 then None
      else begin
        if List.for_all suspendable_ep eps && t.idle_since = None then
          t.idle_since <- Some (Engine.now t.engine);
        let was_recv = List.map (fun ep -> (ep, is_recv t ep)) eps in
        let woke =
          Process.suspend (fun resume ->
              let entries = ref [] in
              let fire v =
                List.iter Process.Waitq.cancel !entries;
                resume v
              in
              entries :=
                List.map
                  (fun ep ->
                    Process.Waitq.register t.ep_waiters.(ep) (fun () ->
                        fire `Signal))
                  eps;
              Engine.schedule t.engine ~delay:remaining (fun () ->
                  fire `Timeout))
        in
        List.iter (fun (ep, was_recv) -> check_revoked t ~ep ~was_recv) was_recv;
        match woke with
        | `Signal -> loop ()
        | `Timeout -> poll eps
      end
  in
  loop ()

let ack t ~ep ~slot =
  check_ep t ep;
  match t.eps.(ep) with
  | S_recv r when slot >= 0 && slot < r.r_slot_count ->
    r.r_occupied.(slot) <- false;
    r.r_unread.(slot) <- false
  | S_recv _ | S_invalid | S_send _ | S_mem _ | S_park _ -> ()

(* --- memory endpoints ------------------------------------------------ *)

let mem_access t ~ep ~off ~len ~need =
  check_ep t ep;
  match t.eps.(ep) with
  | S_mem m ->
    if not (Perm.subset need ~of_:m.m_perm) then Error Dtu_error.No_perm
    else if off < 0 || len < 0 || off + len > m.m_size then
      Error Dtu_error.Out_of_bounds
    else Ok m
  | S_invalid | S_send _ | S_recv _ | S_park _ -> Error Dtu_error.Invalid_ep

let read_mem t ~ep ~off ~local ~len =
  match mem_access t ~ep ~off ~len ~need:Perm.r with
  | Error e -> Error e
  | Ok m ->
    accept_command t;
    let obs = Fabric.obs t.fabric in
    let msg = Obs.next_msg obs in
    if Obs.enabled obs then
      Obs.emit obs
        (Event.Dtu_read { pe = t.pe; mem_pe = m.m_dst_pe; bytes = len; msg });
    let iv = Process.Ivar.create () in
    Fabric.transfer ~msg t.fabric ~src:t.pe ~dst:m.m_dst_pe ~bytes:request_bytes
      ~on_deliver:(fun () ->
        Fabric.transfer ~msg t.fabric ~src:m.m_dst_pe ~dst:t.pe ~bytes:len
          ~on_deliver:(fun () ->
            let result =
              match t.store_of m.m_dst_pe with
              | Some remote ->
                Store.blit ~src:remote ~src_addr:(m.m_base + off) ~dst:t.spm
                  ~dst_addr:local ~len;
                t.mem_read <- t.mem_read + len;
                Ok ()
              | None -> Error Dtu_error.Out_of_bounds
            in
            Process.Ivar.fill iv result));
    Process.Ivar.read iv

let write_mem t ~ep ~off ~local ~len =
  match mem_access t ~ep ~off ~len ~need:Perm.w with
  | Error e -> Error e
  | Ok m ->
    accept_command t;
    (* The data leaves the SPM when the command starts. *)
    let snapshot = Store.read_bytes t.spm ~addr:local ~len in
    let obs = Fabric.obs t.fabric in
    let msg = Obs.next_msg obs in
    if Obs.enabled obs then
      Obs.emit obs
        (Event.Dtu_write { pe = t.pe; mem_pe = m.m_dst_pe; bytes = len; msg });
    let iv = Process.Ivar.create () in
    Fabric.transfer ~msg t.fabric ~src:t.pe ~dst:m.m_dst_pe
      ~bytes:(request_bytes + len)
      ~on_deliver:(fun () ->
        let result =
          match t.store_of m.m_dst_pe with
          | Some remote ->
            Store.write_bytes remote ~addr:(m.m_base + off) snapshot ~pos:0 ~len;
            t.mem_written <- t.mem_written + len;
            Ok ()
          | None -> Error Dtu_error.Out_of_bounds
        in
        Process.Ivar.fill iv result);
    Process.Ivar.read iv

(* --- external (privileged) commands ---------------------------------- *)

type ext_action =
  | Config of int * Endpoint.config
  | Invalidate of int
  | Set_privileged of bool
  | Raw_write of int * Bytes.t
  | Raw_read of int * int
  | Reset
  | Suspend
  | Park of int
  | Rebind of int * int (* ep, new destination PE *)

let apply_ext t ~from_privileged action =
  if not from_privileged then Error Dtu_error.Not_privileged
  else
    match action with
    | Config (ep, cfg) ->
      check_ep t ep;
      set_ep t ep cfg;
      (* A fresh receive EP may already have senders blocked in
         wait_msg from a previous configuration: wake them so they
         re-poll against the new state. *)
      Process.Waitq.broadcast t.ep_waiters.(ep) ();
      Ok Bytes.empty
    | Invalidate ep ->
      check_ep t ep;
      t.eps.(ep) <- S_invalid;
      Process.Waitq.broadcast t.ep_waiters.(ep) ();
      Ok Bytes.empty
    | Set_privileged v ->
      t.privileged <- v;
      Ok Bytes.empty
    | Raw_write (addr, data) ->
      Store.write_bytes t.spm ~addr data ~pos:0 ~len:(Bytes.length data);
      Ok Bytes.empty
    | Raw_read (addr, len) -> Ok (Store.read_bytes t.spm ~addr ~len)
    | Reset ->
      Array.fill t.eps 0 (Array.length t.eps) S_invalid;
      (* A hardware reset also clears the suspend machinery — the PE may
         have been freed by a suspension (flag still up) and is being
         recycled for a different VPE. All fields are already in their
         cleared state when no scheduler runs, so this costs nothing. *)
      t.suspend_pending <- false;
      t.suspended <- false;
      t.parked <- None;
      t.on_quiesce <- None;
      t.idle_since <- None;
      t.pending_replies <- 0;
      (* Same as Invalidate: blocked waiters must observe the wipe
         instead of sleeping forever on endpoints that no longer
         exist. *)
      Array.iter (fun q -> Process.Waitq.broadcast q ()) t.ep_waiters;
      Ok Bytes.empty
    | Suspend ->
      t.suspend_pending <- true;
      (* A program parked in a wait loop must wake to notice the flag
         and reach its quiesce point; running programs hit it at their
         next checkpoint. *)
      Array.iter (fun q -> Process.Waitq.broadcast q ()) t.ep_waiters;
      Ok Bytes.empty
    | Park ep -> (
      check_ep t ep;
      match t.eps.(ep) with
      | S_send s ->
        t.eps.(ep) <- S_park s;
        Ok Bytes.empty
      | S_park _ -> Ok Bytes.empty
      | S_invalid | S_recv _ | S_mem _ -> Error Dtu_error.Invalid_ep)
    | Rebind (ep, new_dst) -> (
      check_ep t ep;
      match t.eps.(ep) with
      | S_send s | S_park s ->
        (* Unparks and retargets in one step, preserving the credit
           budget exactly ([ext_config] would reset the maximum to the
           instantaneous counter and leak in-flight credits). *)
        t.eps.(ep) <- S_send { s with s_dst_pe = new_dst };
        Process.Waitq.broadcast t.ep_waiters.(ep) ();
        Ok Bytes.empty
      | S_mem m ->
        t.eps.(ep) <- S_mem { m with m_dst_pe = new_dst };
        Process.Waitq.broadcast t.ep_waiters.(ep) ();
        Ok Bytes.empty
      | S_invalid | S_recv _ -> Error Dtu_error.Invalid_ep)

let ext_command t ~target ~wire_out ~wire_back action =
  if not t.privileged then Error Dtu_error.Not_privileged
  else begin
    accept_command t;
    let iv = Process.Ivar.create () in
    let from_privileged = t.privileged in
    Fabric.transfer t.fabric ~src:t.pe ~dst:target ~bytes:wire_out
      ~on_deliver:(fun () ->
        let result =
          (* A crashed target answers nothing: the error NACK below is
             what the kernel's heartbeat prober keys on. *)
          match t.dtu_of target with
          | Some dst when not dst.failed -> apply_ext dst ~from_privileged action
          | Some _ | None -> Error Dtu_error.Invalid_ep
        in
        Fabric.transfer t.fabric ~src:target ~dst:t.pe ~bytes:wire_back
          ~on_deliver:(fun () -> Process.Ivar.fill iv result));
    Process.Ivar.read iv
  end

let unit_result = function Ok _ -> Ok () | Error e -> Error e

let ext_config t ~target ~ep config =
  unit_result
    (ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:request_bytes
       (Config (ep, config)))

let ext_invalidate t ~target ~ep =
  unit_result
    (ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:request_bytes
       (Invalidate ep))

let ext_set_privileged t ~target v =
  unit_result
    (ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:request_bytes
       (Set_privileged v))

let ext_write t ~target ~addr ~payload =
  unit_result
    (ext_command t ~target
       ~wire_out:(ext_cmd_bytes + Bytes.length payload)
       ~wire_back:request_bytes
       (Raw_write (addr, Bytes.copy payload)))

let ext_read t ~target ~addr ~len =
  ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:(request_bytes + len)
    (Raw_read (addr, len))

let ext_reset t ~target =
  unit_result
    (ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:request_bytes
       Reset)

(* --- VPE suspend: quiesce flag + state capture/restore ---------------- *)

let ext_suspend t ~target =
  unit_result
    (ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:request_bytes
       Suspend)

(* [ext_park t ~target ~ep] freezes a send endpoint whose destination
   VPE is being suspended. Sends block, scheduled retransmits hold; the
   kernel later rewrites the EP via [ext_config] (same or new
   destination PE), which releases them. *)
let ext_park t ~target ~ep =
  unit_result
    (ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:request_bytes
       (Park ep))

(* [ext_rebind t ~target ~ep ~dst_pe] retargets a send or memory
   endpoint at a migrated VPE's new PE. On a parked send EP this is
   also the release: blocked senders and held retransmits resume
   against the new destination. *)
let ext_rebind t ~target ~ep ~dst_pe =
  unit_result
    (ext_command t ~target ~wire_out:ext_cmd_bytes ~wire_back:request_bytes
       (Rebind (ep, dst_pe)))

type snapshot = {
  snap_pe : int; (* PE the state was captured from *)
  snap_eps : ep_state array; (* deep copies, including live ring state *)
  snap_spm : Bytes.t;
  snap_privileged : bool;
}

let snapshot_bytes s = Bytes.length s.snap_spm

let copy_ep = function
  | S_invalid -> S_invalid
  | S_send s -> S_send { s with s_cur = s.s_cur }
  | S_park s -> S_park { s with s_cur = s.s_cur }
  | S_recv r ->
    S_recv
      {
        r with
        r_occupied = Array.copy r.r_occupied;
        r_unread = Array.copy r.r_unread;
      }
  | S_mem m -> S_mem m

(* [ext_capture t ~target] pulls the target DTU's full architectural
   state — endpoint registers including live credit counters and
   ringbuffer occupancy, plus the whole SPM (which holds the program
   image, heap and all delivered-but-unfetched messages) — over the
   NoC, then marks the target suspended and wipes its endpoints. Wire
   cost is dominated by the SPM image (8 bytes/cycle). The program
   must already be quiesced; the kernel enforces that ordering. *)
let ext_capture t ~target =
  if not t.privileged then Error Dtu_error.Not_privileged
  else begin
    accept_command t;
    let iv = Process.Ivar.create () in
    Fabric.transfer t.fabric ~src:t.pe ~dst:target ~bytes:ext_cmd_bytes
      ~on_deliver:(fun () ->
        match t.dtu_of target with
        | Some dst when not dst.failed ->
          let spm_len = Store.size dst.spm in
          let snap =
            {
              snap_pe = dst.pe;
              snap_eps = Array.map copy_ep dst.eps;
              snap_spm = Store.read_bytes dst.spm ~addr:0 ~len:spm_len;
              snap_privileged = dst.privileged;
            }
          in
          dst.suspended <- true;
          dst.idle_since <- None;
          Array.fill dst.eps 0 (Array.length dst.eps) S_invalid;
          let wire_back =
            request_bytes + spm_len
            + (Array.length snap.snap_eps * ext_cmd_bytes)
          in
          Fabric.transfer t.fabric ~src:target ~dst:t.pe ~bytes:wire_back
            ~on_deliver:(fun () -> Process.Ivar.fill iv (Ok snap))
        | Some _ | None ->
          Fabric.transfer t.fabric ~src:target ~dst:t.pe ~bytes:request_bytes
            ~on_deliver:(fun () ->
              Process.Ivar.fill iv (Error Dtu_error.Invalid_ep)));
    Process.Ivar.read iv
  end

(* [ext_restore t ~target snap] is the inverse: pushes the captured SPM
   and endpoint registers into the target DTU and clears its suspended
   flag. The target may differ from [snap.snap_pe] — that is a
   migration; endpoint configs transfer verbatim because they name
   remote PEs, not the local one. *)
let ext_restore t ~target (snap : snapshot) =
  if not t.privileged then Error Dtu_error.Not_privileged
  else begin
    accept_command t;
    let wire_out =
      ext_cmd_bytes
      + Bytes.length snap.snap_spm
      + (Array.length snap.snap_eps * ext_cmd_bytes)
    in
    let iv = Process.Ivar.create () in
    Fabric.transfer t.fabric ~src:t.pe ~dst:target ~bytes:wire_out
      ~on_deliver:(fun () ->
        let result =
          match t.dtu_of target with
          | Some dst
            when (not dst.failed)
                 && Array.length dst.eps = Array.length snap.snap_eps
                 && Bytes.length snap.snap_spm <= Store.size dst.spm ->
            Store.write_bytes dst.spm ~addr:0 snap.snap_spm ~pos:0
              ~len:(Bytes.length snap.snap_spm);
            Array.iteri
              (fun i ep -> dst.eps.(i) <- copy_ep ep)
              snap.snap_eps;
            dst.privileged <- snap.snap_privileged;
            dst.suspended <- false;
            dst.suspend_pending <- false;
            dst.idle_since <- None;
            Array.iter (fun q -> Process.Waitq.broadcast q ()) dst.ep_waiters;
            Ok ()
          | Some _ | None -> Error Dtu_error.Invalid_ep
        in
        Fabric.transfer t.fabric ~src:target ~dst:t.pe ~bytes:request_bytes
          ~on_deliver:(fun () -> Process.Ivar.fill iv result));
    Process.Ivar.read iv
  end

let failed t = t.failed

let msgs_sent t = t.msgs_sent
let msgs_received t = t.msgs_received
let msgs_dropped t = t.msgs_dropped
let credits_refunded t = t.credits_refunded
let retransmits t = t.retransmits
let msgs_expired t = t.msgs_expired
let mem_bytes_read t = t.mem_read
let mem_bytes_written t = t.mem_written

let waiters t ~ep =
  check_ep t ep;
  Process.Waitq.waiters t.ep_waiters.(ep)
