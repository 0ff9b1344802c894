(** Gates — libm3's software abstraction over DTU endpoints (§4.5.4):
    receive gates for incoming messages, send gates for outgoing
    messages, memory gates for remote memory access. Send and memory
    gates are multiplexed over the scarce endpoints via {!Epmux};
    receive gates pin an endpoint and own a ringbuffer in the SPM. *)

type 'a result_ = ('a, Errno.t) result

type recv_gate = {
  rg_sel : int;
  rg_ep : int;
  rg_buf_addr : int;
  rg_slot_order : int;
  rg_slot_count : int;
}

type send_gate = { sg_user : Env.ep_user }
type mem_gate = { mg_user : Env.ep_user; mg_size : int }

(** [create_recv env ~slot_order ~slot_count] allocates SPM buffer
    space and a pinned endpoint, and asks the kernel to configure it. *)
val create_recv :
  ?sel:int -> Env.t -> slot_order:int -> slot_count:int -> recv_gate result_

(** [create_send env rgate ~label ~credits] makes a send gate to one's
    own receive gate — the thing one delegates to a partner. *)
val create_send :
  ?sel:int ->
  Env.t -> recv_gate -> label:int64 -> credits:M3_dtu.Endpoint.credit ->
  send_gate result_

(** [send_gate_of_sel sel] wraps a selector received via capability
    exchange. *)
val send_gate_of_sel : int -> send_gate

(** [mem_gate_of_sel ~sel ~size] likewise for memory capabilities. *)
val mem_gate_of_sel : sel:int -> size:int -> mem_gate

(** [req_mem env ~size ~perm] asks the kernel for a DRAM region;
    returns the gate and the region's DRAM address (informational). *)
val req_mem :
  ?sel:int -> Env.t -> size:int -> perm:M3_mem.Perm.t -> (mem_gate * int) result_

(** [send env g payload ?reply ()] transmits a message through the
    gate; [reply] names a receive gate (and reply label) for a direct
    reply. [block:false] refuses to wait when the destination VPE is
    suspended and returns an error instead — for fire-and-forget
    notifications whose receiver may stay parked indefinitely. *)
val send :
  ?block:bool ->
  Env.t -> send_gate -> Bytes.t -> ?reply:recv_gate * int64 -> unit ->
  unit result_

(** [call env g ~reply_gate payload] sends and blocks for the reply —
    the request/response idiom used with services. Books the NoC
    crossings as transfer time like a syscall does, and shares the
    syscall's reply wait ({!Syscalls.await_reply}): under a fault plan
    it gives up with [E_timeout] after {!Env.client_watchdog}
    cycles. *)
val call : Env.t -> send_gate -> reply_gate:recv_gate -> Bytes.t -> Bytes.t result_

(** [recv ?deadline env g] blocks for the next message on a receive
    gate. The slot stays occupied until [reply] or [ack]. With a
    [deadline] (an absolute cycle, usually from {!Env.watchdog}) a
    crash-aware caller stops waiting for a peer that may be dead; the
    wakeup and unmarshal costs are charged only for a message.
    @raise Errno.Error [E_timeout] when the deadline passes first. *)
val recv :
  ?deadline:int -> Env.t -> recv_gate -> M3_dtu.Endpoint.message

(** [recv_any env gates] waits on several receive gates at once;
    returns the index of the gate that got the message. *)
val recv_any : Env.t -> recv_gate list -> int * M3_dtu.Endpoint.message

(** [fetch env g] polls without blocking. *)
val fetch : Env.t -> recv_gate -> M3_dtu.Endpoint.message option

(** [backlog env g] is the number of delivered-but-unfetched messages
    in the gate's ringbuffer — the queue depth a service observes.
    Free (a DTU register read); charges nothing. *)
val backlog : Env.t -> recv_gate -> int

(** [reply env g ~slot payload] replies and acks the slot. *)
val reply : Env.t -> recv_gate -> slot:int -> Bytes.t -> unit result_

(** [ack env g ~slot] frees a slot without replying. *)
val ack : Env.t -> recv_gate -> slot:int -> unit

(** [read env g ~off ~local ~len] copies remote memory into the SPM;
    the elapsed DTU time is booked as transfer. *)
val read : Env.t -> mem_gate -> off:int -> local:int -> len:int -> unit result_

(** [write env g ~off ~local ~len] copies SPM bytes to remote memory. *)
val write : Env.t -> mem_gate -> off:int -> local:int -> len:int -> unit result_
