(** Wire protocol constants: syscall opcodes and the kernel↔service
    protocol. Shared by the kernel and libm3's syscall client. *)

(** Syscall opcodes, sent as the first byte of a syscall message. *)
type opcode =
  | Noop            (** null syscall, used by the Fig. 3 benchmark *)
  | Create_vpe      (** sel, name, core-kind → vpe id, pe id *)
  | Vpe_start       (** vpe sel, program name, arg blob *)
  | Vpe_wait        (** vpe sel → exit code (reply deferred until exit) *)
  | Vpe_exit        (** exit code; no reply — the VPE is gone *)
  | Create_rgate    (** sel, ep, buf addr, slot order, slot count *)
  | Create_sgate    (** sel, rgate sel, label, credits *)
  | Req_mem         (** sel, size, perms → DRAM address *)
  | Derive_mem      (** src sel, dst sel, offset, size, perms *)
  | Activate        (** cap sel, ep *)
  | Exchange        (** vpe sel, own sel, other sel, obtain? *)
  | Create_srv      (** sel, name, kernel-rgate sel, client-rgate sel *)
  | Open_sess       (** sel, service name, arg → sess + session sgate *)
  | Exchange_sess   (** sess sel, dst sel, arg bytes → out bytes (+caps) *)
  | Revoke          (** sel — recursive *)
  | Vpe_suspend  (** vpe sel — capture the child's state off its PE *)
  | Vpe_resume   (** vpe sel — requeue a suspended child for placement *)
  | Vpe_sched_state
      (** vpe sel — query where the child is in the suspend/resume
          life cycle (placed, mid-suspension, parked, queued) *)
  | Delegate_sess
      (** sess sel, own sel → service-side sel; derives an
          exchangeable capability of the caller into the VPE of the
          service behind the session — how a client hands a service a
          send gate for notifications without holding the service's
          VPE capability *)

val opcode_to_int : opcode -> int
val opcode_of_int : int -> opcode option
val opcode_name : opcode -> string

(** Core kinds on the wire (argument of [Create_vpe]). *)
val core_kind_to_int : M3_hw.Core_type.t -> int
val core_kind_of_int : int -> M3_hw.Core_type.t option

(** Credits on the wire: [0] encodes unlimited. *)
val credits_to_int : M3_dtu.Endpoint.credit -> int
val credits_of_int : int -> M3_dtu.Endpoint.credit

(** {1 Kernel → service channel}

    The kernel forwards session creation and capability exchanges to
    the owning service over a dedicated channel established at
    [Create_srv]. *)

type srv_opcode =
  | Srv_open        (** arg → session ident *)
  | Srv_exchange    (** ident, arg bytes → out bytes + derived-mem caps *)
  | Srv_shutdown
  | Srv_client_gone
      (** ident — the session's client VPE was aborted; the service
          must release everything the session holds *)

val srv_opcode_to_int : srv_opcode -> int
val srv_opcode_of_int : int -> srv_opcode option

(** Sizing of the kernel's syscall channel. *)

val syscall_msg_order : int
(** max syscall message = 512 bytes *)

val kernel_rbuf_slots : int
(** syscall ringbuffer slots at the kernel (one credit per VPE) *)

val reply_slot_order : int
(** application-side syscall-reply slots, 512 bytes *)
