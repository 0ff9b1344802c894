type opcode =
  | Noop
  | Create_vpe
  | Vpe_start
  | Vpe_wait
  | Vpe_exit
  | Create_rgate
  | Create_sgate
  | Req_mem
  | Derive_mem
  | Activate
  | Exchange
  | Create_srv
  | Open_sess
  | Exchange_sess
  | Revoke
  (* scheduler syscalls — appended, the encoding is list-index based *)
  | Vpe_suspend
  | Vpe_resume
  | Vpe_sched_state
  (* session-scoped delegation — appended *)
  | Delegate_sess

let all_opcodes =
  [
    Noop; Create_vpe; Vpe_start; Vpe_wait; Vpe_exit; Create_rgate;
    Create_sgate; Req_mem; Derive_mem; Activate; Exchange; Create_srv;
    Open_sess; Exchange_sess; Revoke; Vpe_suspend; Vpe_resume;
    Vpe_sched_state; Delegate_sess;
  ]

let opcode_to_int op =
  let rec index i = function
    | [] -> assert false
    | x :: rest -> if x = op then i else index (i + 1) rest
  in
  index 0 all_opcodes

let opcode_of_int i = List.nth_opt all_opcodes i

let opcode_name = function
  | Noop -> "noop"
  | Create_vpe -> "create_vpe"
  | Vpe_start -> "vpe_start"
  | Vpe_wait -> "vpe_wait"
  | Vpe_exit -> "vpe_exit"
  | Create_rgate -> "create_rgate"
  | Create_sgate -> "create_sgate"
  | Req_mem -> "req_mem"
  | Derive_mem -> "derive_mem"
  | Activate -> "activate"
  | Exchange -> "exchange"
  | Create_srv -> "create_srv"
  | Open_sess -> "open_sess"
  | Exchange_sess -> "exchange_sess"
  | Revoke -> "revoke"
  | Vpe_suspend -> "vpe_suspend"
  | Vpe_resume -> "vpe_resume"
  | Vpe_sched_state -> "vpe_sched_state"
  | Delegate_sess -> "delegate_sess"

let core_kind_to_int = function
  | M3_hw.Core_type.General_purpose -> 0
  | M3_hw.Core_type.Fft_accelerator -> 1

let core_kind_of_int = function
  | 0 -> Some M3_hw.Core_type.General_purpose
  | 1 -> Some M3_hw.Core_type.Fft_accelerator
  | _ -> None

let credits_to_int = function
  | M3_dtu.Endpoint.Unlimited -> 0
  | M3_dtu.Endpoint.Credits n -> n

let credits_of_int = function
  | 0 -> M3_dtu.Endpoint.Unlimited
  | n -> M3_dtu.Endpoint.Credits n

type srv_opcode =
  | Srv_open
  | Srv_exchange
  | Srv_shutdown
  | Srv_client_gone

let srv_opcode_to_int = function
  | Srv_open -> 0
  | Srv_exchange -> 1
  | Srv_shutdown -> 2
  | Srv_client_gone -> 3

let srv_opcode_of_int = function
  | 0 -> Some Srv_open
  | 1 -> Some Srv_exchange
  | 2 -> Some Srv_shutdown
  | 3 -> Some Srv_client_gone
  | _ -> None

let syscall_msg_order = 9
let kernel_rbuf_slots = 64
let reply_slot_order = 9
