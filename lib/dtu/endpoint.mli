(** Endpoint configurations and received-message views.

    An endpoint is the hardware representation of a capability: the
    kernel installs a configuration into an endpoint register set of a
    remote DTU, and from then on the application on that PE can use the
    endpoint without any kernel involvement. *)

(** Message-credit budget of a send endpoint. The receiver limits the
    number of in-flight messages per sender; a credit is consumed per
    send and refilled when the receiver replies. *)
type credit =
  | Unlimited
  | Credits of int

type config =
  | Invalid
      (** unconfigured; all application-PE endpoints start here after
          the kernel downgrades them at boot *)
  | Send of {
      dst_pe : int;       (** NoC node of the receiver *)
      dst_ep : int;       (** receive endpoint index at the receiver *)
      label : int64;      (** receiver-chosen, unforgeable by sender *)
      msg_order : int;    (** max message size (header + payload) is [2^msg_order] *)
      credits : credit;
    }
  | Receive of {
      buf_addr : int;     (** ringbuffer base in the local SPM *)
      slot_order : int;   (** slot size is [2^slot_order] bytes *)
      slot_count : int;
    }
  | Memory of {
      dst_pe : int;       (** node owning the memory (PE or DRAM) *)
      base : int;
      size : int;
      perm : M3_mem.Perm.t;
    }

(** A fetched message, as the software sees it: the receive endpoint
    it arrived on, the slot to ack or reply to, the trusted header, and
    a copy of the payload bytes. *)
type message = {
  ep : int;
  slot : int;
  header : Header.t;
  payload : Bytes.t;
}

(** [slot_size ~slot_order] is the ringbuffer slot size in bytes. *)
val slot_size : slot_order:int -> int
