(** Message header, prepended to every payload by the sending DTU and
    stored at the head of the receive-ringbuffer slot.

    The header carries the receiver-chosen {e label} (KeyKOS-style
    unforgeable sender identification) and the information needed for a
    direct reply: the sender's reply endpoint, the label the reply
    will carry, and the send endpoint whose credits the reply
    refills. *)

type t = {
  length : int;        (** payload bytes *)
  label : int64;       (** receiver-chosen channel label *)
  sender_pe : int;
  crd_ep : int;        (** sender's send EP to refill on reply *)
  reply_ep : int;      (** sender's receive EP for the reply *)
  reply_label : int64; (** label carried by the reply *)
  has_reply : bool;    (** whether a reply is permitted *)
  is_reply : bool;     (** whether this message itself is a reply *)
}

(** Bytes a header occupies on the wire and in a ringbuffer slot; the
    last four are reserved and written as zero. *)
val size : int

(** [write store ~addr h] serializes [h] into a store. *)
val write : M3_mem.Store.t -> addr:int -> t -> unit

(** [read store ~addr] deserializes a header. *)
val read : M3_mem.Store.t -> addr:int -> t
