(** Kernel object model: VPEs, capabilities, and the derivation tree.

    A capability is a pair of a kernel object and permissions, held in
    a per-VPE table indexed by selectors (like UNIX file descriptors,
    §4.5.3). Delegations record parent/child edges so that [revoke]
    can undo an exchange recursively — the "mapping database" of L4
    microkernels. This module is pure bookkeeping; the side effects of
    revocation (invalidating endpoints, resetting PEs) are injected as
    callbacks by the kernel. *)

module Perm = M3_mem.Perm

type vpe_state =
  | V_init     (** created, not yet started *)
  | V_running
  | V_dead

(** Why a VPE died. The first cause sticks: a crash-triggered abort
    racing a normal exit (or a duplicate [vpe_exit]) cannot overwrite
    it. *)
type exit_cause =
  | C_exit of int      (** voluntary [vpe_exit] with this code *)
  | C_abort of string  (** kernel abort, e.g. ["pe crash"] *)

type vpe = {
  v_id : int;
  v_name : string;
  mutable v_pe : int;         (** PE the VPE is currently bound to *)
  v_caps : (int, cap) Hashtbl.t;
  mutable v_state : vpe_state;
  mutable v_exit_code : int option;
  mutable v_cause : exit_cause option;  (** set once, first death wins *)
  mutable v_waiters : (int * int) list;
      (** syscall-reply handles of VPEs blocked in [vpe_wait] on this
          VPE: [(kernel_ep, slot)] to reply to when it exits *)
}

and rgate_obj = {
  rg_vpe : vpe;               (** owner — messages land in its SPM *)
  rg_ep : int;
  rg_buf_addr : int;
  rg_slot_order : int;
  rg_slot_count : int;
}

and srv_obj = {
  srv_name : string;
  srv_vpe : vpe;
  srv_krgate : rgate_obj;     (** kernel → service channel *)
  srv_crgate : rgate_obj;     (** client sessions channel *)
  mutable srv_next_ident : int64;
}

and obj =
  | O_vpe of vpe
  | O_mem of {
      mutable mem_pe : int;
          (** mutable: the scheduler repoints SPM windows on migration *)
      mutable mem_addr : int;
      mem_size : int;
      mem_perm : Perm.t;
    }
  | O_rgate of rgate_obj
  | O_sgate of {
      sg_rgate : rgate_obj;
      sg_label : int64;
      sg_credits : M3_dtu.Endpoint.credit;
    }
  | O_srv of srv_obj
  | O_sess of { sess_srv : srv_obj; sess_ident : int64 }

and cap = {
  c_sel : int;
  c_owner : vpe;
  c_obj : obj;
  mutable c_parent : cap option;
  mutable c_children : cap list;
      (** derived capabilities, newest first. Revoked ones linger
          until they outnumber the live ones ([c_valid] tells them
          apart); with no live child the list is empty. *)
  mutable c_live : int;   (** live entries of [c_children] *)
  mutable c_stale : int;  (** revoked entries of [c_children] *)
  mutable c_activated : int list;
      (** endpoints of the owner's DTU currently configured from this cap *)
  mutable c_valid : bool;
}

val make_vpe : id:int -> name:string -> pe:int -> vpe

(** [insert vpe ~sel obj ~parent] creates a capability in [vpe]'s
    table, linked under [parent] in the derivation tree.
    Returns [Error E_no_sel] if [sel] is occupied. *)
val insert :
  vpe -> sel:int -> obj -> parent:cap option -> (cap, Errno.t) result

(** [get vpe ~sel] looks a capability up. *)
val get : vpe -> sel:int -> (cap, Errno.t) result

(** [derive_to ~cap ~dst ~dst_sel obj] inserts a child capability of
    [cap] (same or narrowed object) into [dst]'s table — the common
    step of delegate and obtain. *)
val derive_to :
  cap:cap -> dst:vpe -> dst_sel:int -> obj -> (cap, Errno.t) result

(** [revoke cap ~on_drop] removes [cap] and every capability derived
    from it, in all tables; [on_drop] runs for each removed capability
    (depth-first, a capability's newest child first, each child before
    its parent) so the kernel can invalidate endpoints etc. Unlinking
    [cap] from its parent is O(1) amortised. *)
val revoke : cap -> on_drop:(cap -> unit) -> unit

(** [count_caps vpe] is the number of live capabilities in the table. *)
val count_caps : vpe -> int
