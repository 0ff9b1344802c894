module Perm = M3_mem.Perm

type vpe_state =
  | V_init
  | V_running
  | V_dead

type exit_cause =
  | C_exit of int
  | C_abort of string

type vpe = {
  v_id : int;
  v_name : string;
  mutable v_pe : int;
  v_caps : (int, cap) Hashtbl.t;
  mutable v_state : vpe_state;
  mutable v_exit_code : int option;
  mutable v_cause : exit_cause option;
  mutable v_waiters : (int * int) list;
}

and rgate_obj = {
  rg_vpe : vpe;
  rg_ep : int;
  rg_buf_addr : int;
  rg_slot_order : int;
  rg_slot_count : int;
}

and srv_obj = {
  srv_name : string;
  srv_vpe : vpe;
  srv_krgate : rgate_obj;
  srv_crgate : rgate_obj;
  mutable srv_next_ident : int64;
}

and obj =
  | O_vpe of vpe
  | O_mem of {
      (* mutable so the scheduler can retarget a migrated VPE's own-SPM
         windows (and its DRAM staging cap) without reissuing caps *)
      mutable mem_pe : int;
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
  mutable c_live : int;
  mutable c_stale : int;
  mutable c_activated : int list;
  mutable c_valid : bool;
}

let make_vpe ~id ~name ~pe =
  {
    v_id = id;
    v_name = name;
    v_pe = pe;
    v_caps = Hashtbl.create 16;
    v_state = V_init;
    v_exit_code = None;
    v_cause = None;
    v_waiters = [];
  }

let insert vpe ~sel obj ~parent =
  if Hashtbl.mem vpe.v_caps sel then Error Errno.E_no_sel
  else begin
    let cap =
      {
        c_sel = sel;
        c_owner = vpe;
        c_obj = obj;
        c_parent = parent;
        c_children = [];
        c_live = 0;
        c_stale = 0;
        c_activated = [];
        c_valid = true;
      }
    in
    (match parent with
    | Some p ->
      p.c_children <- cap :: p.c_children;
      p.c_live <- p.c_live + 1
    | None -> ());
    Hashtbl.add vpe.v_caps sel cap;
    Ok cap
  end

let get vpe ~sel =
  match Hashtbl.find_opt vpe.v_caps sel with
  | Some cap when cap.c_valid -> Ok cap
  | Some _ | None -> Error Errno.E_no_sel

let derive_to ~cap ~dst ~dst_sel obj = insert dst ~sel:dst_sel obj ~parent:(Some cap)

(* A revoked child stays in its parent's [c_children] until the stale
   entries outnumber the live ones; then one pass sweeps them all. An
   unlink is thus O(1) amortised, however many siblings it has (an m3fs
   image capability collects every client's extent capabilities), and
   a parent left without live children holds an empty list. *)
let unlink p =
  p.c_live <- p.c_live - 1;
  p.c_stale <- p.c_stale + 1;
  if p.c_stale > p.c_live then begin
    p.c_children <- List.filter (fun c -> c.c_valid) p.c_children;
    p.c_stale <- 0
  end

let rec revoke cap ~on_drop =
  if cap.c_valid then begin
    (* Depth-first: children go first, newest first, so a service's
       derived client capabilities disappear before the service
       capability itself. *)
    List.iter (fun child -> revoke child ~on_drop) cap.c_children;
    cap.c_children <- [];
    cap.c_live <- 0;
    cap.c_stale <- 0;
    cap.c_valid <- false;
    Hashtbl.remove cap.c_owner.v_caps cap.c_sel;
    Option.iter unlink cap.c_parent;
    on_drop cap
  end

let count_caps vpe = Hashtbl.length vpe.v_caps
