let activations (env : Env.t) = env.activations

(* Picks an endpoint for a gate that needs one: a free slot if
   possible, otherwise the next multiplexed slot in round-robin order
   (never a reserved one). *)
let pick_slot (env : Env.t) =
  let slots = env.ep_slots in
  let n = Array.length slots in
  let rec find_free i =
    if i >= n then None
    else
      match slots.(i) with
      | Env.Ep_free -> Some i
      | Env.Ep_reserved | Env.Ep_used _ -> find_free (i + 1)
  in
  match find_free 0 with
  | Some i -> Ok i
  | None ->
    let rec find_victim tried =
      if tried >= n then Error Errno.E_no_ep
      else begin
        let i = (env.ep_clock + tried) mod n in
        match slots.(i) with
        | Env.Ep_used victim ->
          env.ep_clock <- (i + 1) mod n;
          victim.eu_ep <- None;
          Ok i
        | Env.Ep_free | Env.Ep_reserved -> find_victim (tried + 1)
      end
    in
    find_victim 0

(* A reservation pins a slot permanently (receive gates cannot move),
   but it need not fail just because every slot currently holds a
   multiplexed send/mem gate activation: those users reactivate on
   their next use, so one can be evicted exactly as [pick_slot] does
   for a new multiplexed gate. Only a PE whose every slot is already
   pinned is truly out of endpoints. *)
let reserve (env : Env.t) =
  match pick_slot env with
  | Error e -> raise (Errno.Error e)
  | Ok slot ->
    env.ep_slots.(slot) <- Env.Ep_reserved;
    slot + Env.first_free_ep

let acquire (env : Env.t) (user : Env.ep_user) =
  match user.eu_ep with
  | Some ep -> Ok ep
  | None -> (
    match pick_slot env with
    | Error e -> Error e
    | Ok slot -> (
      let ep = slot + Env.first_free_ep in
      match Syscalls.activate env ~sel:user.eu_sel ~ep with
      | Error e -> Error e
      | Ok () ->
        env.activations <- env.activations + 1;
        env.ep_slots.(slot) <- Env.Ep_used user;
        user.eu_ep <- Some ep;
        Ok ep))

let drop (env : Env.t) (user : Env.ep_user) =
  match user.eu_ep with
  | None -> ()
  | Some ep ->
    let slot = ep - Env.first_free_ep in
    (match env.ep_slots.(slot) with
    | Env.Ep_used u when u == user -> env.ep_slots.(slot) <- Env.Ep_free
    | Env.Ep_used _ | Env.Ep_free | Env.Ep_reserved -> ());
    user.eu_ep <- None
