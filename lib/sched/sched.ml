(* Kernel VPE scheduler state. Mechanism-free: the kernel's sweep
   process, which can talk to DTUs and to the capability store,
   performs the ext commands around these transitions. Queues are per
   core class: a VPE suspended off a general-purpose core can only
   resume on a compatible one (§4.4's heterogeneity constraint). *)

module Core_type = M3_hw.Core_type
module Process = M3_sim.Process

type kind =
  | Park
  | Requeue

type 'p state =
  | Placed
  | Suspending of kind
  | Parked of Core_type.t * 'p
  | Queued of Core_type.t

type op =
  | Op_suspend of int
  | Op_resume of int
  | Op_quiesced of int

type 'p t = {
  states : (int, 'p state) Hashtbl.t; (* absent: [Placed] *)
  queues : (Core_type.t, (int * 'p) Queue.t) Hashtbl.t;
  ops : op Queue.t;
  wake : unit Process.Waitq.waitq;
}

let create () =
  {
    states = Hashtbl.create 8;
    queues = Hashtbl.create 4;
    ops = Queue.create ();
    wake = Process.Waitq.create ();
  }

(* --- per-VPE state ----------------------------------------------------- *)

let state t ~vpe = Option.value (Hashtbl.find_opt t.states vpe) ~default:Placed

let set t ~vpe = function
  | Placed -> Hashtbl.remove t.states vpe
  | s -> Hashtbl.replace t.states vpe s

let queue_for t core =
  match Hashtbl.find_opt t.queues core with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.queues core q;
    q

let enqueue t ~vpe ~core p =
  Queue.push (vpe, p) (queue_for t core);
  set t ~vpe (Queued core)

(* A VPE suspending, parked or queued is off its PE already, or about
   to be. *)
let suspendable t ~vpe = match state t ~vpe with Placed -> true | _ -> false

let suspend t ~vpe =
  let ok = suspendable t ~vpe in
  if ok then set t ~vpe (Suspending Park);
  ok

let resume t ~vpe =
  match state t ~vpe with
  | Parked (core, p) -> enqueue t ~vpe ~core p
  | Suspending _ -> set t ~vpe (Suspending Requeue)
  | Placed | Queued _ -> ()

let captured t ~vpe ~core p =
  match state t ~vpe with
  | Suspending Park -> set t ~vpe (Parked (core, p))
  | Suspending Requeue -> enqueue t ~vpe ~core p
  | Placed | Parked _ | Queued _ -> invalid_arg "Sched.captured: no suspension"

let settle t ~vpe =
  match state t ~vpe with Suspending _ -> set t ~vpe Placed | _ -> ()

let take t ~core =
  let next = Option.bind (Hashtbl.find_opt t.queues core) Queue.take_opt in
  Option.iter (fun (vpe, _) -> set t ~vpe Placed) next;
  next

let kill t ~vpe =
  let held =
    match state t ~vpe with
    | Parked (_, p) -> [ p ]
    | Queued core ->
      let q = queue_for t core in
      let entries = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      List.filter_map
        (fun ((v, p) as e) ->
          if v = vpe then Some p
          else begin
            Queue.push e q;
            None
          end)
        entries
    | Placed | Suspending _ -> []
  in
  Hashtbl.remove t.states vpe;
  held

let parked t =
  Hashtbl.fold (fun _ s n -> match s with Parked _ -> n + 1 | _ -> n) t.states 0

let queue t ~core =
  match Hashtbl.find_opt t.queues core with
  | None -> []
  | Some q -> List.of_seq (Queue.to_seq q)

(* --- pending operations ----------------------------------------------- *)

let request t op =
  Queue.push op t.ops;
  Process.Waitq.broadcast t.wake ()

let next_op t = Queue.take_opt t.ops
let pending_ops t = Queue.length t.ops

let wait_work t = Process.Waitq.park t.wake
let wake t = Process.Waitq.broadcast t.wake ()
