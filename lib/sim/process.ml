let src = Logs.Src.create "m3.sim.process" ~doc:"simulation processes"

module Log = (val Logs.src_log src : Logs.LOG)

type status =
  | Running
  | Finished
  | Failed of exn

type t = {
  name : string;
  engine : Engine.t;
  mutable state : status;
  mutable kill_requested : bool;
  handle : t option; (* [Some] of this record, made once at spawn *)
}

exception Killed

type _ Effect.t +=
  | Wait : t * int -> unit Effect.t
  | Suspend : t * (('a -> unit) -> unit) -> 'a Effect.t

(* The process currently executing, so that [wait]/[suspend] need no
   explicit handle. A process runs to its next effect without
   interleaving, so one global cell suffices. *)
let current : t option ref = ref None

(* Runs [k] as [p] up to [p]'s next effect. A resume is one step of a
   process, so it allocates nothing: [p.handle] is made once, and the
   previous [current] is put back without a [Fun.protect] closure. *)
let resume p k v =
  let saved = !current in
  current := p.handle;
  match
    if p.kill_requested then Effect.Deep.discontinue k Killed
    else Effect.Deep.continue k v
  with
  | () -> current := saved
  | exception e ->
    current := saved;
    raise e

let self () =
  match !current with
  | Some p -> p
  | None -> failwith "Process.wait/suspend called outside a process"

let check_killed p = if p.kill_requested then raise Killed

let spawn engine ~name f =
  let rec p =
    { name; engine; state = Running; kill_requested = false; handle = Some p }
  in
  let finish () = if p.state = Running then p.state <- Finished in
  let fail e =
    Log.debug (fun m -> m "process %s failed: %s" name (Printexc.to_string e));
    p.state <- Failed e
  in
  let open Effect.Deep in
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> finish ());
      exnc =
        (fun e ->
          match e with
          | Killed -> finish ()
          | e -> fail e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait (q, n) when q == p ->
            Some
              (fun (k : (a, unit) continuation) ->
                Engine.schedule engine ~delay:n (fun () -> resume p k ()))
          | Suspend (q, register) when q == p ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = ref false in
                let wake v =
                  if not !resumed then begin
                    resumed := true;
                    Engine.schedule engine ~delay:0 (fun () -> resume p k v)
                  end
                in
                register wake)
          | _ -> None);
    }
  in
  (* The body starts parked in a zero wait, so its first step is a
     resume like every later one. *)
  match_with
    (fun () ->
      Effect.perform (Wait (p, 0));
      f ())
    () handler;
  p

let name p = p.name

let status p = p.state

let kill p = if p.state = Running then p.kill_requested <- true

(* A wait whose resume would be the engine's next event runs on in
   place: no other event can run in between, so a [kill] cannot land
   there either. *)
let wait n =
  if n < 0 then invalid_arg "Process.wait: negative duration";
  let p = self () in
  check_killed p;
  if not (Engine.advance p.engine ~delay:n) then Effect.perform (Wait (p, n))

let suspend register =
  let p = self () in
  check_killed p;
  Effect.perform (Suspend (p, register))

module Ivar = struct
  type 'a state_ =
    | Empty of ('a -> unit) list
    | Full of 'a

  type 'a ivar = { mutable cell : 'a state_ }

  let create () = { cell = Empty [] }

  let fill iv v =
    match iv.cell with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty readers ->
      iv.cell <- Full v;
      List.iter (fun resume -> resume v) (List.rev readers)

  let is_filled iv = match iv.cell with Full _ -> true | Empty _ -> false

  let peek iv = match iv.cell with Full v -> Some v | Empty _ -> None

  let read iv =
    match iv.cell with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match iv.cell with
          | Full v -> resume v
          | Empty readers -> iv.cell <- Empty (resume :: readers))
end

module Waitq = struct
  (* Entries carry a liveness flag so that waiting on several queues at
     once (Dtu.wait) can cancel the losers after one queue fires:
     a consumed or cancelled entry must neither count as a waiter nor
     absorb a signal (which would silently lose the wakeup). *)
  type 'a entry = {
    e_resume : 'a -> unit;
    mutable e_live : bool;
  }

  type 'a waitq = { mutable parked : 'a entry list (* newest first *) }

  let create () = { parked = [] }

  let sweep q =
    match q.parked with
    | [] -> ()
    | _ -> q.parked <- List.filter (fun e -> e.e_live) q.parked

  let register q resume =
    sweep q;
    let e = { e_resume = resume; e_live = true } in
    q.parked <- e :: q.parked;
    e

  let cancel e = e.e_live <- false

  let park q = suspend (fun resume -> ignore (register q resume))

  let signal q v =
    let rec oldest_live = function
      | [] -> None
      | e :: rest -> if e.e_live then Some (e, rest) else oldest_live rest
    in
    match oldest_live (List.rev q.parked) with
    | None ->
      q.parked <- [];
      false
    | Some (e, rest_oldest_first) ->
      q.parked <- List.rev rest_oldest_first;
      e.e_live <- false;
      e.e_resume v;
      true

  let broadcast q v =
    let all = List.rev q.parked in
    q.parked <- [];
    List.iter
      (fun e ->
        if e.e_live then begin
          e.e_live <- false;
          e.e_resume v
        end)
      all

  let waiters q = List.fold_left (fun n e -> if e.e_live then n + 1 else n) 0 q.parked
end
