(* Replica-level parallelism: run independent simulations on a small
   pool of OCaml domains.

   The engine's partitioned mode parallelizes *within* one simulation;
   this module parallelizes *across* simulations — sweeps run several
   complete, independent systems whose only shared state is the
   process-global registries (engine ids, m3fs server tables, per-env
   state tables), all of which are domain-safe (atomic ids,
   mutex-protected tables). Each thunk's
   simulation stays fully deterministic: nothing about host scheduling
   leaks into simulated time. *)

let run ~domains thunks =
  let jobs = Array.of_list thunks in
  let n = Array.length jobs in
  let d = max 1 (min domains n) in
  if d = 1 then List.map (fun f -> f ()) thunks
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          try results.(i) <- Some (jobs.(i) ())
          with e -> errors.(i) <- Some e
      done
    in
    let doms = Array.init (d - 1) (fun _ -> Domain.spawn work) in
    work ();
    Array.iter Domain.join doms;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end
