(* Running a piece of the benchmark in a forked child process.

   The library keeps process-global state that outlives a simulation:
   name counters that end up in simulated messages, and registries that
   keep finished systems reachable. A child starts from the parent's
   state and takes everything it allocated with it when it exits, so
   repeated pieces see identical inputs and memory stays bounded. *)

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  | _, status -> status

(* [run f] is [f ()] computed in a child, with the child's peak RSS in
   MiB. The result travels back marshalled, so it must hold no
   closures. *)
let run (f : unit -> 'a) : ('a * float, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    (try Marshal.to_channel oc (r, Meter.peak_rss_mib ()) []
     with e ->
       Marshal.to_channel oc
         ((Error (Printexc.to_string e) : ('a, string) result), 0.0)
         []);
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r : (('a, string) result * float) option =
      try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
    in
    close_in ic;
    match (r, waitpid pid) with
    | Some (Ok v, peak), Unix.WEXITED 0 -> Ok (v, peak)
    | Some (Error e, _), _ -> Error e
    | _ -> Error "child process died")
