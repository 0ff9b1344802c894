(* [ledger.exe compare PARENT CHANGE]: judge a change against its
   parent from two logs of untraced runs, per workload and end-to-end
   metric.

   A log is any text file; every line holding a run record (a JSON
   object with "workload" and "metrics") counts, so captured standard
   output works as is. Runs of the two sides are paired in order, so
   run them alternately, each side first in turn. The metrics, their
   direction and their bounds come from BENCHMARK.json. *)

type record = {
  workload : string;
  seed : int;
  digest : string;
  values : (string * float) list;
}

let read_records path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match Json.parse line with
      | exception Json.Error _ -> lines acc
      | j -> (
        match (Json.to_str (Json.member "workload" j), Json.member "metrics" j) with
        | Some workload, Some (Json.Obj ms)
          when Json.member "trace" j <> Some (Json.Bool true) ->
          let values =
            List.filter_map (fun (k, v) -> Json.to_num (Some v) |> Option.map (fun f -> (k, f))) ms
          in
          let seed =
            Option.fold ~none:0 ~some:int_of_float (Json.to_num (Json.member "seed" j))
          in
          let digest = Option.value (Json.to_str (Json.member "sim_digest" j)) ~default:"" in
          lines ({ workload; seed; digest; values } :: acc)
        | _ -> lines acc))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> lines [])

type metric = { name : string; lower : bool; bound : float }

let read_metrics path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match Json.member "end_to_end" (Json.parse text) with
  | Some (Json.Arr ms) ->
    List.filter_map
      (fun m ->
        match
          ( Json.to_str (Json.member "name" m),
            Json.to_str (Json.member "better" m),
            Json.to_num (Json.member "bound" m) )
        with
        | Some name, Some better, Some bound -> Some { name; lower = better = "lower"; bound }
        | _ -> None)
      ms
  | _ -> failwith (path ^ ": no end_to_end metrics")

(* The rule of the choosing-metrics guide, section 8: a gain needs nine
   wins in ten pairs and a median shift beyond the parent's quartile
   spread; a loss beyond the bound is a regression unless the parent's
   own spread is wider than the bound, which leaves it unresolved —
   unless every change run beats every parent run. A metric that reads
   the same in every one of two or more runs on each side is a
   simulated one at one seed:
   it is deterministic, so any shift counts and the bound, which covers
   the spread between seeds, does not apply. *)
let verdict m a b =
  let worse x y = if m.lower then x > y else x < y in
  let q1a, ma, q3a = Meter.quartiles a in
  let mb = Meter.median b in
  let pairs = min (List.length a) (List.length b) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.length (List.filter (fun (x, y) -> worse x y) (List.combine (take a) (take b)))
  in
  let scale = if ma = 0.0 then 1.0 else Float.abs ma in
  let loss = (if m.lower then mb -. ma else ma -. mb) /. scale in
  let spread = (q3a -. q1a) /. scale in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> worse x y) a) b in
  let constant l = List.length l > 1 && List.for_all (fun x -> x = List.hd l) l in
  let v =
    if constant a && constant b then
      if loss > 0.0 then "worse" else if loss < 0.0 then "improved" else "no worse"
    else if pairs > 0 && float_of_int wins >= 0.9 *. float_of_int pairs && -.loss > spread
    then "improved"
    else if spread > m.bound && not all_better then "unresolved"
    else if loss > m.bound then "worse"
    else "no worse"
  in
  (v, wins, pairs, loss)

let run ~bench parent change =
  let metrics = read_metrics bench in
  let a = read_records parent and b = read_records change in
  let workloads =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] (a @ b)
  in
  let worse = ref 0 in
  Printf.printf "%-11s %-14s %30s %30s %8s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "gain" "wins" "verdict";
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> r.workload = w) a
      and rb = List.filter (fun r -> r.workload = w) b in
      List.iter
        (fun m ->
          let vals rs = List.filter_map (fun r -> List.assoc_opt m.name r.values) rs in
          match (vals ra, vals rb) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let q s =
              let q1, md, q3 = Meter.quartiles s in
              Printf.sprintf "%.5g [%.5g, %.5g]" md q1 q3
            in
            let v, wins, pairs, loss = verdict m va vb in
            if v = "worse" then incr worse;
            Printf.printf "%-11s %-14s %30s %30s %+7.2f%% %3d/%-2d  %s\n" w m.name (q va)
              (q vb) (100.0 *. -.loss) wins pairs v)
        metrics;
      (* A host-only change must leave every simulated output as it was. *)
      let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) (ra @ rb)) in
      List.iter
        (fun seed ->
          let digests rs =
            List.sort_uniq compare
              (List.filter_map
                 (fun r -> if r.seed = seed then Some r.digest else None)
                 rs)
          in
          match (digests ra, digests rb) with
          | [ x ], [ y ] when x = y -> ()
          | [], _ | _, [] -> ()
          | da, db ->
            Printf.printf "%-11s sim_digest differs at seed %d: parent %s, change %s\n"
              w seed (String.concat "/" da) (String.concat "/" db))
        seeds)
    workloads;
  if !worse > 0 then 1 else 0
