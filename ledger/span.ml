(* Bench-side span recorder for traced runs.

   Spans are recorded from the benchmark's own code, around each call
   it makes into a layer (bootstrap, engine, libm3, pools, replays);
   nothing inside the library is instrumented. A span holds its name,
   host start/end, simulated start/end, its parent and an operation id.

   Parents follow call nesting per simulated thread of control: a span
   opened by a VPE (keyed by its environment uid) nests under that VPE's
   open span, and a VPE's outermost span nests under whatever the
   benchmark's own code (tid 0) has open — typically the [engine.run] span of the
   system it belongs to. Spans stay in memory; {!close_unit} folds a
   finished unit into the self-time table and {!write_chrome} dumps the
   kept spans at exit. *)

type span = {
  id : int;
  name : string;
  tid : int;
  parent : int;
  rid : int;
  h0 : float;
  mutable h1 : float;
  s0 : int;
  mutable s1 : int;
}

type row = {
  mutable calls : int;
  mutable total : float;  (** host seconds inside the span *)
  mutable self : float;  (** host seconds not covered by child spans *)
  mutable cycles : int;  (** simulated cycles inside the span *)
}

type t = {
  mutable next : int;
  mutable current : span list;  (** finished spans of the open unit *)
  stacks : (int, span list) Hashtbl.t;
  table : (string, row) Hashtbl.t;
  mutable kept : span list;  (** for the Chrome export, newest first *)
  mutable kept_n : int;
}

(* Spans kept for the Chrome export; the self-time table counts all. *)
let limit = 200_000

let create () =
  {
    next = 0;
    current = [];
    stacks = Hashtbl.create 16;
    table = Hashtbl.create 32;
    kept = [];
    kept_n = 0;
  }

let top t tid =
  match Hashtbl.find_opt t.stacks tid with Some (s :: _) -> Some s | _ -> None

let enter t ~name ~tid ~rid ~sim =
  let parent =
    match top t tid with
    | Some s -> s.id
    | None -> ( match top t 0 with Some s -> s.id | None -> -1)
  in
  let s =
    {
      id = t.next;
      name;
      tid;
      parent;
      rid;
      h0 = Meter.now ();
      h1 = nan;
      s0 = sim;
      s1 = sim;
    }
  in
  t.next <- t.next + 1;
  let stack = Option.value (Hashtbl.find_opt t.stacks tid) ~default:[] in
  Hashtbl.replace t.stacks tid (s :: stack);
  s

let leave t s ~sim =
  s.h1 <- Meter.now ();
  s.s1 <- sim;
  (match Hashtbl.find_opt t.stacks s.tid with
  | Some (top :: rest) when top == s -> Hashtbl.replace t.stacks s.tid rest
  | Some stack ->
    Hashtbl.replace t.stacks s.tid (List.filter (fun x -> x != s) stack)
  | None -> ());
  t.current <- s :: t.current

(* [within t ~name ~tid ~clock f] runs [f] inside a span when [t] is a
   recorder, and is exactly [f ()] otherwise. *)
let within t ~name ~tid ?(rid = -1) ~clock f =
  match t with
  | None -> f ()
  | Some t -> (
    let s = enter t ~name ~tid ~rid ~sim:(clock ()) in
    match f () with
    | v ->
      leave t s ~sim:(clock ());
      v
    | exception e ->
      leave t s ~sim:(clock ());
      raise e)

(* Self time by a sweep over host time: each instant goes to the spans
   open at that instant that have no open child, split evenly among
   them. With one thread of control this is a span's duration minus
   the part its children cover; when simulated threads interleave
   (several VPEs each inside a span), their concurrent spans share the
   host time instead of each claiming all of it. The self times of a
   unit add up to the host time its spans cover. *)
let self_times spans =
  let self = Hashtbl.create 64 in
  let children = Hashtbl.create 64 in
  let leaves = Hashtbl.create 16 in
  let opened = Hashtbl.create 64 in
  (* At equal times, opens go first, parents before children, and closes
     after them, children before parents: a span too short for the clock
     still opens before it closes. *)
  let events =
    List.concat_map (fun s -> [ (s.h0, 0, s.id, s); (s.h1, 1, -s.id, s) ]) spans
    |> List.sort (fun (a, ka, ia, _) (b, kb, ib, _) -> compare (a, ka, ia) (b, kb, ib))
  in
  let prev = ref nan in
  List.iter
    (fun (time, kind, _, s) ->
      let n = Hashtbl.length leaves in
      if n > 0 && time > !prev then begin
        let share = (time -. !prev) /. float_of_int n in
        Hashtbl.iter
          (fun id () ->
            Hashtbl.replace self id
              (share +. Option.value (Hashtbl.find_opt self id) ~default:0.0))
          leaves
      end;
      prev := time;
      let kids id = Option.value (Hashtbl.find_opt children id) ~default:0 in
      if kind = 0 then begin
        Hashtbl.replace opened s.id ();
        Hashtbl.replace leaves s.id ();
        if Hashtbl.mem opened s.parent then begin
          Hashtbl.replace children s.parent (kids s.parent + 1);
          Hashtbl.remove leaves s.parent
        end
      end
      else begin
        Hashtbl.remove opened s.id;
        Hashtbl.remove leaves s.id;
        if Hashtbl.mem opened s.parent then begin
          let k = kids s.parent - 1 in
          Hashtbl.replace children s.parent k;
          if k = 0 then Hashtbl.replace leaves s.parent ()
        end
      end)
    events;
  fun s -> Option.value (Hashtbl.find_opt self s.id) ~default:0.0

(* Fold the spans finished since the last call into the table and keep
   them for export (up to the limit). *)
let close_unit t =
  let spans = t.current in
  t.current <- [];
  let self = self_times spans in
  List.iter
    (fun s ->
      let row =
        match Hashtbl.find_opt t.table s.name with
        | Some r -> r
        | None ->
          let r = { calls = 0; total = 0.0; self = 0.0; cycles = 0 } in
          Hashtbl.replace t.table s.name r;
          r
      in
      row.calls <- row.calls + 1;
      row.total <- row.total +. (s.h1 -. s.h0);
      row.self <- row.self +. self s;
      row.cycles <- row.cycles + (s.s1 - s.s0))
    spans;
  List.iter
    (fun s ->
      if t.kept_n < limit then begin
        t.kept <- s :: t.kept;
        t.kept_n <- t.kept_n + 1
      end)
    (List.rev spans)

(* Rows sorted by self time, largest first. *)
let rows t =
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) t.table []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self a.self)

let print_table ppf t =
  let rows = rows t in
  let self_total = List.fold_left (fun a (_, r) -> a +. r.self) 0.0 rows in
  Format.fprintf ppf "%-24s %9s %11s %11s %7s %12s@." "span (self-time)" "calls"
    "total ms" "self ms" "self%" "sim Mcycles";
  List.iter
    (fun (name, r) ->
      Format.fprintf ppf "%-24s %9d %11.2f %11.2f %6.1f%% %12.3f@." name r.calls
        (r.total *. 1e3) (r.self *. 1e3)
        (if self_total > 0.0 then 100.0 *. r.self /. self_total else 0.0)
        (float_of_int r.cycles /. 1e6))
    rows

(* Chrome trace-event JSON of the kept spans: one complete ("X") event
   per span, host microseconds on the time axis, simulated cycles and
   the span tree in [args]. *)
let write_chrome t path =
  let open M3_harness.Figs in
  let spans = List.rev t.kept in
  let origin =
    List.fold_left (fun m s -> Float.min m s.h0) infinity spans
  in
  let us x = Printf.sprintf "%.3f" ((x -. origin) *. 1e6) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc
            (jobj
               [
                 ("name", jstr s.name);
                 ("cat", jstr "ledger");
                 ("ph", jstr "X");
                 ("ts", us s.h0);
                 ("dur", Printf.sprintf "%.3f" ((s.h1 -. s.h0) *. 1e6));
                 ("pid", "1");
                 ("tid", string_of_int s.tid);
                 ( "args",
                   jobj
                     [
                       ("id", string_of_int s.id);
                       ("parent", string_of_int s.parent);
                       ("rid", string_of_int s.rid);
                       ("sim_start", string_of_int s.s0);
                       ("sim_end", string_of_int s.s1);
                     ] );
               ]))
        spans;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
