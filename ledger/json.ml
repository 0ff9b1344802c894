(* A minimal JSON reader for run records and BENCHMARK.json. Writing
   goes through the [M3_harness.Figs] emitters. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        go ()
      | '\000' -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let num () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (num ())
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing input";
  v

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_num = function Some (Num f) -> Some f | _ -> None
let to_str = function Some (Str s) -> Some s | _ -> None
