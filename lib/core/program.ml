type main = Env.t -> int

type t = {
  prog_name : string;
  prog_main : main;
  prog_image_bytes : int;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let default_image_bytes = 16 * 1024

let register ~name ~image_bytes main =
  Hashtbl.replace registry name
    { prog_name = name; prog_main = main; prog_image_bytes = image_bytes }

let lambda_counter = ref 0

let register_lambda ~image_bytes main =
  incr lambda_counter;
  let name = Printf.sprintf "lambda.%d" !lambda_counter in
  register ~name ~image_bytes main;
  name

let find name = Hashtbl.find_opt registry name

let remove_if f =
  Hashtbl.filter_map_inplace
    (fun name p -> if f name then None else Some p)
    registry

let shebang name = "#!m3 " ^ name ^ "\n"

let parse_shebang contents =
  let prefix = "#!m3 " in
  if String.length contents > String.length prefix
     && String.sub contents 0 (String.length prefix) = prefix
  then begin
    let rest =
      String.sub contents (String.length prefix)
        (String.length contents - String.length prefix)
    in
    match String.index_opt rest '\n' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> Some rest
  end
  else None
