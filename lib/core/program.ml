type main = Env.t -> int

type t = {
  prog_main : main;
  prog_image_bytes : int;
}

type registry = {
  programs : (string, t) Hashtbl.t;
  mutable lambdas : int;
}

type M3_sim.Engine.local += Registry of registry

let registry engine =
  M3_sim.Engine.local engine
    (function Registry r -> Some r | _ -> None)
    (fun () -> Registry { programs = Hashtbl.create 8; lambdas = 0 })

let default_image_bytes = 16 * 1024

let register engine ~name ~image_bytes main =
  Hashtbl.replace (registry engine).programs name
    { prog_main = main; prog_image_bytes = image_bytes }

let register_lambda engine ~image_bytes main =
  let r = registry engine in
  r.lambdas <- r.lambdas + 1;
  let name = Printf.sprintf "lambda.%d" r.lambdas in
  register engine ~name ~image_bytes main;
  name

let find engine name = Hashtbl.find_opt (registry engine).programs name

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
