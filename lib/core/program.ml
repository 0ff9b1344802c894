type main = Env.t -> int

type t = {
  prog_name : string;
  prog_main : main;
  prog_image_bytes : int;
}

(* Process-global and touched from concurrent simulations (domain
   pool, partitioned runs): the table is mutex-protected and lambda
   names are minted atomically. *)
let registry : (string, t) M3_sim.Locked.Table.t = M3_sim.Locked.Table.create 32

let default_image_bytes = 16 * 1024

let register ~name ~image_bytes main =
  M3_sim.Locked.Table.replace registry name
    { prog_name = name; prog_main = main; prog_image_bytes = image_bytes }

let lambda_counter = Atomic.make 0

let register_lambda ~image_bytes main =
  let name =
    Printf.sprintf "lambda.%d" (Atomic.fetch_and_add lambda_counter 1 + 1)
  in
  register ~name ~image_bytes main;
  name

let find name = M3_sim.Locked.Table.find_opt registry name

let remove_if f = M3_sim.Locked.Table.remove_if registry (fun name _ -> f name)

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
