module Rng = M3_sim.Rng
module Wire = M3_serve.Wire
module Load = M3_serve.Load

type sampler = Rng.t -> int

let zipf_keys ~n ~theta = Load.zipf_clients ~n ~theta
let uniform_keys ~n = Load.uniform_clients ~n

(* Mixes build placeholder ops (key 0): kinds and weights are fixed at
   schedule-draw time, keys are stamped afterwards by [assign_keys] —
   the tail convention again, so swapping the key distribution never
   perturbs arrival times or the read/write pattern. *)

let op_mix ~reads ~writes : Load.mix =
  if reads < 0 || writes < 0 || reads + writes = 0 then
    invalid_arg "Kv_load.op_mix: bad weights";
  let get = Kv_wire.pack (Kv_wire.Get { key = 0 }) in
  let put = Kv_wire.pack (Kv_wire.Put { key = 0; len = 0 }) in
  List.filter
    (fun (w, _) -> w > 0)
    [ (reads, fun _ -> Wire.Kv get); (writes, fun _ -> Wire.Kv put) ]

let read_heavy = op_mix ~reads:9 ~writes:1

let rekey arg key =
  Kv_wire.pack
    (match Kv_wire.unpack arg with
    | Kv_wire.Get _ -> Kv_wire.Get { key }
    | Kv_wire.Put { len; _ } -> Kv_wire.Put { key; len })

let assign_keys ~rng ~sample schedule =
  Array.map
    (fun (a : Load.arrival) ->
      match a.Load.req.Wire.rk with
      | Wire.Kv arg ->
        let arg = rekey arg (sample rng) in
        { a with Load.req = { a.Load.req with Wire.rk = Wire.Kv arg } }
      | _ -> a)
    schedule

let closed_kinds ~rng ~sample ~mix ~count =
  if count < 1 then invalid_arg "Kv_load.closed_kinds: bad count";
  let pick = Load.pick_of ~rng ~mix in
  (* kinds first, keys from the tail — explicit loops pin the draw
     order (Array.init's application order is unspecified) *)
  let kinds = Array.make count (Wire.Echo 0) in
  for i = 0 to count - 1 do
    kinds.(i) <- pick i
  done;
  for i = 0 to count - 1 do
    match kinds.(i) with
    | Wire.Kv arg -> kinds.(i) <- Wire.Kv (rekey arg (sample rng))
    | _ -> ()
  done;
  fun seq -> kinds.(seq mod count)
