type op =
  | T_open of { slot : int; path : string; write : bool; create : bool; trunc : bool }
  | T_read of { slot : int; len : int }
  | T_write of { slot : int; len : int }
  | T_sendfile of { dst : int; src : int; len : int }
  | T_seek of { slot : int; pos : int }
  | T_close of { slot : int }
  | T_stat of { path : string }
  | T_mkdir of string
  | T_unlink of string
  | T_readdir of { path : string; entries : int }
  | T_compute of int

type t = op list

type summary = {
  n_ops : int;
  n_data_bytes : int;
  n_compute : int;
  n_meta : int;
}

let summarize ops =
  List.fold_left
    (fun acc op ->
      let acc = { acc with n_ops = acc.n_ops + 1 } in
      match op with
      | T_read { len; _ } | T_write { len; _ } | T_sendfile { len; _ } ->
        { acc with n_data_bytes = acc.n_data_bytes + len }
      | T_compute c -> { acc with n_compute = acc.n_compute + c }
      | T_open _ | T_close _ | T_stat _ | T_mkdir _ | T_unlink _
      | T_readdir _ | T_seek _ ->
        { acc with n_meta = acc.n_meta + 1 })
    { n_ops = 0; n_data_bytes = 0; n_compute = 0; n_meta = 0 }
    ops
