type t =
  | E_ok
  | E_inv_args
  | E_no_sel
  | E_no_perm
  | E_no_pe
  | E_no_space
  | E_not_found
  | E_exists
  | E_no_ep
  | E_is_dir
  | E_not_dir
  | E_not_empty
  | E_eof
  | E_vpe_gone
  | E_no_credits
  | E_timeout
  | E_vpe_dead
  | E_pipe_broken
  | E_overload
  | E_throttled
  | E_unavailable
  | E_kv_too_large
  | E_dtu of string

let to_string = function
  | E_ok -> "ok"
  | E_inv_args -> "invalid arguments"
  | E_no_sel -> "bad capability selector"
  | E_no_perm -> "permission denied"
  | E_no_pe -> "no free PE"
  | E_no_space -> "no space"
  | E_not_found -> "not found"
  | E_exists -> "already exists"
  | E_no_ep -> "no free endpoint"
  | E_is_dir -> "is a directory"
  | E_not_dir -> "not a directory"
  | E_not_empty -> "directory not empty"
  | E_eof -> "end of file"
  | E_vpe_gone -> "VPE gone"
  | E_no_credits -> "no credits"
  | E_timeout -> "timed out"
  | E_vpe_dead -> "VPE crashed"
  | E_pipe_broken -> "pipe peer died"
  | E_overload -> "service overloaded"
  | E_throttled -> "client over rate budget"
  | E_unavailable -> "backend unavailable (breaker open)"
  | E_kv_too_large -> "value exceeds the store's value budget"
  | E_dtu m -> "hardware error: " ^ m

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_int = function
  | E_ok -> 0
  | E_inv_args -> 1
  | E_no_sel -> 2
  | E_no_perm -> 3
  | E_no_pe -> 4
  | E_no_space -> 5
  | E_not_found -> 6
  | E_exists -> 7
  | E_no_ep -> 8
  | E_is_dir -> 9
  | E_not_dir -> 10
  | E_not_empty -> 11
  | E_eof -> 12
  | E_vpe_gone -> 13
  | E_no_credits -> 15
  | E_timeout -> 16
  | E_vpe_dead -> 17
  | E_pipe_broken -> 18
  | E_overload -> 19
  | E_throttled -> 20
  | E_unavailable -> 21
  | E_kv_too_large -> 22
  | E_dtu _ -> 14

let of_int = function
  | 0 -> E_ok
  | 1 -> E_inv_args
  | 2 -> E_no_sel
  | 3 -> E_no_perm
  | 4 -> E_no_pe
  | 5 -> E_no_space
  | 6 -> E_not_found
  | 7 -> E_exists
  | 8 -> E_no_ep
  | 9 -> E_is_dir
  | 10 -> E_not_dir
  | 11 -> E_not_empty
  | 12 -> E_eof
  | 13 -> E_vpe_gone
  | 15 -> E_no_credits
  | 16 -> E_timeout
  | 17 -> E_vpe_dead
  | 18 -> E_pipe_broken
  | 19 -> E_overload
  | 20 -> E_throttled
  | 21 -> E_unavailable
  | 22 -> E_kv_too_large
  | _ -> E_dtu "remote"

let equal a b = to_int a = to_int b

exception Error of t

let ok_exn = function Ok v -> v | Error e -> raise (Error e)
