type t =
  | General_purpose
  | Fft_accelerator

let equal a b =
  match (a, b) with
  | General_purpose, General_purpose -> true
  | Fft_accelerator, Fft_accelerator -> true
  | (General_purpose | Fft_accelerator), _ -> false

let to_string = function
  | General_purpose -> "general-purpose"
  | Fft_accelerator -> "fft-accelerator"

let pp ppf t = Format.pp_print_string ppf (to_string t)
