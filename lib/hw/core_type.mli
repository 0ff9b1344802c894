(** Kinds of cores a PE can carry. The whole point of the DTU is that
    the OS never needs to know more about a core than this tag: every
    PE looks the same from the NoC. *)

type t =
  | General_purpose  (** Xtensa-like RISC core, no MMU, no privileged mode *)
  | Fft_accelerator  (** core with FFT instruction-set extensions (§5.8) *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
