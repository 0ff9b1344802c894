(** Program registry — the simulator's stand-in for binaries.

    In the prototype, starting a VPE means copying code into the target
    SPM and pointing the PE at the entry address. Here, "code" is an
    OCaml function; the registry maps a program name (the token that
    travels through the [vpe_start] syscall, or the content of an
    executable file's [#!m3 <name>] line) to that function plus the
    image size whose copy the clone/exec paths charge for. *)

(** A program: receives its environment, returns an exit code. *)
type main = Env.t -> int

type t = {
  prog_name : string;
  prog_main : main;
  prog_image_bytes : int;
}

(** [register ~name ~image_bytes main] adds a program; re-registering a
    name replaces it (tests rely on this). *)
val register : name:string -> image_bytes:int -> main -> unit

(** [register_lambda ~image_bytes main] registers under a fresh
    generated name and returns that name — the clone ([VPE::run])
    path. *)
val register_lambda : image_bytes:int -> main -> string

val find : string -> t option

(** [remove_if f] drops every program whose name satisfies [f]. *)
val remove_if : (string -> bool) -> unit

(** Default image size charged for a program when unspecified
    (16 KiB — code plus static data in the 64 KiB SPM). *)
val default_image_bytes : int

(** [shebang name] is the executable-file content that selects a
    registered program ("#!m3 <name>\n"). *)
val shebang : string -> string

(** [parse_shebang contents] extracts the program name, if any. *)
val parse_shebang : string -> string option
