(** Programs — the simulator's stand-in for binaries.

    In the prototype, starting a VPE means copying code into the target
    SPM and pointing the PE at the entry address. Here, "code" is an
    OCaml function plus the image size whose copy the clone/exec paths
    charge for. The boot loader ({!Kernel.launch}) takes a program by
    value. Only a program that a VPE starts by name — the token that
    travels through the [vpe_start] syscall, or the content of an
    executable file's [#!m3 <name>] line — is registered, and the
    registry belongs to one engine: it dies with its simulation, and
    each simulation numbers its lambdas from 1, whatever ran before it
    in the process. *)

(** A program: receives its environment, returns an exit code. *)
type main = Env.t -> int

type t = {
  prog_main : main;
  prog_image_bytes : int;
}

(** [register engine ~name ~image_bytes main] adds a program to
    [engine]'s registry; re-registering a name replaces it. *)
val register :
  M3_sim.Engine.t -> name:string -> image_bytes:int -> main -> unit

(** [register_lambda engine ~image_bytes main] registers under the
    next name ["lambda.<n>"] of [engine], counting from 1, and returns
    that name — the clone ([VPE::run]) path. *)
val register_lambda : M3_sim.Engine.t -> image_bytes:int -> main -> string

(** [find engine name] is the program registered as [name] in
    [engine]. *)
val find : M3_sim.Engine.t -> string -> t option

(** Default image size charged for a program when unspecified
    (16 KiB — code plus static data in the 64 KiB SPM). *)
val default_image_bytes : int

(** [shebang name] is the executable-file content that selects a
    registered program ("#!m3 <name>\n"). *)
val shebang : string -> string

(** [parse_shebang contents] extracts the program name, if any. *)
val parse_shebang : string -> string option
