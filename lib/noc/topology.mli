(** 2-D mesh topology with dimension-ordered (XY) routing.

    Nodes are numbered row-major: node [id] sits at
    [(id mod cols, id / cols)]. XY routing first walks along X, then
    along Y, which is deadlock-free on a mesh. *)

type t

(** [create ~cols ~rows] is a [cols × rows] mesh. *)
val create : cols:int -> rows:int -> t

(** [for_nodes n] picks a near-square mesh with at least [n] nodes. *)
val for_nodes : int -> t

val cols : t -> int
val rows : t -> int
val node_count : t -> int

(** [check t id] returns when [id] is a node of [t].
    @raise Invalid_argument otherwise. *)
val check : t -> int -> unit

(** [coords t id] is the [(x, y)] position of node [id]. *)
val coords : t -> int -> int * int

(** [node_at t ~x ~y] is the id of the node at [(x, y)]. *)
val node_at : t -> x:int -> y:int -> int

(** [route t ~src ~dst] is the list of directed hops
    [(from, to); ...] taken by a packet, in order; empty when
    [src = dst]. *)
val route : t -> src:int -> dst:int -> (int * int) list

(** [hops t ~src ~dst] is [List.length (route t ~src ~dst)] — the
    Manhattan distance. *)
val hops : t -> src:int -> dst:int -> int
