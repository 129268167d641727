(** Plain-text table rendering for the benchmark harness.

    Produces aligned, pipe-separated tables like the ones in the paper's
    evaluation section so that `rfdet experiment` output can be compared
    to Table 1 / Figures 7-9 at a glance. *)

type align = Left | Right

type t

(** [create ~title ~columns] starts a table. Each column is a header
    string plus an alignment for its cells. *)
val create : title:string -> columns:(string * align) list -> t

(** [add_row t cells] appends a row; the number of cells must match the
    number of columns. *)
val add_row : t -> string list -> unit

(** [add_separator t] inserts a horizontal rule between row groups. *)
val add_separator : t -> unit

(** [render t] returns the formatted table as a string (ending in a
    newline). *)
val render : t -> string

(** [print t] renders to stdout. *)
val print : t -> unit

(** Cell helpers. *)

val cell_float : ?decimals:int -> float -> string
val cell_int : int -> string
val cell_ratio : float -> string
(** [cell_ratio x] formats a slowdown/speedup factor like "1.35x". *)
