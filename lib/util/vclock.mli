(** Vector clocks (Fidge/Mattern).

    A vector clock timestamps an event in a system of [n] threads with one
    logical-counter component per thread.  RFDet stamps every slice with a
    vector clock and decides happens-before by component-wise comparison:
    slice [a] happens-before slice [b] iff [lt a b] (Section 4.2 of the
    paper). *)

type t

(** [create n] is the zero clock for [n] threads. *)
val create : int -> t

(** [size c] is the number of components. *)
val size : c:t -> int

(** [copy c] is an independent copy. *)
val copy : t -> t

(** [get c i] reads component [i]. *)
val get : t -> int -> int

(** [set c i v] writes component [i] (bounds-checked). *)
val set : t -> int -> int -> unit

(** [tick c i] increments component [i] in place and returns the new
    value.  Used before every synchronization operation so the next slice
    is younger than the previous one. *)
val tick : t -> int -> int

(** [join dst src] sets [dst := dst ⊔ src] (component-wise max) in place.
    This is the acquire-side update: [timestamp ⊔ Time(R)]. *)
val join : t -> t -> unit

(** [joined a b] is a fresh clock equal to [a ⊔ b]. *)
val joined : t -> t -> t

(** [leq a b] is true iff every component of [a] is [<=] the matching
    component of [b] — i.e. [a] happens-before-or-equals [b]. *)
val leq : t -> t -> bool

(** [lt a b] is true iff [leq a b] and [a <> b]: strict happens-before.
    Decided in one pass; a size mismatch raises the same
    [Invalid_argument "Vclock.leq: size mismatch"] as [leq]. *)
val lt : t -> t -> bool

(** [equal a b] is component-wise equality; clocks of different sizes
    are unequal. *)
val equal : t -> t -> bool

(** [min_into dst src] sets [dst := dst ⊓ src] (component-wise min).
    Used by the garbage collector to compute the global frontier: a slice
    older than the component-wise minimum of all threads' clocks has been
    propagated everywhere. *)
val min_into : t -> t -> unit

(** [to_list c] lists the components in thread-id order. *)
val to_list : t -> int list

(** [of_list l] builds a clock from components. *)
val of_list : int list -> t

val pp : Format.formatter -> t -> unit
