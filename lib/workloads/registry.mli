(** All workloads, in the paper's Table 1 order (racey first). *)

val all : Workload.t list

val find : string -> Workload.t
(** Raises [Invalid_argument] with a helpful message listing valid
    names. *)

val names : string list

val splash2 : Workload.t list
(** The SPLASH-2 subset used by the Figure 9 optimization study. *)

val micro : Workload.t list
(** The tiny suite-"micro" workloads built for exhaustive schedule
    exploration ([rfdet check]); excluded from the paper sets. *)

val table1 : Workload.t list
(** The 16 performance benchmarks (everything except racey and the
    exploration micros). *)

val figure8 : Workload.t list
(** The scalability subset: Table 1 minus dedup, ferret (out of memory
    at 8 threads in the paper) and lu-non (folded into lu-con). *)
