(** The shared metadata space: slice storage, usage metering and garbage
    collection (Sections 4, 4.5).

    In RFDet proper this is a shared-memory region between the isolated
    processes; here it is runtime-internal state whose size is metered in
    bytes so that the paper's GC experiment (256 MB capacity, 90%
    threshold, Table 1's GC column) can be reproduced.  Usage counts the
    footprint of live (unreclaimed) slices plus any open page snapshots;
    snapshot memory is released as soon as a slice is converted to a
    byte-granularity modification list, exactly as in the paper.

    A slice becomes garbage once its timestamp is ≤ the component-wise
    minimum of every thread's current vector clock — every thread has
    already merged it.

    The snapshot buffers themselves live in the twin sets
    ([Rfdet_mem.Twins]); this module only meters them.

    Domain safety: each [t] is self-contained, so concurrent simulated
    runs on different host domains ([Rfdet_par.Par] sweeps) never
    contend as long as each run creates its own metadata space, which
    [Rfdet_core.Rfdet_runtime] does. *)

type t

val create : capacity:int -> gc_threshold:float -> t

(** [add_slice t slice] stores a closed slice and accounts for its
    footprint.  Slices must arrive in id order, as [fresh_slice_id]
    allocates them; an id not above the newest stored one raises
    [Invalid_argument]. *)
val add_slice : t -> Slice.t -> unit

(** [fresh_slice_id t] — next deterministic slice id. *)
val fresh_slice_id : t -> int

(** [snapshot_taken t] / [snapshot_released t] meter the transient
    page-snapshot memory of open slices: a full page each, whatever
    range of the page the slice's stores covered. *)
val snapshot_taken : t -> unit

val snapshot_released : t -> unit

(** [usage t] — current bytes; [peak t] — high-water mark. *)
val usage : t -> int

val peak : t -> int

(** [needs_gc t] — usage has reached threshold × capacity. *)
val needs_gc : t -> bool

(** [gc t ~frontier] marks every live slice with
    [Vclock.leq time frontier] as freed, releases its footprint, and
    returns the pair (slices examined, slices freed).  The frontier must
    be the component-wise minimum of all threads' clocks (including
    exited-but-unjoined threads' final clocks — their slices may still
    need to flow to a joiner). *)
val gc : t -> frontier:Rfdet_util.Vclock.t -> int * int

val gc_runs : t -> int

val live_slices : t -> int

val iter_slices : t -> f:(Slice.t -> unit) -> unit
(** Every live (unreclaimed) slice, unspecified order — the conformance
    oracle's completeness check walks these. *)

val iter_slices_after : t -> after:int -> f:(Slice.t -> unit) -> unit
(** Every live slice whose id exceeds [after], newest first.  Slices are
    stored in id order, so this walks only those slices. *)

val capacity : t -> int
