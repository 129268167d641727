(** An executable reference model of deterministic lazy release
    consistency — the differential-testing oracle for the optimized
    runtime.

    This policy implements Section 3's semantics as directly as
    possible, with none of the engineering of [Rfdet_runtime]:

    - per-thread memory is a plain byte map (no pages, no copy-on-write,
      no snapshots, no page diffing);
    - slice modifications are computed from an exact write log
      (initial-value comparison drops redundant stores, mirroring what
      byte-granularity page diffing produces);
    - slice-pointer lists are plain lists and every propagation rescans
      the *entire* remote list with only the upper/lower vector-time
      filters of Figure 5 — no release-length bounds, no resume indices;
    - no pre-fork monitoring exemption, no metadata accounting, no GC,
      no lazy writes, no prelock.

    Slice merging is the one optimization the model can take on
    ([make_with ~slice_merging:true]): a re-acquire of an object the
    thread itself released last then neither closes the slice nor ticks,
    as in [Rfdet_runtime].  Merging moves a slice boundary, so on racy
    programs it changes which "silent" stores — ones that restore the
    slice-start value — a slice publishes; compare a runtime with the
    model under the runtime's own [Options.slice_merging].

    Synchronization goes through the same Kendo layer, so the
    deterministic synchronization order is identical to the optimized
    runtime's; DLRC then promises the observable outputs are identical
    too.  The property suite runs randomized racy programs under both
    and compares outputs — any divergence indicts one of the runtime's
    optimizations (resume indices, GC, lazy writes, copy-on-write
    forking, the implementation of slice merging, ...). *)

val name : string

val make : Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** The model with the finest slice boundaries: every acquire closes the
    slice. *)

val make_with :
  slice_merging:bool -> Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** [make_with ~slice_merging:true] applies RFDet's merge rule;
    [make_with ~slice_merging:false] is [make]. *)

exception Propagated_twice of string
(** Raised by the [make_checked] variant when a propagation would append
    a slice that is already in the destination's seen-list — i.e. the
    Figure-5 lower-limit filter failed at redundancy elimination. *)

val make_checked : Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** Like [make], but every propagation additionally asserts the
    never-propagate-twice property, raising [Propagated_twice] on
    violation.  The property suite runs randomized programs under this
    variant. *)
