(** The DLRC conformance oracle.

    The paper's correctness argument (Section 3, Figure 5) fixes, for
    every thread at every synchronization point, exactly which slices
    {e must} and {e must-not} have been propagated to it:

    - {b must-not}: a slice may be in a thread's slice-pointer list only
      if its vector timestamp is strictly before the thread's current
      vector time — propagating anything else would leak writes that do
      not happen-before the thread's position (the upper-limit filter);
    - {b must}: every live slice whose timestamp {e is} strictly before
      the thread's vector time has to be in its list — the acquire-time
      scans with the lower-limit filter and the resume indices must
      never lose a happens-before slice (completeness / visibility);
    - {b never twice}: no slice appears twice in any list — the
      lower-limit filter is exactly a redundancy eliminator (the same
      property [Dlrc_model.make_checked] asserts on the naive model).

    This module decides those three conditions from nothing but the
    vector-time rules — independently of how [Propagate]'s incremental
    scan, resume indices, slice merging, GC and lazy writes conspire to
    implement them — after every synchronization step, and raises
    [Divergence] the moment the optimized runtime's actual state
    disagrees.  Every schedule the explorer enumerates runs under this
    oracle.  Every comparison is a full-clock [Vclock.lt]: the oracle
    reads no [Slice.epoch] and no cache the runtime keeps. *)

exception Divergence of string

val check : Rfdet_core.Rfdet_runtime.t -> unit
(** The reference: run all three checks over every thread state and
    every live slice now.  Raises [Divergence] with a diagnostic on the
    first violation; never-twice and must-not are checked for every
    thread before "must".  Its cost grows with the product of the
    threads and the slices. *)

(** The same three checks, after each step only over what the step can
    have changed (DESIGN.md §9).  A checker remembers, per thread, the
    slice list it last saw and its length, a copy of the thread's clock,
    the listed ids, and the live slices the thread does not list.  It
    rebuilds a thread — all three checks over its whole list and every
    live slice — when the thread is new, its list is another [Vec] or
    shorter, or its clock is not [>=] the copy.  Otherwise it checks the
    list's new suffix, re-checks "must" over the unlisted slices if the
    clock moved, and checks every live slice newer than the last check
    against the thread.

    Fed every state of one run, in order, it reaches the verdict
    [check] reaches on each and names the same condition; the slice it
    names may differ.  After raising it forgets what it saw, so the
    next call rebuilds and reports a standing violation again. *)
module Incremental : sig
  type t

  val create : unit -> t
  (** A checker that has seen nothing: its first [check] rebuilds every
      thread. *)

  val check : t -> Rfdet_core.Rfdet_runtime.t -> unit
  (** Check the runtime's current state.  Successive calls on one
      checker must see successive states of one run. *)
end

val wrap_with_state :
  ?opts:Rfdet_core.Options.t ->
  Rfdet_sim.Engine.t ->
  Rfdet_core.Rfdet_runtime.t * Rfdet_sim.Engine.policy
(** An RFDet policy instrumented with the oracle: an [Incremental]
    checker runs after every engine step that involved a
    synchronization operation or a thread exit, and the full [check]
    once more at the end of the run.  Note that a
    [Divergence] raised mid-run surfaces as
    [Engine.Thread_failure (_, Divergence _)] under the default
    [Abort] failure mode. *)

val wrap :
  ?opts:Rfdet_core.Options.t -> Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** [snd (wrap_with_state ...)] — use as
    [Engine.run ~config (Oracle.wrap ~opts) ~main]. *)
