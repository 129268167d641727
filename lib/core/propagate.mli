(** Memory-modification propagation — the algorithm of the paper's
    Figure 5, plus the lazy-writes variant.

    At an acquire that synchronizes with a release in thread [from], every
    slice in [from]'s slice-pointer list whose timestamp is
    - strictly before [upper] (the vector time of the slice that will
      succeed the acquire — only happens-before slices propagate), and
    - {e not} strictly before [lower] (the timestamp of the slice that
      preceded the acquire — those were already seen: redundancy
      elimination)
    is applied to [into]'s memory and appended to [into]'s slice-pointer
    list (which is what makes propagation transitive).

    Conflicts (concurrent slices writing the same bytes) are resolved by
    application order: the remote modification overwrites the local one,
    except that a redundant remote write never made it into any slice in
    the first place (byte-granularity diffing), yielding the paper's
    "remote wins unless redundant" policy of Section 4.6.

    With [lazy_writes], modifications are queued per page and the page is
    protected; the runtime's access paths apply them on first touch. *)

val admits : upper:Rfdet_util.Vclock.t -> lower:Rfdet_util.Vclock.t -> Slice.t -> bool
(** The filter pair above, in O(1): with [i = s.tid] and [e = s.epoch],
    [lower.(i) < e && e <= upper.(i)].  Equal to
    [Vclock.lt s.time upper && not (Vclock.lt s.time lower)] for every
    slice of a remote list at an acquire, because every slice close is
    followed by a tick of the closer's own component and a clock's
    component [i] reaches [e] only by joining a clock thread [i]
    produced at or after closing the slice (DESIGN.md §8).  [Dlrc_model]
    and [Rfdet_check.Oracle] keep the full comparisons as the
    independent reference. *)

val run :
  ?drop:bool ->
  ?obs:Rfdet_obs.Sink.t ->
  ?at:int ->
  cost:Rfdet_sim.Cost.t ->
  opts:Options.t ->
  prof:Rfdet_sim.Profile.t ->
  publisher:(int -> Tstate.t) ->
  from:Tstate.t ->
  upto:int ->
  into:Tstate.t ->
  upper:Rfdet_util.Vclock.t ->
  lower:Rfdet_util.Vclock.t ->
  unit ->
  int
(** Returns the simulated cycles the propagation costs (scan + byte
    application, or scan + page-protection when lazy).

    [obs] (default disabled) receives a [Prop_page] event per page and a
    [Propagate] event per applied slice, stamped with the acquirer's tid
    and vector clock at simulated time [at] (the grant time, default 0).

    [drop] (test only, default false) silently discards every slice the
    filter selected instead of applying it — the seeded visibility bug of
    [Options.bug_drop_window], used to prove the conformance oracle can
    catch real divergence.

    Each slice selected for application is checksum-verified first
    ([Slice.verify]: the hash runs only while the slice's [verified]
    record is unset, but the check's cycles are charged every time); a
    corrupted slice is quarantined and re-derived from its publisher's
    live space, [(publisher s.tid).shared] — [from] only relays slices
    that reached it transitively (counted in
    [Profile.quarantines]/[corruptions_detected], traced as [Recovery]
    "quarantine"/"rederive" events), and the run fails with
    [Engine.Fatal] when the re-derived bytes no longer match.

    [upto] is the length of [from]'s slice-pointer list recorded at the
    release this acquire synchronizes with; entries beyond it either
    carry timestamps not ordered before [upper] or have already been seen
    by [into], so the scan stops there.  Combined with [into]'s resume
    index for [from], every (from, into, slice) triple is examined at
    most once over a whole run. *)
