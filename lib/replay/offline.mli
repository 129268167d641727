(** Offline analyses over recorded decision journals.

    The journal's header pins (workload, threads, scale, input seed) —
    everything the happens-before relation of a DLRC execution depends
    on.  Synchronization order under the arbiter is decided by
    (icount, tid) stamps, which are jitter- and schedule-independent,
    so the race set of a run is a pure function of those header fields:
    detection over the journal is {e complete} (Guo et al.'s
    record-then-detect-offline result), not a sample of one
    interleaving.  That is why [detect] needs only the header — the
    decision stream itself adds nothing to the happens-before graph —
    and why the same journal replayed from any of the 6 runtimes yields
    the identical race report. *)

val run_detector :
  Rfdet_harness.Runner.spec -> Rfdet_detect.Race_detector.report
(** Run the spec through [Runner.exec] with [Rfdet_detect.Race_detector]
    as its whole policy (the spec's runtime is not used) and report every
    racy address. *)

val detect : Journal.header -> (Rfdet_detect.Race_detector.report, string) result
(** [run_detector] over the header's workload and inputs, with the
    engine settings of [Rfdet_check.Explore.spec] (the seeds, jitter and
    fault plan the header records play no part). *)

val minimize_repro :
  Journal.header ->
  Rfdet_detect.Race_detector.report ->
  (Rfdet_check.Trace.t * int, string) result
(** Feed a detected race set through the [Rfdet_check.Shrink] ddmin
    shrinker: capture the full schedule-choice list of a detector run,
    then minimize it under the predicate "the race digest is
    preserved".  Because the digest is schedule-invariant, ddmin cuts
    the choices to (near) nothing — the honest minimal repro: the
    workload itself races, under every schedule.  Returns the
    minimized corpus trace (runtime [Explore.detector_runtime], expect
    = digest) and the number of replays spent, ready for
    [test/corpus/]. *)
