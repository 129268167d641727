(** Systematic schedule exploration (stateless model checking) for the
    RFDet runtime.

    The engine's [config.choose] hook hands every scheduling step to a
    chooser; this module drives it through a bounded depth-first search
    over {e synchronization-level} choices.  Between synchronization
    boundaries a thread only touches private memory (that is DLRC's
    slice-privacy argument), so the explorer preempts nowhere else: a
    choice point arises exactly when the running thread stops at a
    boundary (sync op, handle creation), blocks, or exits while others
    are ready.  Each explored schedule runs to completion under the
    DLRC conformance oracle ([Oracle]), and its output signature is
    compared against the first schedule's — the paper's determinism
    theorem says {e every} interleaving must agree.

    Exhaustive mode enumerates every interleaving, with optional
    sleep-set pruning (Godefroid): after a branch is explored, the
    chosen thread is put to sleep in sibling branches until a dependent
    segment wakes it (two segments are dependent unless their closing
    boundary ops are on provably different objects — same-object
    lock/atomic footprints, everything else conservatively [Top]).
    Pruned runs are counted separately; pruning assumes schedules
    commute object-wise, which a {e buggy} runtime may violate — turn it
    off when hunting bugs, as [hunt] does.

    Sampled mode ([sample]) replaces DFS with [n] seeded uniform random
    walks over the same choice points — the fallback for workloads too
    big to enumerate; same oracle, same signature cross-check.

    Every schedule runs through [Runner.exec] with the one {!spec} of
    the exploration (the chooser and an op observer are its hooks), and
    a failure's trace header is [Trace.header_of_spec] of that same
    spec, so the two cannot drift. *)

type config = {
  opts : Rfdet_core.Options.t;  (** runtime configuration (default ci) *)
  threads : int;  (** workload threads (default 2) *)
  scale : float;
  input_seed : int64;
  oracle : bool;  (** run the conformance oracle (default true) *)
  prune : bool;  (** sleep-set pruning (default true) *)
  max_depth : int;  (** no branching beyond this many choice points *)
  max_preemptions : int;
      (** CHESS-style bound: branches that preempt a still-ready thread
          at a boundary more than this many times are not explored
          ([max_int] = unbounded, the default) *)
  max_schedules : int;  (** hard cap on executed schedules *)
}

val default_config : config

type failure = {
  f_trace : Trace.t;
      (** replay recipe — the recorded choices up to the failure point
          (a failing run stops recording when it dies, so the trace is
          self-truncating) *)
  f_reason : string;
}

type stats = {
  schedules : int;  (** schedules executed to completion *)
  pruned : int;  (** runs cut short by sleep-set pruning *)
  deepest : int;  (** most choice points seen in one schedule *)
  truncated : bool;  (** hit [max_schedules] before exhausting *)
  reference : string option;  (** signature of the first schedule *)
  failures : failure list;
}

val spec : config -> Rfdet_workloads.Workload.t -> Rfdet_harness.Runner.spec
(** The spec every explored schedule runs: [config]'s threads, scale,
    input seed and [Rfdet config.opts], with the engine's defaults for
    the rest — scheduler seed 1, jitter 0, fault mode [Abort] and no
    fault plan.  Its header is the header of every trace the explorer
    writes. *)

val explore :
  ?policy:Rfdet_harness.Runner.policy_hook ->
  ?config:config ->
  Rfdet_workloads.Workload.t ->
  stats
(** Bounded-exhaustive DFS.  With the default bounds and a micro
    workload this enumerates every synchronization interleaving.
    [policy] replaces the runtime each schedule runs ([config.opts]
    under the oracle, or plain when [oracle] is off); an RFDet maker
    receives [config.opts].  A policy that raises [Oracle.Divergence]
    fails the schedule like the oracle does. *)

val sample :
  ?config:config ->
  ?jobs:int ->
  seed:int64 ->
  n:int ->
  Rfdet_workloads.Workload.t ->
  stats
(** [n] seeded random schedules (plus the default schedule, which
    provides [reference] and always runs first).  Deterministic for a
    given [seed], {e including} across [jobs]: the walks execute on up
    to [jobs] host domains (default 1) with run-local state, and their
    outcomes fold in walk order, so the stats are identical for every
    job count. *)

val hunt :
  ?policy:Rfdet_harness.Runner.policy_hook ->
  ?config:config ->
  Rfdet_workloads.Workload.t ->
  stats
(** [explore] with pruning off — complete even against bugs that break
    object-wise commutativity (like [Options.bug_drop_window]). *)

type replay_result = {
  r_signature : string option;  (** [None] when the run died *)
  r_choices : int list;  (** full recorded choice sequence of the run *)
  r_error : string option;  (** oracle divergence, deadlock, mismatch … *)
}

val detector_runtime : string
(** The reserved trace-runtime name ["race-detector"]: a trace carrying
    it replays the workload under [Rfdet_detect.Race_detector] instead
    of an RFDet configuration, and its signature (and [expect] field) is
    the race-set digest ([Race_detector.digest]) rather than an output
    signature.  This is the vehicle for auto-minimized race repros in
    [test/corpus/]: the corpus replayer, the ddmin shrinker and
    [rfdet check --replay] all handle such traces through this single
    dispatch point. *)

val replay :
  ?strict:bool ->
  ?oracle:bool ->
  ?opts:Rfdet_core.Options.t ->
  Trace.t ->
  replay_result
(** Re-run a trace: recorded choices are prescribed positionally; after
    they run out (or, when [strict] is [false], whenever a prescribed
    tid is not ready) the deterministic default choice is used.  With
    [strict] (default [true]) an unavailable prescribed tid is an
    error.  [oracle] defaults to [true].  The trace's [runtime] resolves
    through [Runner.runtime_of_name] and must name an RFDet
    configuration; [opts] overrides it — the only way to replay under
    [Options.bug_drop_window], which the name does not encode.  A header
    whose [sched-seed], [jitter], [fault-mode] or [fault-plan] differs
    from the header of {!spec} is rejected in [r_error], naming the
    field.  If the trace carries an [expect] signature, a clean run with
    a different signature is reported in [r_error].  A trace whose
    runtime is [detector_runtime] replays under the race detector
    instead; [oracle] and [opts] are then ignored and the signature is
    the race digest. *)
