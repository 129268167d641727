(** The crash clinic: exhaustive single-crash sweeps.

    For every operation index [k] of a workload's (jitter-free) run, the
    clinic injects one crash at the [k]-th operation and checks the
    robustness contract at that point, under both crash containment and
    deterministic recovery, across runtimes:

    - {b no hang}: every probed run terminates (a scheduler stall raises
      [Engine.Deadlock]; a runaway raises [Engine.Runaway]; both count
      as aborts, never as hangs);
    - {b determinism}: the same seed and the same injection give the
      same output signature twice in a row — or abort with the same
      exception twice in a row;
    - {b conformance} (RFDet only): the DLRC oracle ([Rfdet_check])
      holds mid-run and on the final state, i.e. crash containment and
      restart never corrupt the propagation invariants.

    Runtimes without a per-thread recovery path (pthreads joins on a
    dead thread; dthreads/coredet fences would stall) abort gracefully
    — the clinic asserts that this abort is itself deterministic. *)

type outcome = Completed | Aborted of string

type cell = {
  runtime : string;
  mode : Rfdet_sim.Engine.failure_mode;
  index : int;  (** 1-based global operation index of the injection *)
  outcome : outcome;
  deterministic : bool;  (** two same-seed runs agreed *)
  restarts : int;  (** threads restarted (Recover mode) *)
  conformant : bool option;  (** RFDet: DLRC-oracle verdict; else [None] *)
}

type summary = {
  workload : string;
  cells : cell list;
  sites : int;  (** operation indices probed (1..sites) *)
  hangs : int;  (** always 0 on return — a hang raises instead *)
  nondeterministic : int;
  aborted : int;
  nonconformant : int;
}

val sweep :
  ?op_class:Rfdet_fault.Fault_plan.op_class ->
  ?threads:int ->
  ?scale:float ->
  ?modes:Rfdet_sim.Engine.failure_mode list ->
  ?runtimes:Rfdet_harness.Runner.runtime list ->
  ?max_sites:int ->
  ?jobs:int ->
  Rfdet_workloads.Workload.t ->
  summary
(** Defaults: 3 threads, scale 1.0, modes [Contain; Recover], all five
    runtimes, at most 500 injection sites, [jobs = 1].  A healthy
    runtime yields [nondeterministic = 0] and [nonconformant = 0];
    [aborted] is expected to be nonzero for the fence runtimes.  [jobs]
    probes the runtime x mode x site grid on that many host domains;
    each probe is self-contained and cells return in grid order, so the
    summary is byte-identical for every [jobs] value.

    [op_class] (default [Any_op]) retargets the injection counter to one
    operation class — [Cond_op] crashes the k-th condvar operation,
    [Sem_op] the k-th semaphore operation, and so on — steering probes
    into the wait/signal and acquire protocols that a global operation
    index almost never lands inside.  Indices past the class's
    population probe the clean run, so cap them with [max_sites]. *)

val pp_summary : Format.formatter -> summary -> unit
