(** The conformance suite behind [rfdet check] and the CI job.

    Composition:
    - {b exhaustive}: every synchronization interleaving of each micro
      workload at 2 threads, under the DLRC oracle, with sleep-set
      pruning (the schedule counts are reported — the determinism
      theorem is checked against the full enumeration);
    - {b sampled}: seeded random schedules for configurations too big to
      enumerate (micros at 3 threads, racey at 2);
    - {b differential}: cross-runtime signature equality on race-free
      workloads, per-runtime stability on racey, naive-model agreement
      everywhere ([Differential]);
    - {b corpus}: every minimized trace under [test/corpus/] replays
      cleanly with its expected signature ([Trace], [Explore.replay]). *)

type summary = {
  explored : (string * Explore.stats) list;  (** workload -> DFS stats *)
  sampled : (string * Explore.stats) list;
  differential : Differential.report list;
  corpus : (string * string option) list;
      (** trace file -> [None] when clean, [Some error] otherwise *)
  ok : bool;
}

val conformance :
  ?exhaustive:bool ->
  ?samples:int ->
  ?sample_seed:int64 ->
  ?corpus_dir:string ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  unit ->
  summary
(** Defaults: exhaustive on, 200 samples per sampled configuration,
    sample seed 2026, no corpus directory (skipped when absent),
    [progress] ignored, [jobs = 1].  [ok] is false on any exploration
    failure, differential failure or corpus error.  [jobs] parallelizes
    the sampled and differential sweeps across host domains (the
    exhaustive DFS is inherently sequential — each branch's sleep sets
    depend on its siblings); the summary is byte-identical for every
    [jobs] value. *)

val replay_corpus : string -> (string * string option) list
(** Replay every [*.trace] file of a directory, in name order, with
    [Explore.replay ~strict:false]: [(file, None)] when clean, else
    [(file, Some error)].  An unreadable directory yields []. *)

val pp_summary : Format.formatter -> summary -> unit
