(** Differential conformance across runtimes.

    Every strongly deterministic runtime must be seed-stable, and on
    race-free workloads they must all compute the same thing: the
    outputs are fixed by program semantics, so rfdet-ci, rfdet-pf,
    CoreDet and DThreads have to produce {e equal} signatures — any
    disagreement means one of them changed program behavior.  On racy
    workloads (racey) the runtimes may legitimately disagree with each
    other (they pick different deterministic winners) but each must
    still be stable across scheduler seeds.

    Independently, the naive executable DLRC model ([Dlrc_model]), under
    rfdet-ci's slice-merging rule, must match rfdet-ci {e even on racy
    programs} — both implement the same deterministic semantics, so this
    comparison indicts individual optimizations (resume indices, GC,
    lazy writes) rather than whole designs. *)

type report = {
  workload : string;
  threads : int;
  signatures : (string * string) list;
      (** runtime name -> signature under the first scheduler seed *)
  unstable : string list;
      (** runtimes whose signature varied across scheduler seeds *)
  disagree : (string * string * string * string) option;
      (** two runtimes with different signatures:
          (name_a, sig_a, name_b, sig_b) *)
  expect_agree : bool;  (** whether [disagree] counts as a failure *)
  model_diverged : bool;  (** dlrc-model signature differs from rfdet-ci *)
  ok : bool;
}

val runtimes : Rfdet_harness.Runner.runtime list
(** rfdet-ci, rfdet-pf, CoreDet, DThreads. *)

val check :
  ?threads:int ->
  ?scale:float ->
  ?input_seed:int64 ->
  ?seeds:int64 list ->
  ?jitter:float ->
  ?expect_agree:bool ->
  ?model:bool ->
  ?jobs:int ->
  Rfdet_workloads.Workload.t ->
  report
(** Defaults: 2 threads, scale 1.0, input seed 42, three scheduler
    seeds, jitter 9.0 (so seeds really perturb the interleaving),
    [expect_agree = true], [model = true], [jobs = 1].  [jobs] runs the
    runtime x scheduler-seed matrix on that many host domains; cells
    regroup in matrix order, so the report is byte-identical for every
    [jobs] value. *)

val race_free_suite : ?threads:int -> ?jobs:int -> unit -> report list
(** The micro workloads, signature-equality required. *)

val racy_suite : ?threads:int -> ?jobs:int -> unit -> report list
(** racey: per-runtime stability and model agreement only. *)

val pp_report : Format.formatter -> report -> unit
