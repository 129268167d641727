(** Record and replay whole runs through decision journals.

    [record] executes a run with the engine's decision tap feeding a
    {!Journal.writer}; [replay] scans a journal, re-executes the run
    from the header's seeds with every prescribed decision verified
    against the scheduler's actual choice, and compares the result
    against the trailer field-by-field (signature, outputs checksum,
    ops, sim time, decision count, threads, profile FNV) — the
    byte-identity contract behind the CI replay gate.

    Journals and schedule traces share one run header
    ([Rfdet_check.Trace.header]), but the two replay paths have separate
    jobs:
    - [rfdet check --replay] re-executes a {e schedule trace} (the text
      form) through the explorer's chooser, following its prescribed
      choices — an exploration repro tool.
    - [rfdet replay] (this module) reconstructs a run from a {e binary
      decision journal} recorded by [rfdet record], verifying every
      recorded decision — a crash-safe fault-tolerance primitive. *)

type spec = Rfdet_harness.Runner.spec = {
  workload : Rfdet_workloads.Workload.t;
  runtime : Rfdet_harness.Runner.runtime;
  threads : int;
  scale : float;
  input_seed : int64;
  sched_seed : int64;
  jitter : float;
  fault_mode : Rfdet_sim.Engine.failure_mode;
  faults : Rfdet_fault.Fault_plan.t option;
}
(** [Runner.spec], under the name the journal API has always used.  The
    journal's header is [Rfdet_check.Trace.header_of_spec] of it, and a
    replay runs [Rfdet_check.Trace.spec_of_header] of the header. *)

type summary = {
  s_signature : string;
  s_outputs_checksum : string;
  s_ops : int;
  s_sim_time : int;
  s_decisions : int;
  s_threads : int;
  s_profile_json : string;
}

val trailer_of_summary : summary -> Journal.trailer

val record : path:string -> spec -> summary
(** Run the spec with the decision tap recording into [path].  On a
    failing run (deadlock, aborting thread failure, runaway) the
    journal is closed without a trailer — deliberately torn, hence
    recoverable — and the exception propagates. *)

type error =
  | E_corrupt of { frame : int; offset : int; reason : string }
      (** a damaged frame: never recoverable (exit 8) *)
  | E_torn of { offset : int; reason : string; decoded : int; synced : int }
      (** torn tail refused without [~recover:true] (exit 9) *)
  | E_unreadable of string  (** the journal file cannot be read (exit 64) *)
  | E_bad_header of string
      (** the header no longer resolves (unknown workload/runtime) *)
  | E_diverged of { index : int; expected : int; got : int }
      (** replay made a different decision than the journal records *)
  | E_mismatch of string list
      (** trailer comparison failures, one line per field *)

val describe_error : error -> string

type ok = {
  r_summary : summary;
  r_header : Journal.header;
  r_recovered : bool;
      (** the journal was torn and the run was reconstructed from its
          verified prefix plus deterministic re-execution *)
  r_verified : int;  (** journal decisions verified against the replay *)
}

val replay : ?recover:bool -> path:string -> unit -> (ok, error) result
(** Scan and re-execute.  [recover] (default [false]) accepts a torn
    journal: every checksum-valid decision before the tear is verified
    as a prefix, the rest of the run re-derives from the header's
    seeds, and convergence means the prefix verified and the run
    completed.  Corrupt journals are never accepted. *)
