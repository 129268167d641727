(** Run headers and replayable schedule traces.

    Under DLRC a run is fully determined by its header — workload,
    inputs, seeds, runtime, fault mode and plan — plus the arbiter's free
    decisions.  A header is the text form of a
    [Rfdet_harness.Runner.spec], and this module owns the only
    conversion between the two ({!header_of_spec}, {!spec_of_header})
    and the header's one codec: [key value] lines, floats as hex floats
    so the round trip is lossless.  A decision journal
    ([Rfdet_replay.Journal]) stores these lines verbatim as its binary
    ['H'] frame.  A schedule trace is the text form of a journal: the
    same lines, followed by the explorer's choices instead of recorded
    decisions — the format behind the [test/corpus/] regression files
    and the shrinker's minimized repros:
    {v
    # minimized by rfdet check --shrink
    format 1
    workload micro-lock
    threads 2
    scale 0x1p+0
    input-seed 42
    sched-seed 1
    jitter 0x0p+0
    runtime rfdet-ci
    fault-mode abort
    choices 1 0 1 1
    expect 9f86d081884c7d65
    note oracle divergence: ...
    v}
    Blank lines and [#] comments are ignored.  An optional [fault-plan]
    line follows [fault-mode].  [choices] is the space-separated tid
    sequence; [expect] (optional) is the output signature a healthy
    replay must reproduce; [note] (optional) is free-form provenance. *)

val format_version : int
(** The [format] line every header opens with; any other value is
    rejected. *)

type header = {
  workload : string;
  threads : int;
  scale : float;
  input_seed : int64;
  sched_seed : int64;
  jitter : float;
  runtime : string;
      (** a [Rfdet_harness.Runner.named_runtimes] name, or
          [Explore.detector_runtime] *)
  fault_mode : string;  (** ["abort"], ["contain"] or ["recover"] *)
  fault_plan : string option;  (** [Rfdet_fault.Fault_plan.to_string] *)
}

type t = {
  header : header;
  choices : int list;
  expect : string option;
  note : string option;
}

(** {1 The line codec} *)

val fields_to_string : (string * string) list -> string
(** One [key value] line per pair, in order. *)

val fields_of_string : string -> (string * string) list
(** Split [key value] lines, skipping blank and [#] lines. *)

val field : what:string -> (string * string) list -> string ->
  (string -> 'a option) -> 'a
(** [field ~what fields key conv] converts [key]'s first value.
    @raise Failure naming [what] and [key] when the key is missing or
    [conv] rejects its value. *)

val header_to_string : header -> string
(** The header's lines, [format] first: byte for byte the payload of a
    journal's ['H'] frame. *)

val header_of_string : string -> (header, string) result
(** [Error] names the missing or malformed key, or the unsupported
    format.  Keys other than the header's are ignored. *)

(** {1 Headers and specs} *)

val header_of_spec : Rfdet_harness.Runner.spec -> header
(** The runtime is written as [Runner.cli_name], the fault mode as
    [Engine.failure_mode_name] and the plan as [Fault_plan.to_string]. *)

val spec_of_header : header -> (Rfdet_harness.Runner.spec, string) result
(** Fails on unknown workload/runtime names (including
    [Explore.detector_runtime], which names no [Runner] runtime),
    unparseable fault plans, or a bad fault-mode word. *)

(** {1 Traces} *)

val to_string : t -> string

val of_string : string -> (t, string) result

val save : t -> path:string -> unit

val load : path:string -> (t, string) result
