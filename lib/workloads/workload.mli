(** Benchmark workload descriptors.

    Every workload is a pthreads-style program written against
    [Rfdet_sim.Api]; the same code runs unchanged under every runtime
    (pthreads, Kendo, DThreads, the RFDet variants), exactly as the paper
    runs
    unmodified benchmark binaries under its three systems.

    Each workload emits at least one [Api.output] checksum derived from
    the computation's result, so the determinism checker has something to
    compare and the computation cannot be dead-code-eliminated out of
    relevance.  Workloads must derive all randomness from [cfg.input_seed]
    (an *input* in the paper's broad sense, Section 3.4). *)

type cfg = {
  threads : int;  (** worker thread count (the paper's 2/4/8) *)
  scale : float;  (** problem-size multiplier; 1.0 = default *)
  input_seed : int64;  (** input-data generator seed *)
}

val default_cfg : cfg
(** 4 threads, scale 1.0, seed 42. *)

type t = {
  name : string;
  suite : string;  (** "stress" | "splash2" | "phoenix" | "parsec" *)
  description : string;
  main : cfg -> unit -> unit;
      (** [main cfg] is the simulated program's entry point. *)
}

val scaled : cfg -> int -> int
(** [scaled cfg n] multiplies a base size by [cfg.scale] (min 1). *)

val reporting :
  name:string ->
  suite:string ->
  description:string ->
  (seed:int64 -> 'r) ->
  t * (unit -> 'r)
(** A workload whose program is [run ~seed] on the input seed (its own
    parameters stand in for threads and scale), and the result of its
    last run — the last, since recovery may restart the program.  The
    KV server commands build their server this way. *)
