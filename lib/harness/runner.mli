(** Run a workload under a chosen runtime and collect results.

    A run is fully determined by its {!spec} (the fields of a run header,
    [Rfdet_check.Trace.header]) plus the free scheduling decisions.
    {!exec} is the only code that turns a spec into a workload config, an
    engine config and a policy, recovery wiring included; {!hooks}
    observe or steer a run without changing what the spec describes. *)

type runtime =
  | Pthreads  (** nondeterministic baseline *)
  | Kendo  (** weak determinism: deterministic sync, shared memory *)
  | Dthreads  (** strong determinism with global fences *)
  | Coredet  (** strong determinism with instruction-quantum barriers *)
  | Rfdet of Rfdet_core.Options.t  (** this paper *)

val runtime_name : runtime -> string

val rfdet_ci : runtime

val rfdet_pf : runtime

val named_runtimes : (string * runtime) list
(** The CLI-facing runtime vocabulary, in presentation order — the
    single source of truth for `--runtime` parsing and for the runtime
    field of record/replay journal headers. *)

val runtime_of_name : string -> runtime option
(** Resolve a [named_runtimes] name (e.g. ["rfdet-noopt"]). *)

val cli_name : runtime -> string
(** The [named_runtimes] name for a runtime when it has one (so
    [runtime_of_name (cli_name r) = Some r]), else [runtime_name r]. *)

val make_policy : runtime -> Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy

(** Everything a run header records.  [fault_mode] only applies when a
    plan is given — fault-free runs keep the engine default of aborting
    on failure — except that [Recover] always applies (deadlock victims
    need no fault plan). *)
type spec = {
  workload : Rfdet_workloads.Workload.t;
  runtime : runtime;
  threads : int;
  scale : float;
  input_seed : int64;
  sched_seed : int64;
  jitter : float;
  fault_mode : Rfdet_sim.Engine.failure_mode;
  faults : Rfdet_fault.Fault_plan.t option;
}

val spec :
  ?threads:int ->
  ?scale:float ->
  ?input_seed:int64 ->
  ?sched_seed:int64 ->
  ?jitter:float ->
  ?faults:Rfdet_fault.Fault_plan.t ->
  ?failure_mode:Rfdet_sim.Engine.failure_mode ->
  runtime ->
  Rfdet_workloads.Workload.t ->
  spec
(** Defaults: 4 threads, scale 1.0, input seed 42, scheduler seed 1,
    jitter 0 (performance runs should be noise-free; determinism checks
    pass a nonzero jitter and vary [sched_seed]), no faults, fault mode
    [Contain]. *)

(** What builds the policy. *)
type policy_hook =
  | Rfdet_with of
      (Rfdet_core.Options.t ->
      Rfdet_sim.Engine.t ->
      Rfdet_core.Rfdet_runtime.t * Rfdet_sim.Engine.policy)
      (** builds an [Rfdet] runtime (e.g. [Oracle.wrap_with_state]);
          [exec] still wires recovery around it.  Other runtimes are
          built as usual. *)
  | Policy of (Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy)
      (** a whole policy (the race detector, the naive model) in place
          of [spec.runtime], never managed by recovery *)

type hooks = {
  sink : Rfdet_obs.Sink.t;
      (** collects the causal trace; enabling it never changes
          signatures *)
  tap : (Rfdet_sim.Engine.decision -> unit) option;
      (** observes the scheduler's free decisions (the record/replay
          journal feed); never changes the run *)
  choose : (Rfdet_sim.Engine.sched_point -> int) option;
      (** replaces clock-ordered scheduling (the explorer) *)
  observe : (tid:int -> Rfdet_sim.Op.t -> unit) option;
      (** sees every operation as it is handled *)
  policy : policy_hook;
}

val no_hooks : hooks
(** The null sink, no tap, chooser or observer, and
    [Rfdet_with Rfdet_runtime.make_with_state]. *)

val exec :
  ?cost:Rfdet_sim.Cost.t ->
  ?recover_config:Rfdet_recover.Recover.config ->
  ?hooks:hooks ->
  spec ->
  Rfdet_sim.Engine.result
(** Run the spec.  Under [Recover], the RFDet and Kendo runtimes get a
    [Rfdet_recover.Recover] manager (tuned by [recover_config]): every
    spawned thread is restartable from entry, the main thread from the
    workload start.  The fault plan gets a fresh injector per call.
    [cost] (default [Cost.default]) and [recover_config] are not part of
    the spec because no run header records them. *)

type run_result = {
  runtime : string;
  workload : string;
  sim_time : int;  (** simulated cycles (the run's makespan) *)
  wall_seconds : float;  (** host time spent simulating *)
  signature : string;  (** digest of observable outputs *)
  output_checksum : string;
      (** digest of outputs only, ignoring crash records
          ([Engine.outputs_checksum]) — a fully recovered run matches
          the fault-free run here even though [signature] differs *)
  outputs : (int * int64) list;
  profile : Rfdet_sim.Profile.t;
  threads : int;
  ops : int;
  crashes : (int * string) list;
      (** contained thread crashes, (tid, exception text) by tid;
          empty for clean runs *)
  thread_clocks : (int * int) list;
      (** every thread's final simulated clock, by tid — their sum is the
          total of the [Rfdet_obs.Report] time breakdown *)
}

val run_spec :
  ?cost:Rfdet_sim.Cost.t ->
  ?recover_config:Rfdet_recover.Recover.config ->
  ?hooks:hooks ->
  spec ->
  run_result
(** [exec], timed, with both output digests computed. *)

val run :
  ?threads:int ->
  ?scale:float ->
  ?input_seed:int64 ->
  ?sched_seed:int64 ->
  ?jitter:float ->
  ?cost:Rfdet_sim.Cost.t ->
  ?faults:Rfdet_fault.Fault_plan.t ->
  ?failure_mode:Rfdet_sim.Engine.failure_mode ->
  ?recover_config:Rfdet_recover.Recover.config ->
  ?obs:Rfdet_obs.Sink.t ->
  ?sched_tap:(Rfdet_sim.Engine.decision -> unit) ->
  runtime ->
  Rfdet_workloads.Workload.t ->
  run_result
(** [run_spec] of the [spec] these arguments give, with [obs] as the
    sink and [sched_tap] as the tap. *)
