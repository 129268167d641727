(** Run a workload under a chosen runtime and collect results. *)

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
(** Defaults: 4 threads, scale 1.0, input seed 42, scheduler seed 1,
    jitter 0 (performance runs should be noise-free; determinism checks
    pass a nonzero jitter and vary [sched_seed]).  [faults] runs the
    workload under an injected fault plan; [failure_mode] (default
    [Contain]) only applies when a plan is given — fault-free runs keep
    the engine default of aborting on failure — except that an explicit
    [Recover] always applies (deadlock victims need no fault plan).
    Under [Recover], the RFDet and Kendo runtimes get a
    [Rfdet_recover.Recover] manager (tuned by [recover_config]): every
    spawned thread is restartable from entry, the main thread from the
    workload start.  [obs] (default disabled) collects the causal
    trace; enabling it never changes signatures.  [sched_tap] observes
    the scheduler's free decisions (the record/replay journal feed, see
    [Rfdet_sim.Engine.decision]); it is purely observational and never
    changes the run. *)
