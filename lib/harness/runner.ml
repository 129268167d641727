module Engine = Rfdet_sim.Engine
module Options = Rfdet_core.Options
module Workload = Rfdet_workloads.Workload
module Recover = Rfdet_recover.Recover
module Fence_runtime = Rfdet_baselines.Fence_runtime

type runtime = Pthreads | Kendo | Dthreads | Coredet | Rfdet of Options.t

let runtime_name = function
  | Pthreads -> Rfdet_baselines.Pthreads_runtime.name
  | Kendo -> Rfdet_baselines.Kendo_runtime.name
  | Dthreads -> Fence_runtime.name Fence_runtime.Dthreads
  | Coredet -> Fence_runtime.name Fence_runtime.coredet
  | Rfdet opts -> Options.name opts

let rfdet_ci = Rfdet Options.ci

let rfdet_pf = Rfdet Options.pf

(* The CLI-facing runtime vocabulary — the single source of truth for
   `--runtime` parsing and for the [runtime] field of record/replay
   journal headers, so a recorded name always resolves back to the same
   runtime.  Note the short alias "rfdet-noopt": [Options.name] spells
   that configuration "rfdet-ci-noopt". *)
let named_runtimes =
  [
    ("pthreads", Pthreads);
    ("kendo", Kendo);
    ("dthreads", Dthreads);
    ("coredet", Coredet);
    ("rfdet-ci", rfdet_ci);
    ("rfdet-pf", rfdet_pf);
    ("rfdet-noopt", Rfdet Options.baseline_no_opt);
  ]

let runtime_of_name n = List.assoc_opt n named_runtimes

let cli_name r =
  match List.find_opt (fun (_, r') -> r' = r) named_runtimes with
  | Some (n, _) -> n
  | None -> runtime_name r

let make_policy = function
  | Pthreads -> Rfdet_baselines.Pthreads_runtime.make
  | Kendo -> Rfdet_baselines.Kendo_runtime.make
  | Dthreads -> Fence_runtime.make Fence_runtime.Dthreads
  | Coredet -> Fence_runtime.make Fence_runtime.coredet
  | Rfdet opts -> Rfdet_core.Rfdet_runtime.make ~opts

type run_result = {
  runtime : string;
  workload : string;
  sim_time : int;
  wall_seconds : float;
  signature : string;
  output_checksum : string;
  outputs : (int * int64) list;
  profile : Rfdet_sim.Profile.t;
  threads : int;
  ops : int;
  crashes : (int * string) list;
  thread_clocks : (int * int) list;
}

let run ?(threads = 4) ?(scale = 1.0) ?(input_seed = 42L) ?(sched_seed = 1L)
    ?(jitter = 0.) ?(cost = Rfdet_sim.Cost.default) ?faults
    ?(failure_mode = Engine.Contain) ?recover_config
    ?(obs = Rfdet_obs.Sink.null) ?sched_tap runtime workload =
  let cfg = { Workload.threads; scale; input_seed } in
  (* An explicit Recover applies even without a fault plan (deadlock
     victims need no injector); otherwise the mode only takes effect
     when a plan is given, so fault-free runs keep the engine default
     of aborting on failure. *)
  let effective_mode =
    match faults, failure_mode with
    | _, Engine.Recover -> Engine.Recover
    | None, _ -> Engine.default_config.failure_mode
    | Some _, m -> m
  in
  let config =
    {
      Engine.default_config with
      cost;
      seed = sched_seed;
      jitter_mean = jitter;
      failure_mode = effective_mode;
      (* a fresh injector per run: occurrence counters are mutable *)
      inject = Option.map Rfdet_fault.Fault_plan.injector faults;
      sched_tap;
      obs;
    }
  in
  let main = workload.Workload.main cfg in
  (* Under Recover, runtimes with a Kendo sync layer get a recovery
     manager: restartable spawns, lock healing, deadlock victims.  The
     fence baselines (dthreads, coredet) and pthreads have no
     per-thread recovery path and run unmanaged. *)
  let maker engine =
    let manage = Recover.manage ?config:recover_config engine ~main in
    match effective_mode, runtime with
    | Engine.Recover, Rfdet opts ->
      let state, policy =
        Rfdet_core.Rfdet_runtime.make_with_state ~opts engine
      in
      manage ~sync:(Rfdet_core.Rfdet_runtime.sync state)
        ~prepare_restart:(Rfdet_core.Rfdet_runtime.crash_recoverable state)
        policy
    | Engine.Recover, Kendo ->
      let sync, policy = Rfdet_baselines.Kendo_runtime.make_with_sync engine in
      manage ~sync ~prepare_restart:(fun ~tid:_ -> ()) policy
    | _ -> make_policy runtime engine
  in
  let t0 = Unix.gettimeofday () in
  let r = Engine.run ~config maker ~main in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  {
    runtime = runtime_name runtime;
    workload = workload.Workload.name;
    sim_time = r.Engine.sim_time;
    wall_seconds;
    signature = Engine.output_signature r;
    output_checksum = Engine.outputs_checksum r;
    outputs = r.Engine.outputs;
    profile = r.Engine.profile;
    threads = r.Engine.threads;
    ops = r.Engine.ops;
    crashes = r.Engine.crashes;
    thread_clocks = r.Engine.thread_clocks;
  }
