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

type spec = {
  workload : Workload.t;
  runtime : runtime;
  threads : int;
  scale : float;
  input_seed : int64;
  sched_seed : int64;
  jitter : float;
  fault_mode : Engine.failure_mode;
  faults : Rfdet_fault.Fault_plan.t option;
}

let spec ?(threads = 4) ?(scale = 1.0) ?(input_seed = 42L) ?(sched_seed = 1L)
    ?(jitter = 0.) ?faults ?(failure_mode = Engine.Contain) runtime workload =
  {
    workload;
    runtime;
    threads;
    scale;
    input_seed;
    sched_seed;
    jitter;
    fault_mode = failure_mode;
    faults;
  }

type policy_hook =
  | Rfdet_with of
      (Options.t -> Engine.t -> Rfdet_core.Rfdet_runtime.t * Engine.policy)
  | Policy of (Engine.t -> Engine.policy)

type hooks = {
  sink : Rfdet_obs.Sink.t;
  tap : (Engine.decision -> unit) option;
  choose : (Engine.sched_point -> int) option;
  observe : (tid:int -> Rfdet_sim.Op.t -> unit) option;
  policy : policy_hook;
}

let no_hooks =
  {
    sink = Rfdet_obs.Sink.null;
    tap = None;
    choose = None;
    observe = None;
    policy =
      Rfdet_with (fun opts -> Rfdet_core.Rfdet_runtime.make_with_state ~opts);
  }

let exec ?(cost = Rfdet_sim.Cost.default) ?recover_config ?(hooks = no_hooks)
    s =
  (* An explicit Recover applies even without a fault plan (deadlock
     victims need no injector); otherwise the mode only takes effect
     when a plan is given, so fault-free runs keep the engine default
     of aborting on failure. *)
  let failure_mode =
    match s.faults, s.fault_mode with
    | _, Engine.Recover -> Engine.Recover
    | None, _ -> Engine.default_config.failure_mode
    | Some _, m -> m
  in
  let config =
    {
      Engine.default_config with
      cost;
      seed = s.sched_seed;
      jitter_mean = s.jitter;
      failure_mode;
      (* a fresh injector per run: occurrence counters are mutable *)
      inject = Option.map Rfdet_fault.Fault_plan.injector s.faults;
      choose = hooks.choose;
      sched_tap = hooks.tap;
      observe = hooks.observe;
      obs = hooks.sink;
    }
  in
  let main =
    s.workload.Workload.main
      {
        Workload.threads = s.threads;
        scale = s.scale;
        input_seed = s.input_seed;
      }
  in
  (* Under Recover, runtimes with a Kendo sync layer get a recovery
     manager: restartable spawns, lock healing, deadlock victims.  The
     fence baselines (dthreads, coredet) and pthreads have no
     per-thread recovery path and run unmanaged. *)
  let maker engine =
    let manage = Recover.manage ?config:recover_config engine ~main in
    match hooks.policy, s.runtime with
    | Policy make, _ -> make engine
    | Rfdet_with make, Rfdet opts ->
      let state, policy = make opts engine in
      if failure_mode <> Engine.Recover then policy
      else
        manage ~sync:(Rfdet_core.Rfdet_runtime.sync state)
          ~prepare_restart:(Rfdet_core.Rfdet_runtime.crash_recoverable state)
          policy
    | Rfdet_with _, Kendo when failure_mode = Engine.Recover ->
      let sync, policy = Rfdet_baselines.Kendo_runtime.make_with_sync engine in
      manage ~sync ~prepare_restart:(fun ~tid:_ -> ()) policy
    | Rfdet_with _, runtime -> make_policy runtime engine
  in
  Engine.run ~config maker ~main

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

let run_spec ?cost ?recover_config ?hooks s =
  let t0 = Unix.gettimeofday () in
  let r = exec ?cost ?recover_config ?hooks s in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  {
    runtime = runtime_name s.runtime;
    workload = s.workload.Workload.name;
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

let run ?threads ?scale ?input_seed ?sched_seed ?jitter ?cost ?faults
    ?failure_mode ?recover_config ?(obs = Rfdet_obs.Sink.null) ?sched_tap
    runtime workload =
  run_spec ?cost ?recover_config
    ~hooks:{ no_hooks with sink = obs; tap = sched_tap }
    (spec ?threads ?scale ?input_seed ?sched_seed ?jitter ?faults
       ?failure_mode runtime workload)
