module Engine = Rfdet_sim.Engine
module Profile = Rfdet_sim.Profile
module Runner = Rfdet_harness.Runner
module Workload = Rfdet_workloads.Workload
module Registry = Rfdet_workloads.Registry
module Fault_plan = Rfdet_fault.Fault_plan

type spec = {
  workload : Workload.t;
  runtime : Runner.runtime;
  threads : int;
  scale : float;
  input_seed : int64;
  sched_seed : int64;
  jitter : float;
  fault_mode : Engine.failure_mode;
  faults : Fault_plan.t option;
}

let header_of_spec (spec : spec) : Journal.header =
  {
    Rfdet_check.Trace.workload = spec.workload.Workload.name;
    threads = spec.threads;
    scale = spec.scale;
    input_seed = spec.input_seed;
    sched_seed = spec.sched_seed;
    jitter = spec.jitter;
    runtime = Runner.cli_name spec.runtime;
    fault_mode = Engine.failure_mode_name spec.fault_mode;
    fault_plan = Option.map Fault_plan.to_string spec.faults;
  }

let spec_of_header (h : Journal.header) : (spec, string) result =
  let ( let* ) = Result.bind in
  let* workload =
    match Registry.find h.workload with
    | wl -> Ok wl
    | exception Invalid_argument e -> Error e
  in
  let* runtime =
    match Runner.runtime_of_name h.runtime with
    | Some r -> Ok r
    | None -> Error (Printf.sprintf "unknown runtime %S" h.runtime)
  in
  let* fault_mode =
    match List.assoc_opt h.fault_mode Engine.failure_modes with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown fault mode %S" h.fault_mode)
  in
  let* faults =
    match h.fault_plan with
    | None -> Ok None
    | Some p -> (
      match Fault_plan.parse p with
      | Ok plan -> Ok (Some plan)
      | Error e -> Error (Printf.sprintf "bad fault plan in header: %s" e))
  in
  Ok
    {
      workload;
      runtime;
      threads = h.threads;
      scale = h.scale;
      input_seed = h.input_seed;
      sched_seed = h.sched_seed;
      jitter = h.jitter;
      fault_mode;
      faults;
    }

type summary = {
  s_signature : string;
  s_outputs_checksum : string;
  s_ops : int;
  s_sim_time : int;
  s_decisions : int;
  s_threads : int;
  s_profile_json : string;
}

let trailer_of_summary (s : summary) : Journal.trailer =
  {
    signature = s.s_signature;
    outputs_checksum = s.s_outputs_checksum;
    ops = s.s_ops;
    sim_time = s.s_sim_time;
    decisions = s.s_decisions;
    threads_made = s.s_threads;
    profile_fnv = Journal.fnv64 s.s_profile_json;
  }

let run_spec ?sched_tap (spec : spec) =
  Runner.run ~threads:spec.threads ~scale:spec.scale
    ~input_seed:spec.input_seed ~sched_seed:spec.sched_seed
    ~jitter:spec.jitter ?faults:spec.faults ~failure_mode:spec.fault_mode
    ?sched_tap spec.runtime spec.workload

let summary_of (r : Runner.run_result) ~decisions =
  {
    s_signature = r.Runner.signature;
    s_outputs_checksum = r.Runner.output_checksum;
    s_ops = r.Runner.ops;
    s_sim_time = r.Runner.sim_time;
    s_decisions = decisions;
    s_threads = r.Runner.threads;
    s_profile_json = Profile.to_json r.Runner.profile;
  }

let record ~path (spec : spec) =
  let w = Journal.create ~path (header_of_spec spec) in
  let tap (d : Engine.decision) = Journal.add w d.Engine.d_chosen in
  match run_spec ~sched_tap:tap spec with
  | r ->
    let summary = summary_of r ~decisions:(Journal.written w) in
    Journal.finish w (trailer_of_summary summary);
    summary
  | exception e ->
    (* leave a deliberately torn (recoverable) journal behind: the
       decisions made before the failure are the crash evidence *)
    Journal.abort w;
    raise e

type error =
  | E_corrupt of { frame : int; offset : int; reason : string }
  | E_torn of { offset : int; reason : string; decoded : int; synced : int }
  | E_unreadable of string
  | E_bad_header of string
  | E_diverged of { index : int; expected : int; got : int }
  | E_mismatch of string list

let describe_error = function
  | E_corrupt { frame; offset; reason } ->
    Printf.sprintf "corrupt journal: frame %d at byte offset %d: %s" frame
      offset reason
  | E_torn { offset; reason; decoded; synced } ->
    Printf.sprintf
      "torn journal: %s at byte offset %d (%d decisions decoded, %d synced); \
       rerun with --recover to reconstruct from the verified prefix"
      reason offset decoded synced
  | E_unreadable e -> "cannot read journal " ^ e
  | E_bad_header e -> "unusable journal header: " ^ e
  | E_diverged { index; expected; got } ->
    Printf.sprintf
      "replay divergence at decision %d: journal records tid %d, replay chose \
       tid %d"
      index expected got
  | E_mismatch lines ->
    "replayed run does not match the recorded trailer:\n  "
    ^ String.concat "\n  " lines

type ok = {
  r_summary : summary;
  r_header : Journal.header;
  r_recovered : bool;
  r_verified : int;
}

exception Diverged of int * int * int

let run_verified ~recovered header (decisions : int array) trailer_opt =
  match spec_of_header header with
  | Error e -> Error (E_bad_header e)
  | Ok spec -> (
    let counter = ref 0 in
    let tap (d : Engine.decision) =
      let i = !counter in
      incr counter;
      if i < Array.length decisions && decisions.(i) <> d.Engine.d_chosen then
        raise (Diverged (i, decisions.(i), d.Engine.d_chosen))
    in
    match run_spec ~sched_tap:tap spec with
    | exception Diverged (i, e, g) ->
      Error (E_diverged { index = i; expected = e; got = g })
    | exception Engine.Thread_failure (_, Diverged (i, e, g)) ->
      Error (E_diverged { index = i; expected = e; got = g })
    | r ->
      let summary = summary_of r ~decisions:!counter in
      if !counter < Array.length decisions then
        Error
          (E_mismatch
             [
               Printf.sprintf
                 "decisions: journal carries %d but the replay only made %d"
                 (Array.length decisions) !counter;
             ])
      else (
        match trailer_opt with
        | None ->
          Ok
            {
              r_summary = summary;
              r_header = header;
              r_recovered = recovered;
              r_verified = Array.length decisions;
            }
        | Some (t : Journal.trailer) ->
          let replayed = trailer_of_summary summary in
          let mism = ref [] in
          let chk name a b = if a <> b then mism := (name, a, b) :: !mism in
          chk "signature" t.signature replayed.signature;
          chk "outputs-checksum" t.outputs_checksum replayed.outputs_checksum;
          chk "ops" (string_of_int t.ops) (string_of_int replayed.ops);
          chk "sim-time" (string_of_int t.sim_time)
            (string_of_int replayed.sim_time);
          chk "decisions"
            (string_of_int t.decisions)
            (string_of_int replayed.decisions);
          chk "threads"
            (string_of_int t.threads_made)
            (string_of_int replayed.threads_made);
          chk "profile-fnv"
            (Printf.sprintf "%Lx" t.profile_fnv)
            (Printf.sprintf "%Lx" replayed.profile_fnv);
          if !mism <> [] then
            Error
              (E_mismatch
                 (List.rev_map
                    (fun (name, rec_, rep) ->
                      Printf.sprintf "%s: recorded %s, replayed %s" name rec_
                        rep)
                    !mism))
          else
            Ok
              {
                r_summary = summary;
                r_header = header;
                r_recovered = recovered;
                r_verified = Array.length decisions;
              }))

let replay ?(recover = false) ~path () =
  match Journal.scan_file path with
  | Error e -> Error (E_unreadable e)
  | Ok (Journal.Corrupt { frame; offset; reason }) ->
    Error (E_corrupt { frame; offset; reason })
  | Ok (Journal.Torn { decisions; synced; offset; reason; _ }) when not recover
    ->
    Error
      (E_torn { offset; reason; decoded = Array.length decisions; synced })
  | Ok (Journal.Torn { header; decisions; _ }) ->
    run_verified ~recovered:true header decisions None
  | Ok (Journal.Complete { header; decisions; trailer }) ->
    run_verified ~recovered:false header decisions (Some trailer)
