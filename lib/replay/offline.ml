module Engine = Rfdet_sim.Engine
module Runner = Rfdet_harness.Runner
module Bench_core = Rfdet_harness.Bench_core
module Workload = Rfdet_workloads.Workload
module Registry = Rfdet_workloads.Registry
module Race = Rfdet_detect.Race_detector
module Trace = Rfdet_check.Trace
module Explore = Rfdet_check.Explore
module Shrink = Rfdet_check.Shrink

let detect (h : Journal.header) =
  match Registry.find h.workload with
  | exception Invalid_argument e -> Error e
  | wl ->
    let cfg =
      {
        Workload.threads = h.threads;
        scale = h.scale;
        input_seed = h.input_seed;
      }
    in
    Ok (Race.check ~main:(wl.Workload.main cfg))

let minimize_repro (h : Journal.header) (report : Race.report) =
  if report.Race.races = [] then
    Error "no races to minimize (the journal's run is race-free)"
  else begin
    let digest = Race.digest report in
    let base =
      let cfg =
        {
          Explore.default_config with
          threads = h.threads;
          scale = h.scale;
          input_seed = h.input_seed;
        }
      in
      {
        Trace.header =
          {
            (Explore.header cfg h.workload) with
            runtime = Explore.detector_runtime;
          };
        choices = [];
        expect = Some digest;
        note = None;
      }
    in
    (* capture the full default choice list of one detector run, then
       ddmin it under "the race digest is preserved" *)
    let probe = Explore.replay ~strict:false base in
    match probe.Explore.r_error with
    | Some e -> Error ("race repro does not replay: " ^ e)
    | None -> (
      let seeded = { base with Trace.choices = probe.Explore.r_choices } in
      let fails (r : Explore.replay_result) =
        r.Explore.r_signature = Some digest
      in
      match Shrink.shrink ~fails seeded with
      | None -> Error "shrinker rejected a repro that just replayed (bug)"
      | Some { Shrink.minimized; tries; _ } ->
        let note =
          Printf.sprintf
            "auto-minimized race repro: %d race(s) on %d address(es), digest \
             pinned in expect (ddmin, %d replays, %d -> %d choices)"
            (List.length report.Race.races)
            report.Race.racy_addresses tries
            (List.length probe.Explore.r_choices)
            (List.length minimized.Trace.choices)
        in
        Ok ({ minimized with Trace.note = Some note }, tries))
  end

let bench_probe () : Bench_core.journal_size =
  let workload = Registry.find "kvserver" in
  let spec =
    {
      Session.workload;
      runtime = Runner.rfdet_ci;
      threads = 4;
      scale = 1.0;
      input_seed = 42L;
      sched_seed = 1L;
      jitter = 0.;
      fault_mode = Engine.Contain;
      faults = None;
    }
  in
  let path = Filename.temp_file "rfdet-journal" ".rfdj" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let summary = Session.record ~path spec in
      let journal_bytes =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> in_channel_length ic)
      in
      let sink = Rfdet_obs.Sink.create () in
      let traced =
        Runner.run ~threads:spec.Session.threads ~scale:spec.Session.scale
          ~input_seed:spec.Session.input_seed
          ~sched_seed:spec.Session.sched_seed ~obs:sink spec.Session.runtime
          workload
      in
      if traced.Runner.signature <> summary.Session.s_signature then
        failwith "journal bench probe: traced run diverged from recorded run";
      let trace_bytes =
        Rfdet_obs.Trace.lines_bytes (Rfdet_obs.Sink.events sink)
      in
      let requests =
        traced.Runner.profile.Rfdet_sim.Profile.requests_served
      in
      {
        Bench_core.j_workload = workload.Workload.name;
        j_runtime = Runner.cli_name spec.Session.runtime;
        j_threads = spec.Session.threads;
        j_requests = requests;
        j_decisions = summary.Session.s_decisions;
        j_journal_bytes = journal_bytes;
        j_trace_bytes = trace_bytes;
        j_bytes_per_request =
          (if requests = 0 then 0.
           else float_of_int journal_bytes /. float_of_int requests);
        j_trace_ratio =
          (if journal_bytes = 0 then 0.
           else float_of_int trace_bytes /. float_of_int journal_bytes);
        j_signature = summary.Session.s_signature;
      })
