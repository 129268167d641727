module Registry = Rfdet_workloads.Registry
module Race = Rfdet_detect.Race_detector
module Runner = Rfdet_harness.Runner
module Trace = Rfdet_check.Trace
module Explore = Rfdet_check.Explore
module Shrink = Rfdet_check.Shrink

let run_detector spec =
  let make, report = Race.recorder () in
  let hooks = { Runner.no_hooks with policy = Runner.Policy make } in
  ignore (Runner.exec ~hooks spec);
  report ()

(* The header's workload and inputs, run as the explorer runs a trace
   (the detector then replaces the runtime). *)
let detector_spec (h : Journal.header) =
  match Registry.find h.workload with
  | exception Invalid_argument e -> Error e
  | wl ->
    Ok
      (Explore.spec
         {
           Explore.default_config with
           threads = h.threads;
           scale = h.scale;
           input_seed = h.input_seed;
         }
         wl)

let detect h = Result.map run_detector (detector_spec h)

let minimize_repro (h : Journal.header) (report : Race.report) =
  match detector_spec h with
  | Error e -> Error e
  | Ok _ when report.Race.races = [] ->
    Error "no races to minimize (the journal's run is race-free)"
  | Ok spec -> (
    let digest = Race.digest report in
    let base =
      {
        Trace.header =
          {
            (Trace.header_of_spec spec) with
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
        Ok ({ minimized with Trace.note = Some note }, tries)))
