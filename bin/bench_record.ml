(* The benchmark record behind BENCH_CORE.json.  Every field is a
   simulated result, so the same tree prints the same bytes on every
   host; host time is measured by bench/perf alone.

   - sweep_throughput: a determinism repeat-run sweep and the kvserver
     arrival-rate sweep, each run at jobs 1 and at [sweep_jobs] domains;
     [identical] says the two results are equal.
   - end_to_end: per workload, one untraced run (signature, engine ops,
     simulated cycles, kvserver latency) and one traced run (breakdown,
     kvserver latency attribution).  The two runs must agree on the
     signature, or tracing is not inert.
   - journal: the decision journal of the kvserver run against the full
     causal trace of the same run. *)

module Runner = Rfdet_harness.Runner
module Determinism = Rfdet_harness.Determinism
module Registry = Rfdet_workloads.Registry
module Workload = Rfdet_workloads.Workload
module Server = Rfdet_server.Server
module Traffic = Rfdet_server.Traffic
module Sweep = Rfdet_server.Sweep
module Session = Rfdet_replay.Session
module Sink = Rfdet_obs.Sink
module Report = Rfdet_obs.Report
module Critpath = Rfdet_obs.Critpath

(* the domain count of CI's --jobs 4 byte-identity gates *)
let sweep_jobs = 4

let kv_sweep_report ~rate =
  let p =
    {
      Server.default with
      Server.traffic =
        {
          Traffic.default with
          Traffic.requests = 2000;
          mean_interarrival = rate;
        };
    }
  in
  let w, report =
    Workload.reporting ~name:"kvserver" ~suite:"server"
      ~description:"bench sweep kvserver" (fun ~seed -> Server.run ~seed p)
  in
  ignore (Runner.run ~threads:p.Server.workers Runner.rfdet_ci w);
  report ()

let sweep name ~items ~eq f =
  let seq = f 1 in
  let par = f sweep_jobs in
  Printf.sprintf "    { \"name\": \"%s\", \"items\": %d, \"identical\": %b }"
    name items (eq seq par)

let sweeps () =
  [
    sweep "determinism wordcount (12 runs)" ~items:12 ~eq:( = ) (fun jobs ->
        Determinism.check ~threads:4 ~runs:12 ~jobs Runner.rfdet_ci
          (Registry.find "wordcount"));
    sweep "kvserver rate sweep (10 rates)"
      ~items:(List.length Sweep.default_rates)
      ~eq:(fun a b -> String.equal (Sweep.to_json a) (Sweep.to_json b))
      (fun jobs -> Sweep.run ~jobs ~f:kv_sweep_report ());
  ]

(* tracing must be inert: a traced run reproduces the untraced signature *)
let check_inert what ~untraced ~traced =
  if traced <> untraced then
    Exit_code.(fail check_failed)
      "bench: %s: traced run signature %s differs from %s" what traced untraced

(* The server emits ..., p50, p99, p999, makespan as its last outputs
   (see Server.run). *)
let latency_json (r : Runner.run_result) =
  match List.rev r.Runner.outputs with
  | _ :: (_, p999) :: (_, p99) :: (_, p50) :: _ ->
    Printf.sprintf
      "      \"latency\": { \"p50\": %Ld, \"p99\": %Ld, \"p999\": %Ld },\n" p50
      p99 p999
  | _ -> failwith "bench: kvserver emitted no latency quantiles"

let attribution_json events =
  let spans = Rfdet_obs.Span.collect events in
  match Critpath.walk_all spans.Rfdet_obs.Span.complete with
  | Error msg -> failwith ("bench: kvserver latency attribution: " ^ msg)
  | Ok atts ->
    "      \"latency_attribution\": {\n"
    ^ String.concat ",\n"
        (List.map
           (fun (c : Critpath.cohort) ->
             Printf.sprintf "        \"%s\": %s" c.Critpath.label
               (Critpath.cohort_json c))
           (Critpath.cohorts atts))
    ^ "\n      },\n"

let end_to_end (name, threads) =
  let w = Registry.find name in
  let r = Runner.run ~threads Runner.rfdet_ci w in
  let obs = Sink.create () in
  let rt = Runner.run ~threads ~obs Runner.rfdet_ci w in
  check_inert name ~untraced:r.Runner.signature ~traced:rt.Runner.signature;
  let events = Sink.events obs in
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 rt.Runner.thread_clocks
  in
  let bd = Report.breakdown ~total events in
  let share c =
    if bd.Report.total = 0 then 0.
    else float_of_int c /. float_of_int bd.Report.total
  in
  let server =
    if name = "kvserver" then latency_json r ^ attribution_json events else ""
  in
  Printf.sprintf
    "    { \"workload\": \"%s\", \"runtime\": \"%s\", \"threads\": %d, \
     \"engine_ops\": %d, \"sim_cycles\": %d,\n\
    \      \"signature\": \"%s\",\n\
     %s\
    \      \"breakdown\": { \"thread_cycles\": %d, \"compute_share\": %.4f, \
     \"wait_share\": %.4f, \"propagate_share\": %.4f, \"diff_share\": %.4f, \
     \"gc_share\": %.4f, \"monitor_share\": %.4f } }"
    name r.Runner.runtime threads r.Runner.ops r.Runner.sim_time
    r.Runner.signature server bd.Report.total (share bd.Report.compute)
    (share bd.Report.wait) (share bd.Report.propagate) (share bd.Report.diff)
    (share bd.Report.gc) (share bd.Report.monitor)

(* Log minimality: record the kvserver run to a throwaway journal and
   set its size against the full causal trace of the same run. *)
let journal () =
  let spec =
    Runner.spec ~threads:4 Runner.rfdet_ci (Registry.find "kvserver")
  in
  let path = Filename.temp_file "rfdet-journal" ".rfdj" in
  let summary, journal_bytes =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let summary = Session.record ~path spec in
        let size = In_channel.with_open_bin path In_channel.length in
        (summary, Int64.to_int size))
  in
  let sink = Sink.create () in
  let traced = Runner.run_spec ~hooks:{ Runner.no_hooks with sink } spec in
  check_inert "journal" ~untraced:summary.Session.s_signature
    ~traced:traced.Runner.signature;
  let trace_bytes = Rfdet_obs.Trace.lines_bytes (Sink.events sink) in
  let requests = traced.Runner.profile.Rfdet_sim.Profile.requests_served in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  Printf.sprintf
    "  \"journal\": { \"workload\": \"%s\", \"runtime\": \"%s\", \"threads\": \
     %d, \"requests\": %d, \"decisions\": %d, \"journal_bytes\": %d, \
     \"trace_bytes\": %d, \"bytes_per_request\": %.2f, \"trace_ratio\": %.1f,\n\
    \    \"signature\": \"%s\" }\n"
    spec.workload.Workload.name
    (Runner.cli_name spec.runtime)
    spec.threads requests summary.Session.s_decisions journal_bytes
    trace_bytes
    (ratio journal_bytes requests)
    (ratio trace_bytes journal_bytes)
    summary.Session.s_signature

let end_to_end_workloads = [ ("fft", 8); ("wordcount", 8); ("kvserver", 4) ]

(* The BENCH_CORE.json document.  It holds no timestamps and no host
   facts, so a rerun on any host reproduces the committed file. *)
let json () =
  let sweeps = String.concat ",\n" (sweeps ()) in
  let runs = String.concat ",\n" (List.map end_to_end end_to_end_workloads) in
  let journal = journal () in
  Printf.sprintf
    "{\n\
    \  \"schema\": \"rfdet-bench-core/2\",\n\
    \  \"sweep_throughput\": [\n%s\n  ],\n\
    \  \"end_to_end\": [\n%s\n  ],\n\
     %s}\n"
    sweeps runs journal
