(* rfdet — command-line front end for the RFDet reproduction.

   Subcommands:
     run WORKLOAD     run one workload under one runtime, print stats
     list             list workloads and runtimes
     racey            the determinism stress experiment (Section 5.1)
     faults WORKLOAD  fault-determinism check under an injected plan
     clinic WORKLOAD  crash clinic: inject one crash at every op index
     bench            print the benchmark record (BENCH_CORE.json)
     experiment NAME  regenerate a table/figure (fig7, table1, fig8,
                      fig9, e1, e6, e7, e8, all) *)

open Cmdliner
module Runner = Rfdet_harness.Runner
module Determinism = Rfdet_harness.Determinism
module Experiments = Rfdet_harness.Experiments
module Registry = Rfdet_workloads.Registry
module Options = Rfdet_core.Options
module Profile = Rfdet_sim.Profile
module Engine = Rfdet_sim.Engine
module Fault_plan = Rfdet_fault.Fault_plan
module Sink = Rfdet_obs.Sink
module Obs_trace = Rfdet_obs.Trace
module Chrome = Rfdet_obs.Chrome
module Metrics = Rfdet_obs.Metrics
module Report = Rfdet_obs.Report
module Span = Rfdet_obs.Span
module Critpath = Rfdet_obs.Critpath

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* Every command's help lists the exit-code table. *)
let cmd_info name ~doc = Cmd.info name ~doc ~exits:Exit_code.infos

(* The canonical CLI-name table lives in Runner so journal headers and
   this parser can never drift apart. *)
let runtime_names = List.map fst Runner.named_runtimes

let runtime_conv =
  let parse s =
    match Runner.runtime_of_name s with
    | Some r -> Ok r
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown runtime %S (expected one of: %s)" s
             (String.concat ", " runtime_names)))
  in
  let print ppf r = Format.pp_print_string ppf (Runner.cli_name r) in
  Arg.conv (parse, print)

let workload_conv =
  let parse s =
    match List.find_opt (fun w -> w.Rfdet_workloads.Workload.name = s) Registry.all with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (expected one of: %s)" s
             (String.concat ", " Registry.names)))
  in
  let print ppf w =
    Format.pp_print_string ppf w.Rfdet_workloads.Workload.name
  in
  Arg.conv (parse, print)

let threads_arg =
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~doc:"Worker thread count.")

(* Host-domain parallelism for the sweep commands.  Sweep results are
   byte-identical for every job count, so the default can safely track
   the machine. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Host domains (OS cores) used to parallelize independent \
           simulated runs.  Default: $(b,RFDET_JOBS) when set, else the \
           machine's recommended domain count (capped at 16).  Output \
           is byte-identical for every N.")

let resolve_jobs = function
  | Some n when n <= 0 ->
    Exit_code.(fail usage) "--jobs must be a positive domain count (got %d)" n
  | Some n -> n
  | None -> (
    try Rfdet_par.Par.default_jobs ()
    with Invalid_argument msg -> Exit_code.(fail usage) "%s" msg)

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~doc:"Problem-size multiplier.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.")

let jitter_arg =
  Arg.(
    value & opt float 0.
    & info [ "jitter" ]
        ~doc:"Mean scheduling-noise cycles per operation (0 = none).")

let fault_plan_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault_plan.parse s) in
  Arg.conv (parse, Fault_plan.pp)

let fault_plan_arg =
  Arg.(
    value
    & opt (some fault_plan_conv) None
    & info [ "fault-plan" ]
        ~doc:
          "Deterministic fault plan: sites separated by ';', fields by \
           ','; the first field is crash, fail or delay=CYCLES, then \
           optional tid=K, op=CLASS, n=K. Example: \
           'crash,tid=2,op=lock,n=3;fail,op=malloc,n=5'.")

let fault_mode_arg =
  Arg.(
    value
    & opt (enum Engine.failure_modes) Engine.Contain
    & info [ "fault-mode" ]
        ~doc:
          "What a thread crash does: 'contain' (kill only the faulting \
           thread, poison its locks, keep going), 'abort' (unwind the \
           whole run) or 'recover' (restart the thread deterministically \
           under a retry budget, healing its locks).")

let print_crashes crashes =
  if crashes <> [] then begin
    Printf.printf "crashes:\n";
    List.iter
      (fun (tid, msg) -> Printf.printf "  tid %d: %s\n" tid msg)
      crashes
  end

(* --- run -------------------------------------------------------------- *)

let run_cmd =
  let runtime_arg =
    Arg.(
      value
      & opt runtime_conv Runner.rfdet_ci
      & info [ "r"; "runtime" ]
          ~doc:"Runtime: pthreads, kendo, dthreads, coredet, rfdet-ci, \
                rfdet-pf or rfdet-noopt.")
  in
  let workload_arg =
    Arg.(
      required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let action runtime workload threads scale seed input_seed jitter faults
      failure_mode profile_json =
   Exit_code.guard @@ fun () ->
    (match faults with
    | Some plan when Fault_plan.has_wildcard plan && jitter > 0. ->
      Printf.eprintf
        "rfdet: warning: the fault plan has a wildcard-tid site and \
         jitter is nonzero; wildcard sites count operations in global \
         scheduler order, so where the fault fires depends on the \
         schedule.  Qualify the site with tid=K (or drop --jitter) for \
         a reproducible injection.\n"
    | _ -> ());
    let r =
      Runner.run ~threads ~scale ~sched_seed:(Int64.of_int seed)
        ~input_seed:(Int64.of_int input_seed) ~jitter ?faults ~failure_mode
        runtime workload
    in
    let p = r.Runner.profile in
    (match profile_json with
    | None -> ()
    | Some path ->
      write_file path (Profile.to_json p);
      Printf.printf "profile json: %s\n" path);
    Printf.printf "workload:    %s\n" r.Runner.workload;
    Printf.printf "runtime:     %s\n" r.Runner.runtime;
    Printf.printf "threads:     %d (total spawned: %d)\n" threads
      r.Runner.threads;
    Printf.printf "sim cycles:  %d\n" r.Runner.sim_time;
    Printf.printf "engine ops:  %d (%.2fs host)\n" r.Runner.ops
      r.Runner.wall_seconds;
    Printf.printf "signature:   %s\n" r.Runner.signature;
    Printf.printf "outputs:     %s\n"
      (String.concat ", "
         (List.map
            (fun (tid, v) -> Printf.sprintf "%d:%Ld" tid v)
            r.Runner.outputs));
    print_crashes r.Runner.crashes;
    Format.printf "profile:     @[%a@]@." Profile.pp p
  in
  let input_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "input-seed" ] ~doc:"Input-data generator seed (an input).")
  in
  let profile_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-json" ] ~docv:"FILE"
          ~doc:"Also write the run's profile counters as a JSON object.")
  in
  Cmd.v (cmd_info "run" ~doc:"Run one workload under one runtime.")
    Term.(
      const action $ runtime_arg $ workload_arg $ threads_arg $ scale_arg
      $ seed_arg $ input_seed_arg $ jitter_arg $ fault_plan_arg
      $ fault_mode_arg $ profile_json_arg)

(* --- trace / profile --------------------------------------------------- *)

(* Shared by [trace] and [profile]: run a workload with a causal sink
   attached and return the result plus the collected events and the
   ring-overflow count (0 when the sink is unbounded). *)
let traced_run ?(ring = 0) runtime workload threads scale seed input_seed =
  let obs = Sink.create ~capacity:ring () in
  let r =
    Runner.run ~threads ~scale ~sched_seed:(Int64.of_int seed)
      ~input_seed:(Int64.of_int input_seed) ~obs runtime workload
  in
  (r, Sink.events obs, Sink.dropped obs)

(* A saturated ring silently truncates the causal record, which turns
   "the trace proves X" into "the trace suggests X" — so every consumer
   shouts when events were dropped instead of burying it in a counter. *)
let warn_dropped dropped =
  if dropped > 0 then
    Printf.eprintf
      "rfdet: WARNING: trace ring overflowed — %d event%s dropped (oldest \
       first).  Raise --ring (or use 0 for unbounded) for a complete \
       causal record; profile counter trace_dropped carries this count.\n"
      dropped
      (if dropped = 1 then "" else "s")

let ring_arg =
  Arg.(
    value & opt int 0
    & info [ "ring" ] ~docv:"CAP"
        ~doc:
          "Sink ring capacity: keep only the last $(docv) events.  0 \
           (default) grows without bound.  Overflow is surfaced as a \
           loud warning and the $(b,trace_dropped) profile counter.")

let runtime_opt_arg =
  Arg.(
    value
    & opt runtime_conv Runner.rfdet_ci
    & info [ "r"; "runtime" ]
        ~doc:"Runtime: pthreads, kendo, dthreads, coredet, rfdet-ci, \
              rfdet-pf or rfdet-noopt.")

let workload_pos_arg =
  Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")

let input_seed_opt_arg =
  Arg.(
    value & opt int 42
    & info [ "input-seed" ] ~doc:"Input-data generator seed (an input).")

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output file.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("lines", `Lines) ]) `Chrome
      & info [ "format" ]
          ~doc:
            "Export format: 'chrome' (trace_event JSON for Perfetto / \
             chrome://tracing) or 'lines' (the compact replayable line \
             format, one event per line).")
  in
  let filter_kind_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter-kind" ] ~docv:"KINDS"
          ~doc:
            "Keep only events of these kinds (comma-separated, e.g. \
             'lock_acquire,lock_release' or 'span').")
  in
  let filter_tid_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter-tid" ] ~docv:"TIDS"
          ~doc:"Keep only events from these simulated threads \
                (comma-separated ids).")
  in
  let filter_time_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter-time" ] ~docv:"LO:HI"
          ~doc:
            "Keep only events whose simulated-time stamp lies in the \
             inclusive window $(docv).")
  in
  let split_commas s = String.split_on_char ',' s |> List.map String.trim in
  let parse_window s =
    match List.map int_of_string_opt (String.split_on_char ':' s) with
    | [ Some lo; Some hi ] when lo <= hi -> (lo, hi)
    | _ -> Exit_code.(fail usage) "--filter-time wants LO:HI integers"
  in
  let apply_filters ~kinds ~tids ~window events =
    let keep (e : Obs_trace.event) =
      (match kinds with
      | None -> true
      | Some ks -> List.mem (Obs_trace.kind_name e.kind) ks)
      && (match tids with None -> true | Some ts -> List.mem e.tid ts)
      &&
      match window with
      | None -> true
      | Some (lo, hi) -> e.time >= lo && e.time <= hi
    in
    List.filter keep events
  in
  let action runtime workload threads scale seed input_seed out format ring
      filter_kind filter_tid filter_time =
   Exit_code.guard @@ fun () ->
    let r, events, dropped =
      traced_run ~ring runtime workload threads scale seed input_seed
    in
    warn_dropped dropped;
    let kinds = Option.map split_commas filter_kind in
    (match kinds with
    | Some ks ->
      List.iter
        (fun k ->
          if not (List.mem k Obs_trace.kind_names) then
            Exit_code.(fail usage) "unknown trace kind %S (see: %s)" k
              (String.concat ", " Obs_trace.kind_names))
        ks
    | None -> ());
    let tids =
      Option.map
        (fun s ->
          List.map
            (fun t ->
              match int_of_string_opt t with
              | Some t -> t
              | None -> Exit_code.(fail usage) "--filter-tid wants integer ids")
            (split_commas s))
        filter_tid
    in
    let window = Option.map parse_window filter_time in
    let kept = apply_filters ~kinds ~tids ~window events in
    (match format with
    | `Chrome -> write_file out (Chrome.export kept)
    | `Lines -> write_file out (Obs_trace.to_lines kept));
    Printf.printf "workload:    %s\n" r.Runner.workload;
    Printf.printf "runtime:     %s\n" r.Runner.runtime;
    Printf.printf "sim cycles:  %d\n" r.Runner.sim_time;
    Printf.printf "signature:   %s\n" r.Runner.signature;
    if dropped > 0 then Printf.printf "dropped:     %d (ring overflow)\n" dropped;
    if List.length kept <> List.length events then
      Printf.printf "events:      %d (of %d after filters)\n"
        (List.length kept) (List.length events)
    else Printf.printf "events:      %d\n" (List.length events);
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (cmd_info "trace"
       ~doc:
         "Run a workload with causal tracing on and export the event \
          stream.  The default format loads directly in Perfetto \
          (ui.perfetto.dev) or chrome://tracing: one track per simulated \
          thread, flow arrows for slice propagation.  Tracing is \
          deterministically inert (the signature matches an untraced run) \
          and the trace is a pure function of (workload, runtime, seed): \
          two same-seed runs write byte-identical files.")
    Term.(
      const action $ runtime_opt_arg $ workload_pos_arg $ threads_arg
      $ scale_arg $ seed_arg $ input_seed_opt_arg $ out_arg $ format_arg
      $ ring_arg $ filter_kind_arg $ filter_tid_arg $ filter_time_arg)

let profile_cmd =
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the hottest-pages table.")
  in
  let metrics_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Also write the full metrics registry (profile counters plus \
             trace-derived histograms) as JSON.")
  in
  let action runtime workload threads scale seed input_seed top metrics_json =
   Exit_code.guard @@ fun () ->
    let r, events, dropped =
      traced_run runtime workload threads scale seed input_seed
    in
    warn_dropped dropped;
    let total =
      List.fold_left (fun acc (_, c) -> acc + c) 0 r.Runner.thread_clocks
    in
    Printf.printf "workload:    %s\n" r.Runner.workload;
    Printf.printf "runtime:     %s\n" r.Runner.runtime;
    Printf.printf "threads:     %d (total spawned: %d)\n" threads
      r.Runner.threads;
    Printf.printf "sim cycles:  %d (makespan), %d thread-cycles\n"
      r.Runner.sim_time total;
    Printf.printf "signature:   %s\n\n" r.Runner.signature;
    print_string (Report.render_breakdown (Report.breakdown ~total events));
    print_newline ();
    print_string (Report.render_lock_table (Report.lock_table events));
    print_newline ();
    print_string (Report.render_hot_pages (Report.hot_pages ~top events));
    match metrics_json with
    | None -> ()
    | Some path ->
      let m = Metrics.create () in
      Profile.fill_metrics m r.Runner.profile;
      Report.fill_metrics m events;
      write_file path (Metrics.to_json m);
      Printf.printf "\nwrote %s\n" path
  in
  Cmd.v
    (cmd_info "profile"
       ~doc:
         "Run a workload with causal tracing on and print attribution \
          reports: a Figure-7-style time breakdown (compute / wait / \
          propagate / diff / GC / monitor), a per-lock contention table \
          and the hottest pages by propagated bytes.  All numbers are \
          simulated cycles, so the report is deterministic.")
    Term.(
      const action $ runtime_opt_arg $ workload_pos_arg $ threads_arg
      $ scale_arg $ seed_arg $ input_seed_opt_arg $ top_arg
      $ metrics_json_arg)

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let action () =
    Printf.printf "Workloads:\n";
    List.iter
      (fun w ->
        Printf.printf "  %-18s %-8s %s\n" w.Rfdet_workloads.Workload.name
          w.Rfdet_workloads.Workload.suite
          w.Rfdet_workloads.Workload.description)
      Registry.all;
    Printf.printf "\nRuntimes:\n";
    List.iter (Printf.printf "  %s\n") runtime_names
  in
  Cmd.v (cmd_info "list" ~doc:"List workloads and runtimes.")
    Term.(const action $ const ())

(* --- racey ------------------------------------------------------------ *)

let racey_cmd =
  let runs_arg =
    Arg.(
      value & opt int 1000
      & info [ "n"; "runs" ] ~doc:"Runs per configuration (paper: 1000).")
  in
  let action runs =
   Exit_code.guard @@ fun () ->
    let rows =
      Experiments.racey_determinism ~runs_per_config:runs ()
    in
    print_string (Experiments.render_e1 rows)
  in
  Cmd.v
    (cmd_info "racey"
       ~doc:"Determinism stress test: repeated racey runs (Section 5.1).")
    Term.(const action $ runs_arg)

(* --- record / replay (decision journals) ------------------------------ *)

module Session = Rfdet_replay.Session
module Journal = Rfdet_replay.Journal
module Offline = Rfdet_replay.Offline
module Trace = Rfdet_check.Trace

let print_summary ?(prefix = "") (s : Session.summary) =
  Printf.printf "%ssignature:   %s\n" prefix s.Session.s_signature;
  Printf.printf "%soutputs:     %s\n" prefix s.Session.s_outputs_checksum;
  Printf.printf "%sengine ops:  %d\n" prefix s.Session.s_ops;
  Printf.printf "%ssim cycles:  %d\n" prefix s.Session.s_sim_time;
  Printf.printf "%sdecisions:   %d\n" prefix s.Session.s_decisions;
  Printf.printf "%sthreads:     %d\n" prefix s.Session.s_threads

let journal_arg_doc =
  "Decision journals record only the free scheduler decisions (plus a \
   seeded header); everything else is reconstructed deterministically."

let record_cmd =
  let runtime_arg =
    Arg.(
      value
      & opt runtime_conv Runner.rfdet_ci
      & info [ "r"; "runtime" ]
          ~doc:"Runtime: pthreads, kendo, dthreads, coredet, rfdet-ci, \
                rfdet-pf or rfdet-noopt.")
  in
  let workload_arg =
    Arg.(
      required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let input_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "input-seed" ] ~doc:"Input-data generator seed (an input).")
  in
  let out_arg =
    Arg.(
      value & opt string "run.rfdj"
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:"Where to write the decision journal.")
  in
  let action runtime workload threads scale seed input_seed jitter faults
      failure_mode out =
   Exit_code.guard @@ fun () ->
    let spec =
      {
        Session.workload;
        runtime;
        threads;
        scale;
        input_seed = Int64.of_int input_seed;
        sched_seed = Int64.of_int seed;
        jitter;
        fault_mode = failure_mode;
        faults;
      }
    in
    let s = Session.record ~path:out spec in
    let bytes =
      let ic = open_in_bin out in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> in_channel_length ic)
    in
    Printf.printf "workload:    %s\n" workload.Rfdet_workloads.Workload.name;
    Printf.printf "runtime:     %s\n" (Runner.cli_name runtime);
    print_summary s;
    Printf.printf "journal:     %s (%d bytes, %.1f bytes/decision)\n" out
      bytes
      (if s.Session.s_decisions = 0 then 0.
       else float_of_int bytes /. float_of_int s.Session.s_decisions)
  in
  Cmd.v
    (cmd_info "record"
       ~doc:
         (Printf.sprintf
            "Record a run's arbiter decisions into a minimal binary \
             journal for $(b,rfdet replay).  %s" journal_arg_doc))
    Term.(
      const action $ runtime_arg $ workload_arg $ threads_arg $ scale_arg
      $ seed_arg $ input_seed_arg $ jitter_arg $ fault_plan_arg
      $ fault_mode_arg $ out_arg)

let replay_cmd =
  let journal_pos_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Accept a torn journal (crashed recorder): verify the \
             checksum-valid decision prefix, then deterministically \
             re-execute the remainder from the header's seeds.  Without \
             this flag a torn tail is refused.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Replay the journal N times (use with $(b,--jobs) to spread \
             replays over host domains) and require every replay to \
             agree — a cheap determinism gate on the replayer itself.")
  in
  let profile_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-json" ] ~docv:"FILE"
          ~doc:"Also write the replayed run's profile counters as JSON.")
  in
  let action path recover repeat jobs profile_json =
   Exit_code.guard @@ fun () ->
    if repeat < 1 then
      Exit_code.(fail usage) "--repeat must be >= 1 (got %d)" repeat;
    let jobs = resolve_jobs jobs in
    let replay_once () = Session.replay ~recover ~path () in
    let first =
      match replay_once () with
      | Error e -> Exit_code.replay_error e
      | Ok ok -> ok
    in
    (if repeat > 1 then
       let results =
         Rfdet_par.Par.map_ordered ~jobs:(min jobs repeat)
           (fun _ -> replay_once ())
           (List.init (repeat - 1) Fun.id)
       in
       List.iter
         (function
           | Error e -> Exit_code.replay_error e
           | Ok (ok : Session.ok) ->
             if ok.Session.r_summary <> first.Session.r_summary then
               Exit_code.(fail diverged)
                 "repeated replays disagree (nondeterministic replayer)")
         results);
    let s = first.Session.r_summary in
    let h = first.Session.r_header in
    (match profile_json with
    | None -> ()
    | Some file ->
      write_file file s.Session.s_profile_json;
      Printf.printf "profile json: %s\n" file);
    Printf.printf "workload:    %s\n" h.Trace.workload;
    Printf.printf "runtime:     %s\n" h.Trace.runtime;
    print_summary s;
    Printf.printf "verified:    %d journal decision%s%s\n"
      first.Session.r_verified
      (if first.Session.r_verified = 1 then "" else "s")
      (if first.Session.r_recovered then
         " (torn tail: remainder re-executed from seed)"
       else "");
    if repeat > 1 then
      Printf.printf "repeats:     %d replays, all identical\n" repeat;
    Printf.printf "replay OK%s\n"
      (if first.Session.r_recovered then " (recovered)" else "")
  in
  Cmd.v
    (cmd_info "replay"
       ~doc:
         (Printf.sprintf
            "Reconstruct a full execution from a recorded decision \
             journal and verify it against the journal byte-for-byte.  \
             %s  Contrast with $(b,rfdet check --replay), which \
             follows explicit schedule-choice traces from the model \
             checker; this command verifies the recorded decisions of \
             production-style runs." journal_arg_doc))
    Term.(
      const action $ journal_pos_arg $ recover_arg $ repeat_arg $ jobs_arg
      $ profile_json_arg)

(* --- races ------------------------------------------------------------ *)

let races_cmd =
  let workload_arg =
    Arg.(value & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let journal_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Detect races offline over a recorded decision journal \
             instead of a WORKLOAD.  The header pins everything the \
             happens-before relation depends on, so detection over the \
             journal is complete, not a sample of one interleaving.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Feed the detected race set through the ddmin shrinker and \
             write a minimized, replayable repro trace (see --out); \
             requires $(b,--journal).")
  in
  let out_arg =
    Arg.(
      value & opt string "race-repro.trace"
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:"Where $(b,--shrink) writes the minimized repro trace.")
  in
  let report_races header_opt report =
    Format.printf "%a@." Rfdet_detect.Race_detector.pp_report report;
    match header_opt with
    | Some _ when report.Rfdet_detect.Race_detector.races <> [] ->
      Printf.printf "race digest: %s\n"
        (Rfdet_detect.Race_detector.digest report)
    | _ -> ()
  in
  let action workload threads scale journal shrink out =
   Exit_code.guard @@ fun () ->
    match (journal, workload) with
    | None, None ->
      Exit_code.(fail usage) "races needs a WORKLOAD or --journal FILE"
    | None, Some workload ->
      if shrink then Exit_code.(fail usage) "--shrink requires --journal";
      let cfg =
        { Rfdet_workloads.Workload.threads; scale; input_seed = 42L }
      in
      let report =
        Rfdet_detect.Race_detector.check
          ~main:(workload.Rfdet_workloads.Workload.main cfg)
      in
      report_races None report
    | Some path, _ -> (
      let header =
        match Journal.scan_file path with
        | Error e -> Exit_code.replay_error (Session.E_unreadable e)
        | Ok (Journal.Corrupt { frame; offset; reason }) ->
          Exit_code.replay_error (Session.E_corrupt { frame; offset; reason })
        | Ok (Journal.Torn { header; offset; reason; _ }) ->
          (* detection needs only the (checksum-verified) header, so a
             torn tail is survivable here — but say so out loud *)
          Printf.eprintf
            "rfdet: note: torn journal tail (%s at byte offset %d); the \
             header is intact and race detection needs only the header\n"
            reason offset;
          header
        | Ok (Journal.Complete { header; _ }) -> header
      in
      match Offline.detect header with
      | Error e -> Exit_code.replay_error (Session.E_bad_header e)
      | Ok report ->
        Printf.printf "journal:     %s\n" path;
        Printf.printf "workload:    %s (%d threads, scale %g, runtime %s)\n"
          header.Trace.workload header.Trace.threads header.Trace.scale
          header.Trace.runtime;
        report_races (Some header) report;
        if shrink then begin
          match Offline.minimize_repro header report with
          | Error e -> Exit_code.(fail check_failed) "shrink: %s" e
          | Ok (tr, tries) ->
            Trace.save tr ~path:out;
            Printf.printf "shrink:      %d replays; wrote %s\n" tries out;
            Printf.printf "             replay it with: rfdet check \
                           --replay %s\n" out
        end)
  in
  Cmd.v
    (cmd_info "races"
       ~doc:
         "Run the happens-before race detector over a workload, or \
          offline over a recorded decision journal ($(b,--journal)); \
          $(b,--shrink) auto-minimizes a replayable repro for \
          test/corpus.")
    Term.(
      const action $ workload_arg $ threads_arg $ scale_arg
      $ journal_file_arg $ shrink_arg $ out_arg)

(* --- faults ----------------------------------------------------------- *)

let faults_cmd =
  let runtime_arg =
    Arg.(
      value
      & opt runtime_conv Runner.rfdet_ci
      & info [ "r"; "runtime" ]
          ~doc:"Runtime: pthreads, kendo, dthreads, coredet, rfdet-ci, \
                rfdet-pf or rfdet-noopt.")
  in
  let workload_arg =
    Arg.(
      required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let plan_arg =
    Arg.(
      required
      & opt (some fault_plan_conv) None
      & info [ "fault-plan" ]
          ~doc:"The fault plan to inject on every run (same syntax as \
                $(b,run --fault-plan)).")
  in
  let runs_arg =
    Arg.(
      value & opt int 20
      & info [ "n"; "runs" ] ~doc:"Jittered runs to compare.")
  in
  let jitter_fault_arg =
    Arg.(
      value & opt float 12.0
      & info [ "jitter" ]
          ~doc:"Mean scheduling-noise cycles per operation.")
  in
  let action runtime workload plan threads scale runs jitter jobs =
   Exit_code.guard @@ fun () ->
    let jobs = resolve_jobs jobs in
    let report, crashes =
      (* check_faults rejects wildcard-tid plans under jitter — the
         check would measure the injector's schedule-dependence, not the
         runtime's determinism.  Surface that as a usage error. *)
      try
        Determinism.check_faults ~threads ~scale ~runs ~jitter ~jobs ~plan
          runtime workload
      with Invalid_argument msg -> Exit_code.(fail usage) "%s" msg
    in
    Format.printf "plan:        %a@." Fault_plan.pp plan;
    Format.printf "%a@." Determinism.pp_report report;
    print_crashes crashes;
    if not report.Determinism.deterministic then Exit_code.(exit check_failed)
  in
  Cmd.v
    (cmd_info "faults"
       ~doc:
         "Fault-determinism check: run a workload repeatedly under \
          scheduling jitter with the same injected fault plan and verify \
          that every run — crash outcomes included — produces the same \
          signature.")
    Term.(
      const action $ runtime_arg $ workload_arg $ plan_arg $ threads_arg
      $ scale_arg $ runs_arg $ jitter_fault_arg $ jobs_arg)

(* --- clinic ----------------------------------------------------------- *)

let clinic_cmd =
  let workload_arg =
    Arg.(
      required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let clinic_threads_arg =
    Arg.(value & opt int 3 & info [ "t"; "threads" ] ~doc:"Worker thread count.")
  in
  let max_sites_arg =
    Arg.(
      value & opt int 500
      & info [ "max-sites" ]
          ~doc:"Cap on injection sites (operation indices) probed.")
  in
  let op_class_arg =
    Arg.(
      value
      & opt (enum Rfdet_fault.Fault_plan.op_class_names)
          Rfdet_fault.Fault_plan.Any_op
      & info [ "op-class" ] ~docv:"CLASS"
          ~doc:
            "Count only this operation class when choosing the injection \
             site (e.g. cond, sem, rwlock, deque, lock; default any) — \
             lands the crash inside that primitive's protocol.")
  in
  let action workload threads scale max_sites op_class jobs =
   Exit_code.guard @@ fun () ->
    let jobs = resolve_jobs jobs in
    let s =
      Rfdet_check.Clinic.sweep ~op_class ~threads ~scale ~max_sites ~jobs
        workload
    in
    Format.printf "%a@." Rfdet_check.Clinic.pp_summary s;
    if s.Rfdet_check.Clinic.nondeterministic > 0
       || s.Rfdet_check.Clinic.nonconformant > 0
    then Exit_code.(exit check_failed)
  in
  Cmd.v
    (cmd_info "clinic"
       ~doc:
         "Crash clinic: inject one crash at every operation index of a \
          workload, under both containment and deterministic recovery, \
          across runtimes; verify that no probe hangs, every outcome is \
          deterministic, and RFDet stays DLRC-conformant.")
    Term.(
      const action $ workload_arg $ clinic_threads_arg $ scale_arg
      $ max_sites_arg $ op_class_arg $ jobs_arg)

(* --- bench ------------------------------------------------------------ *)

let bench_cmd =
  let action () =
   Exit_code.guard @@ fun () -> print_string (Bench_record.json ())
  in
  Cmd.v
    (cmd_info "bench"
       ~doc:
         "Print the benchmark record (BENCH_CORE.json) on stdout: output \
          signatures, simulated cycles, time breakdowns and kvserver \
          latency attribution of three end-to-end workloads, the \
          parallel-equals-sequential bit of two sweeps, and the decision \
          journal's size.  Every field is simulated, so the bytes are the \
          same on every host.")
    Term.(const action $ const ())

(* --- check ------------------------------------------------------------ *)

let check_cmd =
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Exhaustive exploration only: enumerate every synchronization \
             interleaving of the micro workloads (skip the sampled \
             configurations).")
  in
  let sample_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample" ] ~docv:"N"
          ~doc:
            "Sampled exploration only: N seeded random schedules per \
             configuration (with a WORKLOAD: N schedules of it).")
  in
  let shrink_flag =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Delta-debug the first failure down to a minimal choice \
             sequence and write it as a replayable trace (see --out).")
  in
  let replay_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a schedule trace file (explicit model-checker choice \
             sequences, e.g. from --shrink or test/corpus) under the \
             oracle and exit.  Contrast with $(b,rfdet replay), which \
             reconstructs recorded production-style runs from minimal \
             decision journals.")
  in
  let bug_arg =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "bug-window" ] ~docv:"LO:HI"
          ~doc:
            "Seed the test-only visibility bug: propagation silently drops \
             slices while the global operation counter is in [LO,HI).  \
             Exploration then runs with pruning off (the bug breaks the \
             commutativity pruning assumes).  For validating that the \
             oracle catches real divergence, and for generating corpus \
             traces; requires a WORKLOAD.")
  in
  let bug_lost_arg =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "bug-lost" ] ~docv:"LO:HI"
          ~doc:
            "Seed the test-only lost-wakeup bug: condvar signals are \
             silently swallowed while the global operation counter is in \
             [LO,HI), as if delivered outside the mutex.  Exploration \
             runs with pruning off, like $(b,--bug-window); requires a \
             WORKLOAD.")
  in
  let out_arg =
    Arg.(
      value & opt string "shrunk.trace"
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:"Where $(b,--shrink) writes the minimized trace.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory of traces to replay (default test/corpus \
             when present).")
  in
  let workload_arg =
    Arg.(value & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let do_replay path =
    match Trace.load ~path with
    | Error e -> Exit_code.(fail usage) "%s: %s" path e
    | Ok tr -> (
      let r = Rfdet_check.Explore.replay ~strict:false tr in
      let h = tr.Trace.header in
      Printf.printf "workload:   %s (%d threads, runtime %s)\n"
        h.Trace.workload h.Trace.threads h.Trace.runtime;
      Printf.printf "choices:    %s\n"
        (String.concat " "
           (List.map string_of_int r.Rfdet_check.Explore.r_choices));
      match r.Rfdet_check.Explore.r_error with
      | None ->
        Printf.printf "replay ok: signature %s\n"
          (Option.value r.Rfdet_check.Explore.r_signature ~default:"-")
      | Some e ->
        Printf.printf "replay FAIL: %s\n" e;
        Exit_code.(exit diverged))
  in
  let do_single wl threads jobs sample bug bug_lost shrinkf out =
    let opts =
      {
        Options.ci with
        Options.bug_drop_window = bug;
        bug_lost_signal = bug_lost;
      }
    in
    let buggy = bug <> None || bug_lost <> None in
    let config = { Rfdet_check.Explore.default_config with threads; opts } in
    let stats =
      match sample with
      | Some n -> Rfdet_check.Explore.sample ~config ~jobs ~seed:2026L ~n wl
      | None ->
        if not buggy then Rfdet_check.Explore.explore ~config wl
        else Rfdet_check.Explore.hunt ~config wl
    in
    Printf.printf "workload:      %s (%d threads)\n"
      wl.Rfdet_workloads.Workload.name threads;
    Printf.printf "schedules:     %d%s\n" stats.Rfdet_check.Explore.schedules
      (if stats.Rfdet_check.Explore.truncated then " (TRUNCATED)" else "");
    Printf.printf "pruned:        %d\n" stats.Rfdet_check.Explore.pruned;
    Printf.printf "choice points: %d (max per schedule)\n"
      stats.Rfdet_check.Explore.deepest;
    (match stats.Rfdet_check.Explore.reference with
    | Some s -> Printf.printf "signature:     %s\n" s
    | None -> ());
    match stats.Rfdet_check.Explore.failures with
    | [] -> Printf.printf "no failures\n"
    | { f_trace; f_reason } :: _ as fs ->
      Printf.printf "failures:      %d\nfirst failure: %s\n" (List.length fs)
        f_reason;
      if shrinkf then begin
        match Rfdet_check.Shrink.shrink ~opts f_trace with
        | None ->
          Printf.printf "shrink: the failure did not reproduce on replay\n"
        | Some { Rfdet_check.Shrink.minimized; reason; tries } ->
          Trace.save minimized ~path:out;
          Printf.printf "shrink:        %d -> %d choices in %d replays\n"
            (List.length f_trace.Trace.choices)
            (List.length minimized.Trace.choices)
            tries;
          Printf.printf "               %s\nwrote %s\n" reason out
      end;
      Exit_code.(exit check_failed)
  in
  let action exhaustive sample shrinkf replay_file bug bug_lost out corpus
      workload threads jobs =
   Exit_code.guard @@ fun () ->
    let jobs = resolve_jobs jobs in
    match (replay_file, workload) with
    | Some path, _ -> do_replay path
    | None, Some wl -> do_single wl threads jobs sample bug bug_lost shrinkf out
    | None, None ->
      if bug <> None || bug_lost <> None then
        Exit_code.(fail usage) "--bug-window/--bug-lost require a WORKLOAD";
      let corpus_dir =
        match corpus with
        | Some d -> Some d
        | None ->
          if Sys.file_exists "test/corpus" && Sys.is_directory "test/corpus"
          then Some "test/corpus"
          else None
      in
      let samples =
        match sample with Some n -> n | None -> if exhaustive then 0 else 200
      in
      let exhaustive = exhaustive || sample = None in
      let s =
        Rfdet_check.Driver.conformance ~exhaustive ~samples ?corpus_dir
          ~progress:print_endline ~jobs ()
      in
      if s.Rfdet_check.Driver.ok then Printf.printf "conformance: ok\n"
      else begin
        Printf.printf "conformance: FAIL\n";
        (match
           List.concat_map
             (fun (_, (st : Rfdet_check.Explore.stats)) ->
               st.Rfdet_check.Explore.failures)
             (s.Rfdet_check.Driver.explored @ s.Rfdet_check.Driver.sampled)
         with
        | { f_trace; f_reason } :: _ ->
          Printf.printf "first failure: %s\n" f_reason;
          if shrinkf then begin
            match Rfdet_check.Shrink.shrink f_trace with
            | Some { Rfdet_check.Shrink.minimized; _ } ->
              Trace.save minimized ~path:out;
              Printf.printf "wrote %s\n" out
            | None -> ()
          end
        | [] -> ());
        Exit_code.(exit check_failed)
      end
  in
  Cmd.v
    (cmd_info "check"
       ~doc:
         "Systematic schedule exploration under the DLRC conformance \
          oracle: enumerate (or sample) synchronization interleavings, \
          cross-check runtimes differentially, and replay the regression \
          corpus.")
    Term.(
      const action $ exhaustive_arg $ sample_arg $ shrink_flag
      $ replay_file_arg $ bug_arg $ bug_lost_arg $ out_arg $ corpus_arg
      $ workload_arg $ threads_arg $ jobs_arg)

(* --- experiment ------------------------------------------------------- *)

let experiment_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some (Arg.enum
           [ ("fig7", `Fig7); ("table1", `Table1); ("fig8", `Fig8);
             ("fig9", `Fig9); ("e1", `E1); ("e6", `E6); ("e7", `E7);
             ("e8", `E8); ("all", `All) ])) None
      & info [] ~docv:"NAME"
          ~doc:"One of: fig7, table1, fig8, fig9, e1, e6, e7, e8, all.")
  in
  let fig7 () =
    let f7 = Experiments.figure7 () in
    print_string (Experiments.render_figure7 f7);
    print_newline ();
    print_string (Experiments.chart_figure7 f7);
    let d, ci, pf = Experiments.figure7_summary f7 in
    Printf.printf
      "\nPaper: RFDet-ci ~1.35x, RFDet-pf ~1.73x, DThreads ~2.5x (worst 10x).\n\
       Here:  RFDet-ci %.2fx, RFDet-pf %.2fx, DThreads %.2fx.\n\
       RFDet-ci speedup over DThreads: %.2fx (paper: ~2x).\n"
      ci pf d (d /. ci)
  in
  let run_one = function
    | `Fig7 -> fig7 ()
    | `Table1 -> print_string (Experiments.render_table1 (Experiments.table1 ()))
    | `Fig8 -> print_string (Experiments.render_figure8 (Experiments.figure8 ()))
    | `Fig9 -> print_string (Experiments.render_figure9 (Experiments.figure9 ()))
    | `E1 ->
      print_string
        (Experiments.render_e1 (Experiments.racey_determinism ~runs_per_config:50 ()))
    | `E6 -> print_string (Experiments.render_e6 (Experiments.ablation_barriers ()))
    | `E7 -> print_string (Experiments.render_e7 (Experiments.ablation_gc ()))
    | `E8 ->
      print_string (Experiments.render_e8 (Experiments.ablation_sensitivity ()))
    | `All -> assert false
  in
  let action name =
   Exit_code.guard @@ fun () ->
    match name with
    | `All ->
      List.iter run_one [ `E1; `Fig7; `Table1; `Fig8; `Fig9; `E6; `E7; `E8 ]
    | x -> run_one x
  in
  Cmd.v
    (cmd_info "experiment" ~doc:"Regenerate a table or figure of the paper.")
    Term.(const action $ name_arg)


(* --- serve ------------------------------------------------------------ *)

let serve_cmd =
  let module Server = Rfdet_server.Server in
  let module Traffic = Rfdet_server.Traffic in
  let runtime_arg =
    Arg.(
      value
      & opt runtime_conv Runner.rfdet_ci
      & info [ "r"; "runtime" ]
          ~doc:"Runtime: pthreads, kendo, dthreads, coredet, rfdet-ci, \
                rfdet-pf or rfdet-noopt.")
  in
  let requests_arg =
    Arg.(
      value
      & opt int Traffic.default.Traffic.requests
      & info [ "n"; "requests" ] ~doc:"Number of requests to generate.")
  in
  let rate_arg =
    Arg.(
      value
      & opt int Traffic.default.Traffic.mean_interarrival
      & info [ "rate" ]
          ~doc:
            "Mean interarrival gap in simulated cycles (smaller = \
             heavier offered load).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int Server.default.Server.workers
      & info [ "workers" ] ~doc:"Worker pool size.")
  in
  let shards_arg =
    Arg.(
      value
      & opt int Server.default.Server.shards
      & info [ "shards" ]
          ~doc:"Shard count (raised to the worker count if below it).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt int Server.default.Server.deadline
      & info [ "deadline" ] ~doc:"Per-request deadline, simulated cycles.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report (counters and latency quantiles) \
                as JSON; with $(b,--sweep), an array with one object \
                per offered load.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Arrival-rate sweep (experiment E12): one line per offered \
             load instead of a single report.")
  in
  let rw_arg =
    Arg.(
      value & flag
      & info [ "rw" ]
          ~doc:
            "Serve the read-heavy rwlock+deque variant (per-shard \
             reader-writer locks, work-stealing get deques) instead of \
             the stripe-mutex server.  Single-report mode only.")
  in
  let mk_params ~requests ~rate ~workers ~shards ~deadline =
    let shards = max shards workers in
    {
      Server.default with
      Server.workers;
      shards;
      deadline;
      traffic =
        {
          Traffic.default with
          Traffic.requests;
          mean_interarrival = rate;
        };
    }
  in
  let run_one runtime ~seed ~input_seed ~faults ~failure_mode p =
    let report = ref None in
    let w =
      {
        Rfdet_workloads.Workload.name = "kvserver";
        suite = "server";
        description = "kvserver with explicit serve parameters";
        main =
          (fun cfg () ->
            report :=
              Some
                (Server.run ~seed:cfg.Rfdet_workloads.Workload.input_seed p));
      }
    in
    let r =
      Runner.run ~threads:p.Server.workers ~sched_seed:(Int64.of_int seed)
        ~input_seed:(Int64.of_int input_seed) ?faults ~failure_mode runtime w
    in
    (r, Option.get !report)
  in
  let run_one_rw runtime ~seed ~input_seed ~faults ~failure_mode
      ~requests ~rate ~workers ~shards ~deadline =
    let module Rwserve = Rfdet_server.Rwserve in
    let shards = max shards workers in
    let p =
      {
        Rwserve.default with
        Rwserve.workers;
        shards;
        deadline;
        traffic =
          { Traffic.default with Traffic.requests; mean_interarrival = rate };
      }
    in
    let report = ref None in
    let w =
      {
        Rfdet_workloads.Workload.name = "kvserver-rw";
        suite = "server";
        description = "rwlock+deque kvserver with explicit serve parameters";
        main =
          (fun cfg () ->
            report :=
              Some
                (Rwserve.run ~seed:cfg.Rfdet_workloads.Workload.input_seed p));
      }
    in
    let r =
      Runner.run ~threads:workers ~sched_seed:(Int64.of_int seed)
        ~input_seed:(Int64.of_int input_seed) ?faults ~failure_mode runtime w
    in
    (r, Option.get !report)
  in
  let action runtime requests rate workers shards deadline seed input_seed
      faults failure_mode sweep rw json jobs =
   Exit_code.guard @@ fun () ->
    let jobs = resolve_jobs jobs in
    if rw then begin
      if sweep then Exit_code.(fail usage) "--rw does not support --sweep";
      let r, rep =
        run_one_rw runtime ~seed ~input_seed ~faults ~failure_mode ~requests
          ~rate ~workers ~shards ~deadline
      in
      Printf.printf "runtime         %s\n" r.Runner.runtime;
      Printf.printf "signature       %s\n" r.Runner.signature;
      print_string (Rfdet_server.Rwserve.render rep);
      Printf.printf "engine ops      %10d (%.2fs host)\n" r.Runner.ops
        r.Runner.wall_seconds;
      print_crashes r.Runner.crashes;
      match json with
      | None -> ()
      | Some _ -> Exit_code.(fail usage) "--rw does not support --json"
    end
    else if sweep then begin
      (* compute the whole sweep, then print: rows render in rate order
         whatever order the domains finished in, so the output is
         byte-identical for every --jobs value *)
      let rows =
        Rfdet_server.Sweep.run ~jobs
          ~f:(fun ~rate ->
            let p = mk_params ~requests ~rate ~workers ~shards ~deadline in
            snd (run_one runtime ~seed ~input_seed ~faults ~failure_mode p))
          ()
      in
      Printf.printf "arrival-rate sweep: %d requests, %d workers, %s\n"
        requests workers (Runner.runtime_name runtime);
      print_endline (Rfdet_server.Sweep.render_header ());
      List.iter
        (fun (rate, rep) ->
          print_endline (Rfdet_server.Sweep.render_row ~rate rep))
        rows;
      match json with
      | None -> ()
      | Some path ->
        write_file path (Rfdet_server.Sweep.to_json rows);
        Printf.printf "report json: %s\n" path
    end
    else begin
      let p = mk_params ~requests ~rate ~workers ~shards ~deadline in
      let r, rep = run_one runtime ~seed ~input_seed ~faults ~failure_mode p in
      Printf.printf "runtime         %s\n" r.Runner.runtime;
      Printf.printf "signature       %s\n" r.Runner.signature;
      print_string (Server.render rep);
      Printf.printf "engine ops      %10d (%.2fs host)\n" r.Runner.ops
        r.Runner.wall_seconds;
      print_crashes r.Runner.crashes;
      match json with
      | None -> ()
      | Some path ->
        write_file path (Rfdet_server.Sweep.report_json rep);
        Printf.printf "report json: %s\n" path
    end
  in
  let input_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "input-seed" ]
          ~doc:"Traffic generator seed (an input of the run).")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Drive the deterministic KV server and print its \
          latency/shed/retry report.  Same seed and fault plan give a \
          byte-identical report.")
    Term.(
      const action $ runtime_arg $ requests_arg $ rate_arg $ workers_arg
      $ shards_arg $ deadline_arg $ seed_arg $ input_seed_arg
      $ fault_plan_arg $ fault_mode_arg $ sweep_arg $ rw_arg $ json_arg
      $ jobs_arg)

(* --- spans ------------------------------------------------------------ *)

(* Request-level observability for the KV servers: run with the inert
   sink on, fold the causal trace into per-request span trees, walk each
   tree's critical path (segments must sum bit-exactly to the measured
   latency — a violation fails the command, it is not a warning) and
   print cohort attribution plus top-k exemplars.  Every number below is
   a virtual per-worker cycle, so the whole output — tree renders
   included — is byte-identical across runtimes, --jobs counts and
   repeat runs. *)
let spans_cmd =
  let module Server = Rfdet_server.Server in
  let module Rwserve = Rfdet_server.Rwserve in
  let module Traffic = Rfdet_server.Traffic in
  let requests_arg =
    Arg.(
      value
      & opt int Traffic.default.Traffic.requests
      & info [ "n"; "requests" ] ~doc:"Number of requests to generate.")
  in
  let rate_arg =
    Arg.(
      value
      & opt int Traffic.default.Traffic.mean_interarrival
      & info [ "rate" ]
          ~doc:"Mean interarrival gap in simulated cycles.")
  in
  let workers_arg =
    Arg.(
      value
      & opt int Server.default.Server.workers
      & info [ "workers" ] ~doc:"Worker pool size.")
  in
  let shards_arg =
    Arg.(
      value
      & opt int Server.default.Server.shards
      & info [ "shards" ]
          ~doc:"Shard count (raised to the worker count if below it).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt int Server.default.Server.deadline
      & info [ "deadline" ] ~doc:"Per-request deadline, simulated cycles.")
  in
  let input_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "input-seed" ]
          ~doc:"Traffic generator seed (an input of the run).")
  in
  let rw_arg =
    Arg.(
      value & flag
      & info [ "rw" ]
          ~doc:"Trace the read-heavy rwlock+deque server variant.")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"Exemplars per list (slowest and deepest).")
  in
  let crit_arg =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "Print exemplars as one-line critical-path segment vectors \
             instead of span trees.")
  in
  let pct_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("p50", `P50); ("p99", `P99); ("p999", `P999); ("all", `All) ])
          `All
      & info [ "percentile" ]
          ~doc:
            "Which latency cohort(s) to aggregate: 'p50', 'p99', 'p999' \
             or 'all'.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the sorted attribution document (cohorts plus \
             exemplars with replay coordinates) as JSON.  Byte-identical \
             across runtimes, --jobs counts and repeat runs.")
  in
  let action runtime requests rate workers shards deadline seed input_seed
      faults failure_mode rw top crit pct json ring jobs =
   Exit_code.guard @@ fun () ->
    let jobs = resolve_jobs jobs in
    let shards = max shards workers in
    let obs = Sink.create ~capacity:ring () in
    let report = ref None in
    let w =
      if rw then
        {
          Rfdet_workloads.Workload.name = "kvserver-rw";
          suite = "server";
          description = "rwlock+deque kvserver with spans on";
          main =
            (fun cfg () ->
              let p =
                {
                  Rwserve.default with
                  Rwserve.workers;
                  shards;
                  deadline;
                  traffic =
                    {
                      Traffic.default with
                      Traffic.requests;
                      mean_interarrival = rate;
                    };
                }
              in
              ignore
                (Rwserve.run ~seed:cfg.Rfdet_workloads.Workload.input_seed p));
        }
      else
        {
          Rfdet_workloads.Workload.name = "kvserver";
          suite = "server";
          description = "kvserver with spans on";
          main =
            (fun cfg () ->
              let p =
                {
                  Server.default with
                  Server.workers;
                  shards;
                  deadline;
                  traffic =
                    {
                      Traffic.default with
                      Traffic.requests;
                      mean_interarrival = rate;
                    };
                }
              in
              report :=
                Some
                  (Server.run ~seed:cfg.Rfdet_workloads.Workload.input_seed p));
        }
    in
    let r =
      Runner.run ~threads:workers ~sched_seed:(Int64.of_int seed)
        ~input_seed:(Int64.of_int input_seed) ?faults ~failure_mode ~obs
        runtime w
    in
    ignore !report;
    let events = Sink.events obs in
    let dropped = Sink.dropped obs in
    warn_dropped dropped;
    let spans = Span.collect events in
    let records = spans.Span.complete in
    (* the walk is offline analysis: spread record chunks over host
       domains, order-preserving, so output bytes never depend on N *)
    let chunk xs =
      let n = List.length xs in
      let size = max 1 ((n + (jobs * 4) - 1) / (jobs * 4)) in
      let rec go acc cur k = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | x :: rest ->
          if k = size then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (k + 1) rest
      in
      go [] [] 0 xs
    in
    let walked =
      Rfdet_par.Par.map_ordered ~jobs
        (List.map Critpath.walk)
        (chunk records)
      |> List.concat
    in
    let atts =
      List.map
        (function
          | Ok a -> a
          | Error msg ->
            Exit_code.(fail critical_path)
              "critical-path invariant violated: %s" msg)
        walked
    in
    Printf.printf "runtime         %s\n" r.Runner.runtime;
    Printf.printf "signature       %s\n" r.Runner.signature;
    Printf.printf "variant         %s\n" (if rw then "rw" else "mutex");
    Printf.printf "spanned         %10d requests (%d incomplete"
      (List.length atts) spans.Span.incomplete;
    if dropped > 0 then Printf.printf ", %d events dropped" dropped;
    print_string ")\n";
    Printf.printf "exact-sum       every span tree's segments sum to its \
                   measured latency\n";
    let cohorts = Critpath.cohorts atts in
    let selected =
      match pct with
      | `All -> cohorts
      | `P50 -> List.filter (fun c -> c.Critpath.label = "p50") cohorts
      | `P99 -> List.filter (fun c -> c.Critpath.label = "p99") cohorts
      | `P999 -> List.filter (fun c -> c.Critpath.label = "p999") cohorts
    in
    List.iter
      (fun (c : Critpath.cohort) ->
        Printf.printf
          "\n%-5s cohort: %d requests at latency >= %d (total %d cycles)\n"
          c.Critpath.label c.Critpath.count c.Critpath.threshold
          c.Critpath.total_latency;
        List.iter
          (fun (l, cyc) ->
            let share = List.assoc l c.Critpath.shares_pm in
            Printf.printf "  %-8s %12d cycles  %3d.%d%%\n" l cyc
              (share / 10) (share mod 10))
          c.Critpath.cycles)
      selected;
    let by_req = Hashtbl.create 64 in
    List.iter (fun (rc : Span.record) -> Hashtbl.replace by_req rc.Span.req rc)
      records;
    let print_exemplars title xs =
      Printf.printf "\n%s:\n" title;
      List.iter
        (fun (a : Critpath.attribution) ->
          if crit then Printf.printf "  %s\n" (Critpath.attribution_json a)
          else
            match Hashtbl.find_opt by_req a.Critpath.req with
            | Some rc ->
              let b = Buffer.create 256 in
              Span.render_tree b rc;
              print_string (Buffer.contents b)
            | None -> ())
        xs
    in
    print_exemplars "top slowest" (Critpath.top_slowest top atts);
    print_exemplars "top deepest" (Critpath.top_deepest top atts);
    match json with
    | None -> ()
    | Some path ->
      let meta =
        [
          ("variant", Printf.sprintf "%S" (if rw then "rw" else "mutex"));
          ("seed", string_of_int seed);
          ("input_seed", string_of_int input_seed);
          ("requests", string_of_int requests);
          ("rate", string_of_int rate);
          ("workers", string_of_int workers);
          ("shards", string_of_int shards);
          ("deadline", string_of_int deadline);
          ("incomplete", string_of_int spans.Span.incomplete);
          ("dropped", string_of_int dropped);
        ]
      in
      write_file path (Critpath.json ~meta ~top atts);
      Printf.printf "\nspans json: %s\n" path
  in
  Cmd.v
    (cmd_info "spans"
       ~doc:
         "Run the deterministic KV server with request-level span \
          tracing on and print critical-path latency attribution: \
          per-cohort (p50/p99/p999) segment shares and top-k \
          slowest/deepest exemplar span trees with replay coordinates.  \
          Segment cycles sum bit-exactly to each request's measured \
          latency (a violation fails the command), spans never perturb \
          the run (the signature matches an untraced serve), and the \
          output is \
          byte-identical across runtimes, $(b,--jobs) counts and repeat \
          runs.")
    Term.(
      const action $ runtime_opt_arg $ requests_arg $ rate_arg $ workers_arg
      $ shards_arg $ deadline_arg $ seed_arg $ input_seed_arg
      $ fault_plan_arg $ fault_mode_arg $ rw_arg $ top_arg $ crit_arg
      $ pct_arg $ json_arg $ ring_arg $ jobs_arg)

let () =
  let doc = "RFDet: deterministic multithreading without global barriers" in
  let info = Cmd.info "rfdet" ~version:"1.0.0" ~doc ~exits:Exit_code.infos in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; trace_cmd; profile_cmd; list_cmd; racey_cmd; races_cmd;
            record_cmd; replay_cmd; faults_cmd; clinic_cmd; check_cmd;
            bench_cmd; serve_cmd; spans_cmd; experiment_cmd ]))
