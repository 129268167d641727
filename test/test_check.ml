(* The lib/check subsystem: systematic exploration, the DLRC
   conformance oracle, the schedule shrinker, trace replay and the
   regression corpus. *)

module Explore = Rfdet_check.Explore
module Shrink = Rfdet_check.Shrink
module Trace = Rfdet_check.Trace
module Differential = Rfdet_check.Differential
module Oracle = Rfdet_check.Oracle
module Engine = Rfdet_sim.Engine
module Rt = Rfdet_core.Rfdet_runtime
module Options = Rfdet_core.Options
module Registry = Rfdet_workloads.Registry
module Workload = Rfdet_workloads.Workload
module Tstate = Rfdet_core.Tstate
module Slice = Rfdet_core.Slice
module Metadata = Rfdet_core.Metadata
module Vclock = Rfdet_util.Vclock
module Vec = Rfdet_util.Vec
module Diff = Rfdet_mem.Diff

let micro name = Registry.find name

(* --- exhaustive enumeration ------------------------------------------ *)

(* These counts document the full synchronization-interleaving space of
   each micro at 2 threads.  They only change if the workloads or the
   runtime's boundary structure change — in which case updating them
   here is the point of the test. *)
let test_exhaustive_micros () =
  List.iter
    (fun (name, expected) ->
      let s = Explore.explore (micro name) in
      Alcotest.(check (list reject))
        (name ^ ": no failures") []
        (List.map (fun f -> f.Explore.f_reason) s.Explore.failures);
      Alcotest.(check bool) (name ^ ": exhausted") false s.Explore.truncated;
      Alcotest.(check int) (name ^ ": schedule count") expected s.Explore.schedules;
      Alcotest.(check bool)
        (name ^ ": has reference") true
        (s.Explore.reference <> None))
    [
      ("micro-lock", 24);
      ("micro-handoff", 4);
      ("micro-barrier", 4);
      ("micro-atomic", 6);
      ("micro-rwlock", 12);
      ("micro-sem", 12);
      ("micro-steal", 6);
    ]

let test_pruning_sound () =
  (* pruning may only remove redundant schedules: the unpruned search
     agrees on the reference signature and also finds nothing *)
  let wl = micro "micro-lock" in
  let p = Explore.explore wl in
  let u = Explore.hunt wl in
  Alcotest.(check bool) "hunt finds nothing" true (u.Explore.failures = []);
  Alcotest.(check int) "hunt prunes nothing" 0 u.Explore.pruned;
  Alcotest.(check bool)
    "hunt explores at least as much" true
    (u.Explore.schedules >= p.Explore.schedules);
  Alcotest.(check (option string))
    "same reference" p.Explore.reference u.Explore.reference

let test_one_thread_degenerate () =
  (* "1 thread" still means main plus one worker, so a couple of real
     choice points remain (e.g. main reaching join while the worker sits
     at a boundary) — but the space must stay tiny and clean *)
  let config = { Explore.default_config with Explore.threads = 1 } in
  List.iter
    (fun wl ->
      let s = Explore.explore ~config wl in
      Alcotest.(check bool)
        (Printf.sprintf "%s: tiny space (%d)" wl.Workload.name s.Explore.schedules)
        true
        (s.Explore.schedules >= 1 && s.Explore.schedules <= 8);
      Alcotest.(check bool)
        (wl.Workload.name ^ ": exhausted") false s.Explore.truncated;
      Alcotest.(check bool)
        (wl.Workload.name ^ ": clean") true (s.Explore.failures = []))
    Registry.micro

(* --- the oracle against a seeded visibility bug ----------------------- *)

let buggy_opts = { Options.ci with Options.bug_drop_window = Some (20, 26) }

let hunt_buggy () =
  let config = { Explore.default_config with Explore.opts = buggy_opts } in
  Explore.hunt ~config (micro "micro-lock")

let test_oracle_catches_drop_window () =
  let s = hunt_buggy () in
  Alcotest.(check bool) "failures found" true (s.Explore.failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "reason names the oracle" true
        (Astring.String.is_infix ~affix:"oracle" f.Explore.f_reason))
    s.Explore.failures

let test_shrinker_minimizes () =
  let s = hunt_buggy () in
  match s.Explore.failures with
  | [] -> Alcotest.fail "expected the seeded bug to produce failures"
  | f :: _ -> (
    match Shrink.shrink ~opts:buggy_opts f.Explore.f_trace with
    | None -> Alcotest.fail "shrinker lost the failure"
    | Some r ->
      let n = List.length r.Shrink.minimized.Trace.choices in
      Alcotest.(check bool)
        (Printf.sprintf "minimized to %d <= 10 choices" n)
        true (n <= 10);
      (* the minimized trace still reproduces under the buggy options … *)
      let bad = Explore.replay ~strict:false ~opts:buggy_opts r.Shrink.minimized in
      Alcotest.(check bool)
        "still fails under buggy options" true
        (bad.Explore.r_error <> None);
      (* … and replays clean under the options its runtime name denotes *)
      let good = Explore.replay ~strict:false r.Shrink.minimized in
      Alcotest.(check (option string))
        "clean under the correct runtime" None good.Explore.r_error)

(* --- the oracle against a seeded lost wakeup --------------------------- *)

(* The second negative control: [bug_lost_signal] swallows condvar
   signals inside the window, so schedules whose signal lands there
   strand a waiter — the explorer must surface the deadlock. *)
let lost_opts = { Options.ci with Options.bug_lost_signal = Some (1, 100_000) }

let hunt_lost () =
  let config = { Explore.default_config with Explore.opts = lost_opts } in
  Explore.hunt ~config (Registry.find "prodcons")

let test_oracle_catches_lost_signal () =
  let s = hunt_lost () in
  Alcotest.(check bool) "failures found" true (s.Explore.failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "reason names the deadlock" true
        (Astring.String.is_infix ~affix:"deadlock" f.Explore.f_reason))
    s.Explore.failures

let test_lost_signal_shrinks_and_replays () =
  let s = hunt_lost () in
  match s.Explore.failures with
  | [] -> Alcotest.fail "expected the lost-signal bug to produce failures"
  | f :: _ -> (
    match Shrink.shrink ~opts:lost_opts f.Explore.f_trace with
    | None -> Alcotest.fail "shrinker lost the failure"
    | Some r ->
      let n = List.length r.Shrink.minimized.Trace.choices in
      Alcotest.(check bool)
        (Printf.sprintf "minimized to %d <= 10 choices" n)
        true (n <= 10);
      let bad = Explore.replay ~strict:false ~opts:lost_opts r.Shrink.minimized in
      Alcotest.(check bool)
        "still deadlocks under the buggy options" true
        (bad.Explore.r_error <> None);
      let good = Explore.replay ~strict:false r.Shrink.minimized in
      Alcotest.(check (option string))
        "clean under the correct runtime" None good.Explore.r_error)

(* --- one negative control per oracle condition ---------------------------

   The seeded bugs above show that the oracle fires; these pin down
   which of its three conditions fires.  Each control takes the final
   state of a fresh, clean oracle-wrapped micro-rwlock run, breaks exactly
   one condition, and expects a [Divergence] that names it. *)

let oracle_final_state () =
  let rt = ref None in
  let make engine =
    let r, policy = Oracle.wrap_with_state ~opts:Options.ci engine in
    rt := Some r;
    policy
  in
  let wl = micro "micro-rwlock" in
  ignore (Engine.run make ~main:(wl.Workload.main Workload.default_cfg));
  Option.get !rt

(* Main has joined every worker, so its list holds their slices. *)
let main_state rt = Rt.state rt ~tid:0

let fresh_slice rt ~tid ~time =
  let md = Rt.metadata rt in
  Slice.make ~id:(Metadata.fresh_slice_id md) ~tid ~mods:Diff.empty ~time

let test_oracle_clean_final_state () =
  let rt = oracle_final_state () in
  Alcotest.(check bool)
    "main's list is non-empty" true
    (Vec.length (main_state rt).Tstate.slices > 0);
  Oracle.check rt

(* Each control must trip the full rescan, an incremental checker that
   saw the clean state first (so only the change is re-checked), that
   checker again (a standing violation is reported on every check), and
   a fresh one (which rebuilds every thread). *)
let oracle_control ?(stage = ignore) ~condition corrupt () =
  let rt = oracle_final_state () in
  stage rt;
  let seen = Oracle.Incremental.create () in
  Oracle.Incremental.check seen rt;
  corrupt rt;
  List.iter
    (fun (checker, check) ->
      match check rt with
      | () ->
        Alcotest.failf "corrupted state passed the %s (%s)" checker condition
      | exception Oracle.Divergence m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %S" checker m condition)
          true
          (Astring.String.is_infix ~affix:condition m))
    [
      ("full rescan", Oracle.check);
      ("incremental checker", Oracle.Incremental.check seen);
      ("incremental checker, again", Oracle.Incremental.check seen);
      ( "fresh incremental checker",
        Oracle.Incremental.check (Oracle.Incremental.create ()) );
    ]

(* never twice: a slice already in the list, appended again *)
let corrupt_twice rt =
  let ts = main_state rt in
  Tstate.append_slice ts (Vec.get ts.Tstate.slices 0)

(* must-not: a slice stamped at the thread's own time with the thread's
   component ticked, so it does not happen-before that time *)
let corrupt_must_not rt =
  let ts = main_state rt in
  let time = Vclock.copy ts.Tstate.time in
  ignore (Vclock.tick time ts.Tstate.tid);
  Tstate.append_slice ts (fresh_slice rt ~tid:ts.Tstate.tid ~time)

(* must: a live slice with the zero clock, which happens-before every
   thread, held by no list *)
let corrupt_must rt =
  Metadata.add_slice (Rt.metadata rt)
    (fresh_slice rt ~tid:0 ~time:(Vclock.create (Rt.clock_size rt)))

(* must, by a moved clock: [stage] publishes a slice stamped just past
   main's clock, which no thread lists and none is ordered after yet (a
   slice in flight); then main's clock moves past it.  A checker that saw
   the staged state can catch this only by re-checking what it found
   owed to a thread whose clock moved. *)
let stage_must_by_clock rt =
  let ts = main_state rt in
  let time = Vclock.copy ts.Tstate.time in
  ignore (Vclock.tick time ts.Tstate.tid);
  Metadata.add_slice (Rt.metadata rt) (fresh_slice rt ~tid:ts.Tstate.tid ~time)

let corrupt_must_by_clock rt =
  let ts = main_state rt in
  ignore (Vclock.tick ts.Tstate.time ts.Tstate.tid);
  ignore (Vclock.tick ts.Tstate.time ts.Tstate.tid)

(* --- the incremental oracle in lockstep with the full rescan ------------

   [lockstep] runs RFDet with both checkers at the oracle's check points
   (after every step that involved a synchronization op or an exit):
   [Oracle.Incremental.check] on one checker for the whole run, and the
   full [Oracle.check].  They must agree on every verdict and name the
   same condition; the slice a diagnostic names may differ.  [inject]
   may break the state just before a check. *)

let condition_of m =
  List.find_opt
    (fun c -> Astring.String.is_infix ~affix:c m)
    [ "appears twice"; "must-not violated"; "must violated" ]

type log = {
  mutable checks : int;
  mutable caught : string list;  (* diagnostics both checkers raised *)
  mutable disagreements : string list;
}

let new_log () = { checks = 0; caught = []; disagreements = [] }

let verdict f =
  match f () with () -> None | exception Oracle.Divergence m -> Some m

let lockstep ?(inject = fun _ _ -> ()) ~opts log engine =
  let rt, policy = Rt.make_with_state ~opts engine in
  let incremental = Oracle.Incremental.create () in
  let pending = ref false in
  let handle ~tid op =
    if Rfdet_sim.Op.is_sync op then pending := true;
    policy.Engine.handle ~tid op
  in
  let on_thread_exit ~tid =
    pending := true;
    policy.Engine.on_thread_exit ~tid
  in
  let on_step () =
    policy.Engine.on_step ();
    if !pending then begin
      pending := false;
      log.checks <- log.checks + 1;
      inject log.checks rt;
      let full = verdict (fun () -> Oracle.check rt) in
      let incr = verdict (fun () -> Oracle.Incremental.check incremental rt) in
      match (full, incr) with
      | None, None -> ()
      | Some m, Some m' when condition_of m = condition_of m' ->
        log.caught <- m :: log.caught;
        raise (Oracle.Divergence m)
      | _ ->
        let show = Option.value ~default:"pass" in
        log.disagreements <-
          Printf.sprintf "check %d: full rescan %s; incremental %s" log.checks
            (show full) (show incr)
          :: log.disagreements
    end
  in
  (rt, { policy with Engine.handle; on_thread_exit; on_step })

let run_lockstep ?(config = Engine.default_config) ?inject ~opts ~main () =
  let log = new_log () in
  (match
     Engine.run ~config
       (fun engine -> snd (lockstep ?inject ~opts log engine))
       ~main
   with
  | _ -> ()
  | exception
      (Oracle.Divergence _ | Engine.Thread_failure (_, Oracle.Divergence _)) ->
    ());
  log

let agreed label log =
  Alcotest.(check (list string))
    (label ^ ": checkers agree") [] log.disagreements;
  Alcotest.(check bool) (label ^ ": checked") true (log.checks > 0)

(* Explores every schedule of a micro with both checkers in place of the
   oracle: [Explore.hunt] (no sleep sets) with the lockstep policy as
   its hook.  Returns the number of schedules and of schedules in which
   both checkers caught a divergence. *)
let lockstep_explore ?(opts = Options.ci) ~threads name =
  let label = Printf.sprintf "%s t%d %s" name threads (Options.name opts) in
  let logs = ref [] in
  let policy =
    Rfdet_harness.Runner.Rfdet_with
      (fun opts engine ->
        let log = new_log () in
        logs := log :: !logs;
        lockstep ~opts log engine)
  in
  let stats =
    Explore.hunt ~policy
      ~config:{ Explore.default_config with Explore.opts; threads }
      (micro name)
  in
  List.iter (agreed label) !logs;
  Alcotest.(check int)
    (label ^ ": one run per schedule")
    stats.Explore.schedules (List.length !logs);
  let caught = List.filter (fun l -> l.caught <> []) !logs in
  (stats.Explore.schedules, List.length caught)

let test_lockstep_micros () =
  (* pinned schedule counts: without sleep sets, [hunt] runs every
     interleaving of the explorer's choice points *)
  let schedules =
    [
      ("micro-lock", 48); ("micro-handoff", 4); ("micro-barrier", 4);
      ("micro-atomic", 12); ("micro-rwlock", 24); ("micro-sem", 24);
      ("micro-steal", 6);
    ]
  in
  let clean name threads n =
    Alcotest.(check (pair int int))
      (Printf.sprintf "%s t%d: schedules, caught" name threads)
      (n, 0)
      (lockstep_explore ~threads name)
  in
  List.iter
    (fun (wl : Workload.t) -> clean wl.name 2 (List.assoc wl.name schedules))
    Registry.micro;
  clean "micro-rwlock" 3 768;
  (* the seeded visibility bug: both checkers must stop the same runs *)
  let n, caught = lockstep_explore ~opts:buggy_opts ~threads:2 "micro-lock" in
  Alcotest.(check int) "drop window: schedules" 6 n;
  Alcotest.(check bool) "drop window caught" true (caught > 0)

(* Seeded random walks over the same choice points, at 16 threads. *)
let test_lockstep_wide () =
  List.iter
    (fun (name, seed) ->
      let wl = Registry.find name in
      let rng = Random.State.make [| seed |] in
      let choose (sp : Engine.sched_point) =
        if sp.Engine.sp_last_ready && not sp.Engine.sp_last_boundary then
          sp.Engine.sp_last
        else
          let ready = sp.Engine.sp_ready in
          List.nth ready (Random.State.int rng (List.length ready))
      in
      let config = { Engine.default_config with Engine.choose = Some choose } in
      let main =
        wl.Workload.main { Workload.default_cfg with Workload.threads = 16 }
      in
      agreed (name ^ " t16") (run_lockstep ~config ~opts:Options.ci ~main ()))
    [ ("fft", 1); ("prodcons", 2) ]

(* The clinic's Recover sweep: one crash per operation index, restarted
   by the recovery manager, under both checkers. *)
let test_lockstep_clinic () =
  let wl = micro "micro-lock" in
  let main =
    wl.Workload.main { Workload.default_cfg with Workload.threads = 2 }
  in
  let clean = run_lockstep ~opts:Options.ci ~main () in
  agreed "clean run" clean;
  let sites = (Engine.run (Rt.make ~opts:Options.ci) ~main).Engine.ops in
  let restarts = ref 0 in
  for index = 1 to sites do
    let plan =
      [ { Rfdet_fault.Fault_plan.tid = None; op = Rfdet_fault.Fault_plan.Any_op;
          nth = index; action = Rfdet_fault.Fault_plan.Crash } ]
    in
    let config =
      { Engine.default_config with
        Engine.failure_mode = Engine.Recover;
        inject = Some (Rfdet_fault.Fault_plan.injector plan) }
    in
    let log = new_log () in
    let make engine =
      let rt, policy = lockstep ~opts:Options.ci log engine in
      Rfdet_recover.Recover.manage engine ~sync:(Rt.sync rt)
        ~prepare_restart:(Rt.crash_recoverable rt) ~main policy
    in
    (match Engine.run ~config make ~main with
    | r -> restarts := !restarts + r.Engine.profile.restarts
    | exception _ -> ());
    agreed (Printf.sprintf "crash at op %d" index) log;
    Alcotest.(check (list string))
      (Printf.sprintf "crash at op %d: conformant" index) [] log.caught
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d sites restarted %d threads" sites !restarts)
    true (!restarts > 0)

(* The four controls, injected mid-run: both checkers must stop the run
   at the injection and name the broken condition. *)
let test_lockstep_controls () =
  let wl = micro "micro-rwlock" in
  let main = wl.Workload.main Workload.default_cfg in
  let at = 12 in
  let listing rt =
    let found = ref None in
    Rt.iter_states rt ~f:(fun ~tid:_ ts ->
        if Vec.length ts.Tstate.slices > 0 then found := Some ts);
    match !found with
    | Some ts -> ts
    | None -> Alcotest.failf "no thread lists a slice at check %d" at
  in
  List.iter
    (fun (condition, stage, corrupt) ->
      let inject check rt =
        if check = at - 1 then stage rt else if check = at then corrupt rt
      in
      let log = run_lockstep ~inject ~opts:Options.ci ~main () in
      agreed condition log;
      Alcotest.(check int)
        (condition ^ ": stopped at the injection")
        at log.checks;
      match log.caught with
      | [ m ] ->
        Alcotest.(check (option string))
          (condition ^ ": named") (Some condition) (condition_of m)
      | _ ->
        Alcotest.failf "%s: caught %d divergences" condition
          (List.length log.caught))
    [
      ( "appears twice",
        ignore,
        fun rt ->
          let ts = listing rt in
          Tstate.append_slice ts (Vec.get ts.Tstate.slices 0) );
      ("must-not violated", ignore, corrupt_must_not);
      ("must violated", ignore, corrupt_must);
      ("must violated", stage_must_by_clock, corrupt_must_by_clock);
    ]

(* --- sampling --------------------------------------------------------- *)

let test_sampling_deterministic () =
  let wl = micro "micro-lock" in
  let a = Explore.sample ~seed:5L ~n:25 wl in
  let b = Explore.sample ~seed:5L ~n:25 wl in
  Alcotest.(check int) "same schedule count" a.Explore.schedules b.Explore.schedules;
  Alcotest.(check int) "same deepest" a.Explore.deepest b.Explore.deepest;
  Alcotest.(check (option string))
    "same reference" a.Explore.reference b.Explore.reference;
  Alcotest.(check bool) "a clean" true (a.Explore.failures = []);
  Alcotest.(check bool) "b clean" true (b.Explore.failures = [])

(* --- the trace text form ----------------------------------------------- *)

(* [text] with [key]'s line replaced by [key value], or dropped *)
let edit text key value =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = key ->
           Option.map (fun v -> key ^ " " ^ v) value
         | _ -> Some line)
  |> String.concat "\n"

let names label e naming =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S names %S" label e naming)
    true
    (Astring.String.is_infix ~affix:naming e)

let test_trace_roundtrip () =
  (* the full header: a hex-float scale, a fault plan, and comment lines *)
  let t =
    {
      Trace.header =
        {
          (Trace.header_of_spec
             (Explore.spec
                { Explore.default_config with Explore.threads = 3; scale = 0.3 }
                (micro "micro-lock")))
          with
          Trace.input_seed = 99L;
          runtime = "rfdet-pf";
          fault_mode = "recover";
          fault_plan = Some "crash,tid=1,op=lock,n=2";
        };
      choices = [ 1; 0; 2; 2; 1 ];
      expect = Some "deadbeefdeadbeef";
      note = Some "round-trip fixture";
    }
  in
  let text = Trace.to_string t in
  Alcotest.(check bool)
    "scale is a hex float" true
    (Astring.String.is_infix ~affix:"\nscale 0x1.3333333333333p-2\n" text);
  let commented = "# a comment\n" ^ text ^ "  # indented comment\n\n" in
  (match Trace.of_string commented with
  | Ok t' -> Alcotest.(check bool) "round-trips" true (t = t')
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  (* a trace the explorer writes names its runtime as journals do, and
     replays clean *)
  let header =
    Trace.header_of_spec
      (Explore.spec
         { Explore.default_config with Explore.opts = Options.baseline_no_opt }
         (micro "micro-lock"))
  in
  Alcotest.(check string)
    "journal runtime name" "rfdet-noopt" header.Trace.runtime;
  let good =
    Trace.to_string { Trace.header; choices = []; expect = None; note = None }
  in
  let replay_error text =
    match Trace.of_string text with
    | Ok tr -> (Explore.replay tr).Explore.r_error
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check (option string)) "explored trace replays" None
    (replay_error good);
  (* every rejection names its field: in parsing ... *)
  let rejected label text ~naming =
    match Trace.of_string text with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e -> names label e naming
  in
  rejected "garbage" "not a trace" ~naming:"format";
  rejected "missing key" (edit good "threads" None) ~naming:"threads";
  rejected "bad integer" (edit good "threads" (Some "x")) ~naming:"threads";
  rejected "other format" (edit good "format" (Some "2")) ~naming:"format 2";
  rejected "no choices" (edit good "choices" None) ~naming:"choices";
  (* ... or, when the explorer cannot run the header, in replay *)
  let unrunnable label key value ~naming =
    match replay_error (edit good key (Some value)) with
    | None -> Alcotest.failf "%s: replayed" label
    | Some e -> names label e naming
  in
  unrunnable "unknown runtime" "runtime" "rfdet-nope" ~naming:"rfdet-nope";
  unrunnable "not an RFDet runtime" "runtime" "kendo" ~naming:"kendo";
  unrunnable "scheduler seed" "sched-seed" "7" ~naming:"sched-seed";
  unrunnable "jitter" "jitter" "0x1p+0" ~naming:"jitter";
  unrunnable "fault mode" "fault-mode" "contain" ~naming:"fault-mode";
  unrunnable "unknown workload" "workload" "no-such" ~naming:"no-such"

(* --- the regression corpus (satellite: replay on every runtest) ------- *)

(* dune runtest runs in the test directory, where the glob_files dep
   placed the corpus; dune exec may run elsewhere, so fall back to the
   copy next to the executable *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus"
  else Filename.concat (Filename.dirname Sys.executable_name) "corpus"

let test_corpus_replays () =
  let results = Rfdet_check.Driver.replay_corpus corpus_dir in
  Alcotest.(check bool) "corpus is non-empty" true (results <> []);
  List.iter
    (fun (file, err) ->
      Alcotest.(check (option string)) (file ^ ": clean") None err)
    results

(* --- differential spot checks (full suites run under rfdet check) ----- *)

let test_differential_race_free () =
  (* micro-rwlock and micro-steal are the admission-policy-sensitive
     primitives: their observables must still be runtime-agnostic *)
  List.iter
    (fun name ->
      let r = Differential.check (micro name) in
      Alcotest.(check bool) (name ^ " ok") true r.Differential.ok;
      Alcotest.(check bool)
        (name ^ " model agrees") false r.Differential.model_diverged;
      Alcotest.(check bool)
        (name ^ " no disagreement") true
        (r.Differential.disagree = None))
    [ "micro-lock"; "micro-rwlock"; "micro-sem"; "micro-steal" ]

let test_differential_racy_stable () =
  let r =
    Differential.check ~expect_agree:false (Registry.find "racey")
  in
  Alcotest.(check bool) "racey ok" true r.Differential.ok;
  Alcotest.(check (list string)) "all runtimes stable" [] r.Differential.unstable

(* --- the oracle at wide thread counts ----------------------------------

   The explorer reaches 2-3 threads; the epoch form of the Figure-5
   filter matters most where many threads publish into one list.  One
   oracle-wrapped run per (workload, threads, runtime) must raise no
   [Divergence] and print the signature of the same run unwrapped.  After
   each synchronization step the incremental oracle re-checks only the
   list entries, clocks and slices that step changed, plus every list a
   barrier replaced, so these runs cost little more than the plain ones.
   Every workload runs at its full input. *)

let test_oracle_at_scale inputs () =
  List.iter
    (fun (name, threads, scale) ->
      let wl = Registry.find name in
      let cfg = { Workload.default_cfg with Workload.threads; scale } in
      List.iter
        (fun opts ->
          let label = Printf.sprintf "%s t%d %s" name threads (Options.name opts) in
          let run make = Engine.run make ~main:(wl.Workload.main cfg) in
          let plain = run (Rt.make ~opts) in
          match run (fun e -> snd (Oracle.wrap_with_state ~opts e)) with
          | wrapped ->
            Alcotest.(check string)
              (label ^ ": signature unchanged by the oracle")
              (Engine.output_signature plain)
              (Engine.output_signature wrapped)
          | exception
              (Oracle.Divergence m | Engine.Thread_failure (_, Oracle.Divergence m))
            ->
            Alcotest.fail (label ^ ": " ^ m))
        [ Options.ci; Options.pf ])
    inputs

let suites =
  [
    ( "check",
      [
        Alcotest.test_case "exhaustive micros" `Quick test_exhaustive_micros;
        Alcotest.test_case "pruning is sound" `Quick test_pruning_sound;
        Alcotest.test_case "1-thread configs stay tiny and clean" `Quick
          test_one_thread_degenerate;
        Alcotest.test_case "oracle catches drop window" `Quick
          test_oracle_catches_drop_window;
        Alcotest.test_case "shrinker minimizes to <= 10 choices" `Quick
          test_shrinker_minimizes;
        Alcotest.test_case "oracle catches lost signal" `Quick
          test_oracle_catches_lost_signal;
        Alcotest.test_case "lost signal shrinks and replays" `Quick
          test_lost_signal_shrinks_and_replays;
        Alcotest.test_case "sampling is deterministic" `Quick
          test_sampling_deterministic;
        Alcotest.test_case "trace round-trip" `Quick test_trace_roundtrip;
        Alcotest.test_case "corpus replays clean" `Quick test_corpus_replays;
        Alcotest.test_case "differential: race-free" `Quick
          test_differential_race_free;
        Alcotest.test_case "differential: racy but stable" `Quick
          test_differential_racy_stable;
        Alcotest.test_case "oracle at 8-16 threads" `Quick
          (test_oracle_at_scale
             [ ("fft", 16, 1.0); ("prodcons", 16, 1.0); ("ocean", 8, 1.0) ]);
        Alcotest.test_case "oracle passes a clean final state" `Quick
          test_oracle_clean_final_state;
        Alcotest.test_case "oracle control: never twice" `Quick
          (oracle_control ~condition:"appears twice" corrupt_twice);
        Alcotest.test_case "oracle control: must-not" `Quick
          (oracle_control ~condition:"must-not violated" corrupt_must_not);
        Alcotest.test_case "oracle control: must" `Quick
          (oracle_control ~condition:"must violated" corrupt_must);
        Alcotest.test_case "oracle control: must, by a moved clock" `Quick
          (oracle_control ~stage:stage_must_by_clock ~condition:"must violated"
             corrupt_must_by_clock);
        Alcotest.test_case "incremental oracle: lockstep over micros" `Quick
          test_lockstep_micros;
        Alcotest.test_case "incremental oracle: lockstep at 16 threads" `Quick
          test_lockstep_wide;
        Alcotest.test_case "incremental oracle: lockstep over a Recover clinic"
          `Quick test_lockstep_clinic;
        Alcotest.test_case "incremental oracle: controls injected mid-run"
          `Quick test_lockstep_controls;
        Alcotest.test_case "oracle at 16-32 threads" `Quick
          (test_oracle_at_scale [ ("fft", 32, 1.0); ("ocean", 16, 1.0) ]);
      ] );
  ]
