(* Deterministic recovery (ISSUE: robustness).

   The acceptance properties:
   (a) same seed + same fault plan => bit-identical recovered signature;
   (b) for restartable workloads the recovered output checksum equals
       the fault-free run's — the fault is invisible, not just survived;
   (c) lock healing: trylock/lock_timed surface poison and contention
       deterministically, and a heal un-poisons for later acquirers;
   (d) a lock cycle picks a deterministic victim, crashes it through
       the restart path, and the run completes;
   (e) corrupted slice metadata is detected at propagation (quarantine
       + re-derivation from the publisher's space) or by the end-of-run
       audit, and an impossible re-derivation fails loudly. *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Profile = Rfdet_sim.Profile
module Fault_plan = Rfdet_fault.Fault_plan
module Recover = Rfdet_recover.Recover
module Runner = Rfdet_harness.Runner
module Workload = Rfdet_workloads.Workload
module Registry = Rfdet_workloads.Registry

let plan s =
  match Fault_plan.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad test plan %S: %s" s e

let wl name = List.find (fun w -> w.Workload.name = name) Registry.all

let workload name main =
  { Workload.name; suite = "test"; description = name; main = (fun _cfg -> main) }

let run ?(runtime = Runner.rfdet_ci) ?faults ?(threads = 3) w =
  Runner.run ~threads ~sched_seed:1L ?faults ~failure_mode:Engine.Recover
    runtime w

(* --- thread restart ------------------------------------------------- *)

let test_restart_deterministic () =
  let p = plan "crash,tid=1,op=lock,n=2" in
  let a = run ~faults:p (wl "micro-lock") in
  let b = run ~faults:p (wl "micro-lock") in
  Alcotest.(check string) "same signature" a.Runner.signature b.Runner.signature;
  Alcotest.(check int) "restarted" 1 a.Runner.profile.Profile.restarts;
  Alcotest.(check bool) "backoff charged" true
    (a.Runner.profile.Profile.backoff_cycles > 0)

let test_restart_invisible () =
  (* Crash before the thread publishes anything: the replay loses no
     committed work, so the recovered outputs match the fault-free
     run's bit for bit (only the crash record distinguishes them). *)
  let clean = run (wl "micro-lock") in
  List.iter
    (fun s ->
      let r = run ~faults:(plan s) (wl "micro-lock") in
      Alcotest.(check string)
        (s ^ ": recovered outputs")
        clean.Runner.output_checksum r.Runner.output_checksum;
      Alcotest.(check bool) (s ^ ": crash recorded") true
        (r.Runner.crashes <> []);
      Alcotest.(check bool) (s ^ ": signature differs from clean") true
        (r.Runner.signature <> clean.Runner.signature))
    [
      "crash,tid=1,op=lock,n=1";
      "crash,tid=1,op=lock,n=2";
      "crash,tid=2,op=store,n=1";
      "crash,tid=3,op=any,n=1";
    ]

let test_restart_after_barrier () =
  (* micro-barrier checkpoints past the barrier: a post-barrier crash
     replays only the output phase and must not re-arrive. *)
  let clean = run (wl "micro-barrier") in
  let r = run ~faults:(plan "crash,tid=1,op=output,n=1") (wl "micro-barrier") in
  Alcotest.(check int) "restarted" 1 r.Runner.profile.Profile.restarts;
  Alcotest.(check string) "recovered outputs" clean.Runner.output_checksum
    r.Runner.output_checksum

let test_retry_budget_exhausts () =
  (* Crash the same thread on every attempt: once the budget is spent,
     containment applies and the run still terminates deterministically. *)
  let main () =
    let m = Api.mutex_create () in
    let t =
      Api.spawn (fun () ->
          Api.with_lock m (fun () -> Api.tick 100);
          Api.output_int 1)
    in
    (match Api.join_check t with
    | `Ok -> Api.output_int 2
    | `Crashed -> Api.output_int 3)
  in
  let p =
    plan
      "crash,tid=1,op=lock,n=1;crash,tid=1,op=lock,n=2;\
       crash,tid=1,op=lock,n=3;crash,tid=1,op=lock,n=4;\
       crash,tid=1,op=lock,n=5"
  in
  let w = workload "budget" main in
  let a = run ~faults:p w in
  let b = run ~faults:p w in
  Alcotest.(check string) "deterministic" a.Runner.signature b.Runner.signature;
  Alcotest.(check int) "budget bounds restarts"
    Recover.default_config.max_restarts a.Runner.profile.Profile.restarts;
  (* attempt 4 exceeds the budget: containment, and the joiner sees it *)
  Alcotest.(check (list (pair int int64))) "contained after budget"
    [ (0, 3L) ] a.Runner.outputs

let test_kendo_recovers_too () =
  let p = plan "crash,tid=1,op=lock,n=1" in
  let a = run ~runtime:Runner.Kendo ~faults:p (wl "micro-lock") in
  let b = run ~runtime:Runner.Kendo ~faults:p (wl "micro-lock") in
  Alcotest.(check string) "same signature" a.Runner.signature b.Runner.signature;
  Alcotest.(check int) "restarted" 1 a.Runner.profile.Profile.restarts

(* --- lock healing: trylock / lock_timed / heal ----------------------- *)

let test_trylock_semantics () =
  let main () =
    let m = Api.mutex_create () in
    Alcotest.(check bool) "uncontended trylock" true (Api.trylock m = `Ok);
    let t =
      Api.spawn (fun () ->
          (* the owner still holds m: a trylock must not block *)
          (match Api.trylock m with
          | `Busy -> Api.output_int 1
          | `Ok | `Poisoned -> Api.output_int 0);
          ())
    in
    Api.join t;
    Api.unlock m;
    Alcotest.(check bool) "free again" true (Api.trylock m = `Ok);
    Api.unlock m
  in
  let r = run (workload "trylock" main) in
  Alcotest.(check (list (pair int int64))) "busy observed" [ (1, 1L) ]
    r.Runner.outputs

let test_lock_timed_semantics () =
  let main () =
    let m = Api.mutex_create () in
    (match Api.lock_timed m ~timeout:500 with
    | `Ok -> ()
    | `Poisoned | `Timed_out -> Alcotest.fail "uncontended lock_timed");
    let t =
      Api.spawn (fun () ->
          match Api.lock_timed m ~timeout:400 with
          | `Timed_out -> Api.output_int 7
          | `Ok | `Poisoned -> Api.output_int 0)
    in
    (* hold m well past the waiter's icount deadline *)
    Api.tick 5_000;
    Api.join t;
    Api.unlock m
  in
  let a = run (workload "lock-timed" main) in
  let b = run (workload "lock-timed" main) in
  Alcotest.(check (list (pair int int64))) "timeout observed" [ (1, 7L) ]
    a.Runner.outputs;
  Alcotest.(check string) "deterministic" a.Runner.signature b.Runner.signature

let test_heal_unpoisons () =
  (* tid 1 crashes holding m (poisoning it); the next acquirer observes
     the poison, re-establishes the invariant and heals; acquirers after
     the heal see a clean mutex. *)
  let main () =
    let m = Api.mutex_create () in
    let cell = Api.malloc 8 in
    let crasher =
      Api.spawn (fun () ->
          Api.lock m;
          Api.store cell 13;
          Api.tick 200;
          Api.unlock m)
    in
    let healer =
      Api.spawn (fun () ->
          Api.tick 2_000;
          (match Api.lock_check m with
          | `Poisoned ->
            (* invariant repair: reset the protected cell *)
            Api.store cell 0;
            Api.mutex_heal m;
            Api.output_int 1
          | `Ok -> Api.output_int 0);
          Api.unlock m)
    in
    Api.join crasher;
    Api.join healer;
    (match Api.lock_check m with
    | `Ok -> Api.output_int 2
    | `Poisoned -> Api.output_int 3);
    Api.unlock m
  in
  (* crash tid 1 at its store, i.e. while holding m; budget 0 keeps the
     crash contained so the poison is observable *)
  let r =
    Runner.run ~threads:3 ~sched_seed:1L
      ~faults:(plan "crash,tid=1,op=store,n=1")
      ~failure_mode:Engine.Recover
      ~recover_config:{ Recover.default_config with max_restarts = 0 }
      Runner.rfdet_ci (workload "heal" main)
  in
  Alcotest.(check (list (pair int int64))) "healed" [ (0, 2L); (2, 1L) ]
    (List.sort compare r.Runner.outputs);
  Alcotest.(check int) "heal counted" 1 r.Runner.profile.Profile.heals

(* --- deadlock victims ------------------------------------------------ *)

(* AB-BA: with no recovery manager this stalls; under Recover the
   engine's wait-for-graph picks the lowest-(icount, tid) cycle member,
   crashes it through the restart path, and the run completes. *)
let abba_main () =
  let a = Api.mutex_create () in
  let b = Api.mutex_create () in
  let t1 =
    Api.spawn (fun () ->
        ignore (Api.lock_check a);
        Api.tick 300;
        ignore (Api.lock_check b);
        Api.unlock b;
        Api.unlock a;
        Api.output_int 1)
  in
  let t2 =
    Api.spawn (fun () ->
        ignore (Api.lock_check b);
        Api.tick 300;
        ignore (Api.lock_check a);
        Api.unlock a;
        Api.unlock b;
        Api.output_int 2)
  in
  Api.join t1;
  Api.join t2;
  Api.output_int 3

let test_deadlock_victim_recovers () =
  let r1 = run (workload "abba" abba_main) in
  let r2 = run (workload "abba" abba_main) in
  Alcotest.(check string) "deterministic" r1.Runner.signature r2.Runner.signature;
  Alcotest.(check bool) "a victim was taken" true
    (r1.Runner.profile.Profile.deadlock_victims >= 1);
  Alcotest.(check (list (pair int int64))) "all threads completed"
    [ (0, 3L); (1, 1L); (2, 2L) ]
    (List.sort compare r1.Runner.outputs)

(* --- self-verifying metadata ----------------------------------------- *)

(* Writer publishes a write-once word, then idles; reader acquires the
   same lock later and propagates the writer's slice.  Corrupting the
   stored slice between publish and propagation exercises the verify ->
   quarantine -> re-derive path, and the re-derivation succeeds because
   the writer's space still holds the published bytes. *)
let rederive_main () =
  let m = Api.mutex_create () in
  let cell = Api.malloc 8 in
  let writer =
    Api.spawn (fun () ->
        Api.lock m;
        Api.store cell 777;
        Api.unlock m;
        (* corruption is injected at this tick, after the publish *)
        Api.tick 50;
        Api.tick 5_000)
  in
  let reader =
    Api.spawn (fun () ->
        Api.tick 2_000;
        Api.lock m;
        Api.output_int (Api.load cell);
        Api.unlock m)
  in
  Api.join writer;
  Api.join reader

let test_corruption_rederived () =
  let r =
    run ~faults:(plan "corrupt,tid=1,op=compute,n=2")
      (workload "rederive" rederive_main)
  in
  Alcotest.(check bool) "detected" true
    (r.Runner.profile.Profile.corruptions_detected >= 1);
  Alcotest.(check bool) "quarantined" true
    (r.Runner.profile.Profile.quarantines >= 1);
  Alcotest.(check (list (pair int int64))) "value repaired" [ (2, 777L) ]
    r.Runner.outputs

let test_corruption_unrecoverable () =
  (* The writer overwrites the published word before the reader
     propagates: the stored digest can no longer be re-derived from the
     writer's space, so the run must fail loudly, not propagate damage. *)
  let main () =
    let m = Api.mutex_create () in
    let cell = Api.malloc 8 in
    let writer =
      Api.spawn (fun () ->
          Api.lock m;
          Api.store cell 777;
          Api.unlock m;
          Api.tick 50;
          (* private overwrite of the same word, after the corruption *)
          Api.store cell 888;
          Api.tick 5_000)
    in
    let reader =
      Api.spawn (fun () ->
          Api.tick 2_000;
          Api.lock m;
          Api.output_int (Api.load cell);
          Api.unlock m)
    in
    Api.join writer;
    Api.join reader
  in
  match
    run ~faults:(plan "corrupt,tid=1,op=compute,n=2")
      (workload "unrecoverable" main)
  with
  | _ -> Alcotest.fail "expected Engine.Fatal"
  | exception Engine.Fatal (Failure msg) ->
    let prefix = "metadata corruption: slice #" in
    Alcotest.(check string) "diagnostic names the slice" prefix
      (String.sub msg 0 (String.length prefix))
  | exception e ->
    Alcotest.failf "expected Engine.Fatal, got %s" (Printexc.to_string e)

(* The writer's slice reaches [first], which verifies it, and is then
   corrupted before [second] receives it (through [first]'s list), so
   [second]'s application must hash it again and re-derive it from the
   writer's space.  [overwrite] names who stores over the word after the
   publish: when only [first] does, the writer still holds the published
   bytes; when the writer does too, nothing can re-derive the slice. *)
type overwrite = Nobody | First | Writer_and_first

let after_first_application_main ~overwrite () =
  let writer_overwrites = overwrite = Writer_and_first in
  let first_overwrites = overwrite <> Nobody in
  let m = Api.mutex_create () in
  let cell = Api.malloc 8 in
  let writer =
    Api.spawn (fun () ->
        Api.lock m;
        Api.store cell 777;
        Api.unlock m;
        Api.tick 3_000;
        (* the corruption is injected at this tick *)
        Api.tick 50;
        if writer_overwrites then Api.store cell 888;
        Api.tick 10_000)
  in
  let first =
    Api.spawn (fun () ->
        Api.tick 1_000;
        Api.lock m;
        Api.output_int (Api.load cell);
        if first_overwrites then Api.store cell 888;
        Api.unlock m)
  in
  let second =
    Api.spawn (fun () ->
        Api.tick 6_000;
        Api.lock m;
        Api.output_int (Api.load cell);
        Api.unlock m)
  in
  Api.join writer;
  Api.join first;
  Api.join second

let test_corruption_after_first_application () =
  let faults = plan "corrupt,tid=1,op=compute,n=2" in
  let clean =
    run (workload "after-first" (after_first_application_main ~overwrite:Nobody))
  in
  Alcotest.(check int) "clean: nothing detected" 0
    clean.Runner.profile.Profile.corruptions_detected;
  let r =
    run ~faults
      (workload "after-first" (after_first_application_main ~overwrite:Nobody))
  in
  Alcotest.(check int) "caught at the second application" 1
    r.Runner.profile.Profile.quarantines;
  Alcotest.(check int) "detected once" 1
    r.Runner.profile.Profile.corruptions_detected;
  Alcotest.(check (list (pair int int64))) "both readers see the value"
    [ (2, 777L); (3, 777L) ]
    (List.sort compare r.Runner.outputs);
  (* [first] no longer holds 777, but the writer, the slice's publisher,
     does: the slice is re-derived from the writer's space, and [second]
     then applies [first]'s own slice on top. *)
  let r =
    run ~faults
      (workload "after-first-first-overwrote"
         (after_first_application_main ~overwrite:First))
  in
  Alcotest.(check int) "first overwrote: quarantined once" 1
    r.Runner.profile.Profile.quarantines;
  Alcotest.(check (list (pair int int64))) "first overwrote: re-derived"
    [ (2, 777L); (3, 888L) ]
    (List.sort compare r.Runner.outputs);
  match
    run ~faults
      (workload "after-first-overwritten"
         (after_first_application_main ~overwrite:Writer_and_first))
  with
  | _ -> Alcotest.fail "expected Engine.Fatal"
  | exception Engine.Fatal (Failure msg) ->
    let prefix = "metadata corruption: slice #" in
    Alcotest.(check string) "diagnostic names the slice" prefix
      (String.sub msg 0 (String.length prefix))

let test_corruption_audit_at_exit () =
  (* A corrupted slice nobody propagates after the damage is still
     caught by the end-of-run audit. *)
  let r =
    run ~faults:(plan "corrupt,tid=1,op=output,n=1") (wl "micro-barrier")
  in
  Alcotest.(check int) "audit detected" 1
    r.Runner.profile.Profile.corruptions_detected

let test_clean_runs_verify_silently () =
  (* Verification always runs: a fault-free run checks every propagated
     slice and finds nothing. *)
  let a = run (wl "micro-lock") in
  Alcotest.(check int) "no detections" 0
    a.Runner.profile.Profile.corruptions_detected;
  let b =
    Runner.run ~threads:3 ~sched_seed:1L Runner.rfdet_ci (wl "micro-lock")
  in
  Alcotest.(check string) "recover mode alone changes nothing"
    b.Runner.signature a.Runner.signature

(* --- wildcard guard --------------------------------------------------- *)

let test_wildcard_guard () =
  let p = plan "crash,tid=*,op=lock,n=3" in
  Alcotest.check_raises "rejected under jitter"
    (Invalid_argument
       "Determinism.check_faults: fault plan has a wildcard-tid site, which \
        is only deterministic under a jitter-free schedule; qualify the site \
        with tid=K or pass ~jitter:0.")
    (fun () ->
      ignore
        (Rfdet_harness.Determinism.check_faults ~runs:2 ~plan:p
           Runner.rfdet_ci (wl "micro-lock")));
  (* jitter-free wildcard plans stay allowed (a non-crashing action, so
     the runs complete) *)
  let delays = plan "delay=100,tid=*,op=lock,n=3" in
  let report, _ =
    Rfdet_harness.Determinism.check_faults ~runs:2 ~jitter:0. ~plan:delays
      Runner.rfdet_ci (wl "micro-lock")
  in
  Alcotest.(check bool) "jitter-free ok" true
    report.Rfdet_harness.Determinism.deterministic

(* --- the crash clinic ------------------------------------------------- *)

let test_clinic_sweep () =
  let s =
    Rfdet_check.Clinic.sweep ~threads:2 ~max_sites:40 (wl "micro-lock")
  in
  Alcotest.(check int) "no hangs" 0 s.Rfdet_check.Clinic.hangs;
  Alcotest.(check int) "every outcome deterministic" 0
    s.Rfdet_check.Clinic.nondeterministic;
  Alcotest.(check int) "rfdet stays conformant" 0
    s.Rfdet_check.Clinic.nonconformant;
  Alcotest.(check bool) "probed sites" true (s.Rfdet_check.Clinic.sites > 0)

(* --- pinned crash results ------------------------------------------- *)

(* Simulated results of the crash paths, pinned exactly.  The tests
   above check properties (determinism, recovered outputs), so a
   refactor of the crash repair could shift a poisoned hand-off or a
   trace event unnoticed.  The rows crash one site per primitive under
   rfdet-ci and kendo, contained and recovered, at 3 threads (schedule
   seed 1, no jitter); the last row is the AB-BA deadlock victim.  A
   run pins its signature, outputs checksum, crash records, the MD5 of
   [Profile.fields] and the MD5 of its causal trace; a run that ends in
   a deterministic abort pins the exception text. *)
type crash_result =
  | Ran of string * string * (int * string) list * string * string
  | Aborted of string

let pinned_crash_results =
  [
    ( ("rfdet-ci", Engine.Contain, "micro-lock", Some "crash,tid=1,op=lock,n=2"),
      Ran
        ( "18cce238ad9d0df79b654f8e0ba36f89", "207ce699a7ef50795ed06f2329fd3746",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "6912fb749ad0293c0c0ab69a128b5132", "c9ea74093f11585407ca521f742fdfc6" ) );
    ( ("rfdet-ci", Engine.Contain, "micro-rwlock", Some "crash,tid=1,op=rwlock,n=2"),
      Ran
        ( "d559d5888e3e324222da5a7332ae36bd", "204f837f6975fcbccc18697cc78a344f",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "2c7f334b04d4b3255f19a924079366cd", "098aeb05378a326b27bf9046c11db915" ) );
    ( ("rfdet-ci", Engine.Contain, "micro-sem", Some "crash,tid=2,op=sem,n=1"),
      Ran
        ( "0587d98b4d7aa49156c82fc59dc9174b", "09a5557b43186c477a5e3b8e1f44805d",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "0696af85f6982233a1ae251310745923", "b3ff663325ff366ca8226881d6b6f141" ) );
    ( ("rfdet-ci", Engine.Contain, "micro-steal", Some "crash,tid=1,op=deque,n=2"),
      Ran
        ( "927b748ae11a7a2721dcdaeb79ad221c", "68667c689dfa6b6d225ecf4f71cb90fb",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "cb787bbf2c5cdf2c93ad96de4b428a56", "378d03188926cbf39364e85450c6da10" ) );
    ( ("rfdet-ci", Engine.Contain, "micro-barrier", Some "crash,tid=2,op=barrier,n=1"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=24471 icount=96; \
         tid=1 status=blocked clock=12341 icount=95\")" );
    ( ("rfdet-ci", Engine.Contain, "prodcons", Some "crash,tid=1,op=cond,n=2"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=128745 icount=1259; \
         tid=4 status=blocked clock=128155 icount=1522\")" );
    ( ("rfdet-ci", Engine.Contain, "micro-handoff", Some "crash,tid=0,op=join,n=1"),
      Ran
        ( "c19d6367d347ddeb2a4ad5088b222467", "4b76c9b5237a4c35387e97e7aaf34b22",
          [ (0, "Rfdet_sim.Engine.Injected_crash") ],
          "e4a4fc0a666e2c6e15013e1b33a7b4d3", "db5776a2ec947064d02bfde7db93fd14" ) );
    ( ("rfdet-ci", Engine.Contain, "kvserver", Some "crash,tid=1,op=lock,n=5"),
      Ran
        ( "723c98fef81346f96945bf9f75c1acbc", "60280db77465f15def3f2371387b3e67",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "55a2db9883f4de11df83dfed6be56623", "923d403cd9db42d4675d0c1ab32f5d9a" ) );
    ( ("rfdet-ci", Engine.Contain, "kvserver-rw", Some "crash,tid=2,op=rwlock,n=3"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=45034 icount=8824; \
         tid=1 status=blocked clock=345552 icount=10337; \
         tid=3 status=blocked clock=335502 icount=10305\")" );
    ( ("rfdet-ci", Engine.Contain, "micro-lock", Some "crash,tid=2,op=unlock,n=1"),
      Ran
        ( "4b16c6d0a4d75e2b9250ca9a66e30798", "6d0a6b377708b2fb33117079e5ecc1ae",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "986bb58c1dd7747f390fe7153b39e17a", "b66e74e0b766b3849828939f9a7bf5a2" ) );
    ( ("rfdet-ci", Engine.Recover, "micro-lock", Some "crash,tid=1,op=lock,n=2"),
      Ran
        ( "7a17bb7b7a703d9810d6a05ba484a71a", "19407a7ef305d73f27c681c8be190eb0",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "0de832acf197c5a7e5eee218525f30f8", "6356cf357a68f41fa95f9da4045dca8e" ) );
    ( ("rfdet-ci", Engine.Recover, "micro-rwlock", Some "crash,tid=1,op=rwlock,n=2"),
      Ran
        ( "4451afb0fd432c1b633fb87e57dd9954", "8766c1af0d587cf1041ebe41986b4738",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "6a822d002c68ff0bf01b235d3fe34711", "8cdf97dc0dd03a9cf0c3883bc8af9258" ) );
    ( ("rfdet-ci", Engine.Recover, "micro-sem", Some "crash,tid=2,op=sem,n=1"),
      Ran
        ( "6851abfd6ea40d93fef77ba87783825d", "5e10e6451dbb929c07303d8aa36eb4d7",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "22a4f40d835d5fd0c7ee14e0b2a9cc70", "7af741ed50a2b867613ea16af7c7434d" ) );
    ( ("rfdet-ci", Engine.Recover, "micro-steal", Some "crash,tid=1,op=deque,n=2"),
      Ran
        ( "927b748ae11a7a2721dcdaeb79ad221c", "68667c689dfa6b6d225ecf4f71cb90fb",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "dc733ab549b3b64a31f1163f4db5ce94", "a1fe85d71acb57602218cf22a61133e6" ) );
    ( ("rfdet-ci", Engine.Recover, "micro-barrier", Some "crash,tid=2,op=barrier,n=1"),
      Ran
        ( "3131610cde20fdd0bbdac93bc263f2cf", "85ca22f38b25787d5c23761b3a0cce69",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "3292e66692e7a15487e19ad6c4334e72", "6b96c4bc6cf520a904087d7ed262b06f" ) );
    ( ("rfdet-ci", Engine.Recover, "prodcons", Some "crash,tid=1,op=cond,n=2"),
      Ran
        ( "e64d1dce316e942d3badab0b66dc9381", "bbec123a175e91d5228d8b6974996057",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "ba3343142f70cdc71b74351c5ad4c63a", "ea230b48a74106b594305d74b27be4d3" ) );
    ( ("rfdet-ci", Engine.Recover, "micro-handoff", Some "crash,tid=0,op=join,n=1"),
      Ran
        ( "a81f8821559a0a1c3f4f2acb6e6a6ca2", "89c70991a8a407f43fcf8d469b573879",
          [ (0, "Rfdet_sim.Engine.Injected_crash") ],
          "5bc0a4b5737d09ef33dc68b40b44d9f6", "1011f5a5b41cb9766a59badbaf50a391" ) );
    ( ("rfdet-ci", Engine.Recover, "kvserver", Some "crash,tid=1,op=lock,n=5"),
      Ran
        ( "012447d1d7e2790d3eea994d1c329be3", "05f3d8ca2749aa111938459fffc8d54a",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "982e819e1f5fe24828ae241a6de4c821", "0127820be4cfcd30e4099f1b5cf6f511" ) );
    ( ("rfdet-ci", Engine.Recover, "kvserver-rw", Some "crash,tid=2,op=rwlock,n=3"),
      Ran
        ( "94c9681ca280bdfcf8f978c1d35395a8", "6c69872442b140b0d50133ff22e7cbe4",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "505583dc5d1c51880e065bfb91885b65", "85bb17fbb58b104b0d52f4de5da1d129" ) );
    ( ("rfdet-ci", Engine.Recover, "micro-lock", Some "crash,tid=2,op=unlock,n=1"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=42624 icount=192; \
         tid=2 status=blocked clock=39188 icount=211\")" );
    ( ("kendo", Engine.Contain, "micro-lock", Some "crash,tid=1,op=lock,n=2"),
      Ran
        ( "18cce238ad9d0df79b654f8e0ba36f89", "207ce699a7ef50795ed06f2329fd3746",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "46df87caaf09a401f15212de942bb19b", "2a3064a7e40542f6821a2c5ae833b5cb" ) );
    ( ("kendo", Engine.Contain, "micro-rwlock", Some "crash,tid=1,op=rwlock,n=2"),
      Ran
        ( "4451afb0fd432c1b633fb87e57dd9954", "8766c1af0d587cf1041ebe41986b4738",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "e7276f2638915de95edeca307005533e", "6969969ad88b9a2c62e29cdaa08f9b82" ) );
    ( ("kendo", Engine.Contain, "micro-sem", Some "crash,tid=2,op=sem,n=1"),
      Ran
        ( "0587d98b4d7aa49156c82fc59dc9174b", "09a5557b43186c477a5e3b8e1f44805d",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "82527ef2a27a6904cc787f46b892ca20", "91f8384963a3d69a748d3d8cce37288a" ) );
    ( ("kendo", Engine.Contain, "micro-steal", Some "crash,tid=1,op=deque,n=2"),
      Ran
        ( "927b748ae11a7a2721dcdaeb79ad221c", "68667c689dfa6b6d225ecf4f71cb90fb",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "22163bdb47dc67f51f42b1105743bd24", "c15540fad59021b589a5ec4e2a9d88ce" ) );
    ( ("kendo", Engine.Contain, "micro-barrier", Some "crash,tid=2,op=barrier,n=1"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=24272 icount=96; \
         tid=1 status=blocked clock=12212 icount=95\")" );
    ( ("kendo", Engine.Contain, "prodcons", Some "crash,tid=1,op=cond,n=2"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=73886 icount=1250; \
         tid=4 status=blocked clock=67376 icount=1499\")" );
    ( ("kendo", Engine.Contain, "micro-handoff", Some "crash,tid=0,op=join,n=1"),
      Ran
        ( "c19d6367d347ddeb2a4ad5088b222467", "4b76c9b5237a4c35387e97e7aaf34b22",
          [ (0, "Rfdet_sim.Engine.Injected_crash") ],
          "b546bc0188a9e1b657a9c270e49e9740", "33453bd34e4c32dba97903f205fd948e" ) );
    ( ("kendo", Engine.Contain, "kvserver", Some "crash,tid=1,op=lock,n=5"),
      Ran
        ( "723c98fef81346f96945bf9f75c1acbc", "60280db77465f15def3f2371387b3e67",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "6721458fecb72c19794925d304011ed2", "fb72b7af15c3775f80d920971afa2818" ) );
    ( ("kendo", Engine.Contain, "kvserver-rw", Some "crash,tid=2,op=rwlock,n=3"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=45034 icount=8824; \
         tid=1 status=blocked clock=142998 icount=10337; \
         tid=3 status=blocked clock=142015 icount=10305\")" );
    ( ("kendo", Engine.Contain, "micro-lock", Some "crash,tid=2,op=unlock,n=1"),
      Ran
        ( "4b16c6d0a4d75e2b9250ca9a66e30798", "6d0a6b377708b2fb33117079e5ecc1ae",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "c535d4dbe1ead7add264252e02de2be1", "3674b20122102c8111abb26ef0e4101f" ) );
    ( ("kendo", Engine.Recover, "micro-lock", Some "crash,tid=1,op=lock,n=2"),
      Ran
        ( "7a17bb7b7a703d9810d6a05ba484a71a", "19407a7ef305d73f27c681c8be190eb0",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "920913d2f074853e9dfa34e99ad01de0", "8688fb1d7c2ced69f904f019705156fb" ) );
    ( ("kendo", Engine.Recover, "micro-rwlock", Some "crash,tid=1,op=rwlock,n=2"),
      Ran
        ( "4c99e16f4923025817601c770a3c2ff6", "a06db8f0bd966bda397f94368867efc6",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "d2e55ab01039a6e64fb968e32467e081", "5cc40eb36347ceb886fdc6182ab5e1e8" ) );
    ( ("kendo", Engine.Recover, "micro-sem", Some "crash,tid=2,op=sem,n=1"),
      Ran
        ( "6851abfd6ea40d93fef77ba87783825d", "5e10e6451dbb929c07303d8aa36eb4d7",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "b9583d96a5b22023590de6a2927c1bf5", "28a073d9282840867a8a919b3dc1f623" ) );
    ( ("kendo", Engine.Recover, "micro-steal", Some "crash,tid=1,op=deque,n=2"),
      Ran
        ( "927b748ae11a7a2721dcdaeb79ad221c", "68667c689dfa6b6d225ecf4f71cb90fb",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "ee15e6ce10b3966e3b86d76bee1da65f", "c6a055a1928158e11a545ad67b99611d" ) );
    ( ("kendo", Engine.Recover, "micro-barrier", Some "crash,tid=2,op=barrier,n=1"),
      Ran
        ( "3131610cde20fdd0bbdac93bc263f2cf", "85ca22f38b25787d5c23761b3a0cce69",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "f9b14edbbabb290ff0cc78dcb0370e14", "cb6a91892a52ec9c0c7a351cbfc6e181" ) );
    ( ("kendo", Engine.Recover, "prodcons", Some "crash,tid=1,op=cond,n=2"),
      Ran
        ( "514877c3e54a78a28ada15414eeb9ff5", "a3531cc26b978263ccb5fa2d495bedaf",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "9f4183475dc552acf2a3358e17c2575f", "acb26063d3e7976144cdd8aa6a94cc65" ) );
    ( ("kendo", Engine.Recover, "micro-handoff", Some "crash,tid=0,op=join,n=1"),
      Ran
        ( "a81f8821559a0a1c3f4f2acb6e6a6ca2", "89c70991a8a407f43fcf8d469b573879",
          [ (0, "Rfdet_sim.Engine.Injected_crash") ],
          "f78f04fae1d4aaa7d73ca69be9ea9359", "ab54f2ed3d78bc894d22275f2213ab0d" ) );
    ( ("kendo", Engine.Recover, "kvserver", Some "crash,tid=1,op=lock,n=5"),
      Ran
        ( "012447d1d7e2790d3eea994d1c329be3", "05f3d8ca2749aa111938459fffc8d54a",
          [ (1, "Rfdet_sim.Engine.Injected_crash") ],
          "f7fc04f5802c61ddfe48d93d80e359cb", "51d204462e6b9a856cd9f4fbef4fde28" ) );
    ( ("kendo", Engine.Recover, "kvserver-rw", Some "crash,tid=2,op=rwlock,n=3"),
      Ran
        ( "94c9681ca280bdfcf8f978c1d35395a8", "6c69872442b140b0d50133ff22e7cbe4",
          [ (2, "Rfdet_sim.Engine.Injected_crash") ],
          "881c8bf836d709897b2d816b01bef953", "afb004065b665e8f024169b0faa1bc17" ) );
    ( ("kendo", Engine.Recover, "micro-lock", Some "crash,tid=2,op=unlock,n=1"),
      Aborted
        "Rfdet_sim.Engine.Deadlock(\"no runnable thread: tid=0 status=blocked clock=40681 icount=192; \
         tid=2 status=blocked clock=37999 icount=211\")" );
    ( ("rfdet-ci", Engine.Recover, "abba", None),
      Ran
        ( "31b484b78076a13bc8094781fcdfcb4e", "81387ea2c5d04bc0a1275f3269221070",
          [ (1, "Rfdet_recover.Recover.Deadlock_victim") ],
          "db2c6d531de427b025efcf77d0446878", "7c77e7c17f468ee6f52a99148c5435c0" ) );
  ]

let pp_crash_result ppf = function
  | Ran (signature, checksum, crashes, profile, trace) ->
    Format.fprintf ppf "Ran (%s, %s, [%s], %s, %s)" signature checksum
      (String.concat "; "
         (List.map (fun (tid, e) -> Printf.sprintf "%d: %s" tid e) crashes))
      profile trace
  | Aborted text -> Format.fprintf ppf "Aborted %S" text

let test_pinned_crash_results () =
  List.iteri
    (fun i ((rt, mode, name, site), expected) ->
      let runtime = Option.get (Runner.runtime_of_name rt) in
      let w = if name = "abba" then workload "abba" abba_main else wl name in
      let obs = Rfdet_obs.Sink.create () in
      let got =
        match
          Runner.run ~threads:3 ~sched_seed:1L ?faults:(Option.map plan site)
            ~failure_mode:mode ~obs runtime w
        with
        | r ->
          Ran
            ( r.Runner.signature,
              r.Runner.output_checksum,
              r.Runner.crashes,
              Test_harness.profile_digest r.Runner.profile,
              Digest.to_hex
                (Digest.string
                   (Rfdet_obs.Trace.to_lines (Rfdet_obs.Sink.events obs))) )
        | exception e -> Aborted (Printexc.to_string e)
      in
      Alcotest.check
        (Alcotest.testable pp_crash_result ( = ))
        (Printf.sprintf "row %d: %s %s %s" i rt name
           (Option.value site ~default:"no plan"))
        expected got)
    pinned_crash_results

let suites =
  [
    ( "recover",
      [
        Alcotest.test_case "restart deterministic" `Quick
          test_restart_deterministic;
        Alcotest.test_case "restart invisible" `Quick test_restart_invisible;
        Alcotest.test_case "restart after barrier" `Quick
          test_restart_after_barrier;
        Alcotest.test_case "retry budget exhausts" `Quick
          test_retry_budget_exhausts;
        Alcotest.test_case "kendo recovers too" `Quick test_kendo_recovers_too;
        Alcotest.test_case "trylock semantics" `Quick test_trylock_semantics;
        Alcotest.test_case "lock_timed semantics" `Quick
          test_lock_timed_semantics;
        Alcotest.test_case "heal un-poisons" `Quick test_heal_unpoisons;
        Alcotest.test_case "deadlock victim recovers" `Quick
          test_deadlock_victim_recovers;
        Alcotest.test_case "corruption re-derived" `Quick
          test_corruption_rederived;
        Alcotest.test_case "corruption unrecoverable" `Quick
          test_corruption_unrecoverable;
        Alcotest.test_case "corruption after first application" `Quick
          test_corruption_after_first_application;
        Alcotest.test_case "corruption audited at exit" `Quick
          test_corruption_audit_at_exit;
        Alcotest.test_case "clean runs verify silently" `Quick
          test_clean_runs_verify_silently;
        Alcotest.test_case "wildcard guard" `Quick test_wildcard_guard;
        Alcotest.test_case "crash clinic sweep" `Slow test_clinic_sweep;
        Alcotest.test_case "crash results pinned" `Quick
          test_pinned_crash_results;
      ] );
  ]
