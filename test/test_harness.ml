(* Harness-level tests: the experiment drivers produce structurally
   sound results with the paper's qualitative shapes, at a reduced scale
   so the suite stays fast. *)

module Experiments = Rfdet_harness.Experiments
module Runner = Rfdet_harness.Runner
module Determinism = Rfdet_harness.Determinism
module Registry = Rfdet_workloads.Registry

let scale = 0.3

let test_runner_basics () =
  let r = Runner.run ~scale Runner.rfdet_ci (Registry.find "fft") in
  Alcotest.(check string) "runtime name" "rfdet-ci" r.Runner.runtime;
  Alcotest.(check string) "workload name" "fft" r.Runner.workload;
  Alcotest.(check bool) "time positive" true (r.Runner.sim_time > 0);
  Alcotest.(check bool) "ops counted" true (r.Runner.ops > 0)

let test_determinism_checker () =
  let racey = Registry.find "racey" in
  let det = Determinism.check ~runs:6 ~scale Runner.rfdet_ci racey in
  Alcotest.(check bool) "rfdet deterministic" true det.Determinism.deterministic;
  let non = Determinism.check ~runs:8 ~scale:1.0 Runner.Pthreads racey in
  Alcotest.(check bool) "pthreads not" false non.Determinism.deterministic

let test_figure7_shapes () =
  let rows = Experiments.figure7 ~scale () in
  Alcotest.(check int) "16 rows" 16 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.f7_workload ^ ": pthreads cycles positive")
        true
        (r.Experiments.f7_pthreads > 0);
      Alcotest.(check bool)
        (r.Experiments.f7_workload ^ ": rfdet-ci <= rfdet-pf")
        true
        (r.Experiments.f7_rfdet_ci <= r.Experiments.f7_rfdet_pf +. 0.05))
    rows;
  let d, ci, pf = Experiments.figure7_summary rows in
  (* the paper's headline shape: ci < pf < dthreads, ci within ~2x of
     pthreads, rfdet-ci ≈ 2x better than dthreads *)
  Alcotest.(check bool) "ci < pf" true (ci < pf);
  Alcotest.(check bool) "pf < dthreads" true (pf < d);
  Alcotest.(check bool) "ci under 2x" true (ci < 2.0);
  Alcotest.(check bool) "rfdet ~2x faster than dthreads" true (d /. ci > 1.5)

let test_table1_consistency () =
  let rows = Experiments.table1 ~scale () in
  List.iter
    (fun r ->
      let name = r.Experiments.t1_workload in
      Alcotest.(check bool) (name ^ ": mem = loads + stores") true
        (r.Experiments.t1_mem
        = r.Experiments.t1_loads + r.Experiments.t1_stores);
      Alcotest.(check bool) (name ^ ": stores-with-copy <= stores") true
        (r.Experiments.t1_stores_with_copy <= r.Experiments.t1_stores);
      Alcotest.(check bool) (name ^ ": rfdet footprint largest") true
        (r.Experiments.t1_rfdet_bytes >= r.Experiments.t1_pthreads_bytes);
      Alcotest.(check bool) (name ^ ": loads dominate stores") true
        (r.Experiments.t1_loads + 1 > 0))
    rows;
  (* ferret is the lock-heaviest; the Phoenix map-reduce rows the least *)
  let locks name =
    (List.find (fun r -> r.Experiments.t1_workload = name) rows)
      .Experiments.t1_locks
  in
  Alcotest.(check bool) "ferret locks >> string_match locks" true
    (locks "ferret" > 100 * locks "string_match")

let test_figure9_shapes () =
  let rows = Experiments.figure9 ~scale () in
  Alcotest.(check int) "7 splash rows" 7 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.f9_workload ^ ": prelock never hurts")
        true
        (r.Experiments.f9_prelock >= 0.97);
      Alcotest.(check bool)
        (r.Experiments.f9_workload ^ ": lazy never hurts")
        true
        (r.Experiments.f9_lazy >= 0.97))
    rows;
  (* at least one app must benefit substantially from each optimization *)
  Alcotest.(check bool) "prelock wins somewhere" true
    (List.exists (fun r -> r.Experiments.f9_prelock > 1.15) rows);
  Alcotest.(check bool) "lazy wins somewhere" true
    (List.exists (fun r -> r.Experiments.f9_lazy > 1.15) rows)

let test_barrier_ablation_shape () =
  let rows = Experiments.ablation_barriers () in
  let find name =
    (List.find (fun r -> r.Experiments.e6_runtime = name) rows)
      .Experiments.e6_normalized
  in
  Alcotest.(check bool) "rfdet near pthreads" true (find "rfdet-ci" < 1.15);
  Alcotest.(check bool) "dthreads pays for the barrier-free thread" true
    (find "dthreads" > 1.3);
  Alcotest.(check bool) "coredet pays for quanta" true (find "coredet" > 1.2)

let test_racey_experiment () =
  let rows = Experiments.racey_determinism ~runs_per_config:5 ~thread_counts:[ 2; 4 ] () in
  Alcotest.(check int) "4 runtimes x 2 thread counts" 8 (List.length rows);
  List.iter
    (fun r ->
      if r.Experiments.e1_runtime <> "pthreads" then
        Alcotest.(check int)
          (r.Experiments.e1_runtime ^ " deterministic")
          1 r.Experiments.e1_distinct)
    rows

let test_renderers_do_not_raise () =
  let _ = Experiments.render_figure7 (Experiments.figure7 ~scale ()) in
  let _ = Experiments.render_table1 (Experiments.table1 ~scale ()) in
  let _ = Experiments.render_figure9 (Experiments.figure9 ~scale ()) in
  let _ = Experiments.render_e6 (Experiments.ablation_barriers ()) in
  let _ =
    Experiments.render_e1
      (Experiments.racey_determinism ~runs_per_config:2 ~thread_counts:[ 2 ] ())
  in
  ()

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "runner basics" `Quick test_runner_basics;
        Alcotest.test_case "determinism checker" `Quick test_determinism_checker;
        Alcotest.test_case "figure 7 shapes" `Quick test_figure7_shapes;
        Alcotest.test_case "table 1 consistency" `Quick test_table1_consistency;
        Alcotest.test_case "figure 9 shapes" `Quick test_figure9_shapes;
        Alcotest.test_case "barrier ablation shape" `Quick
          test_barrier_ablation_shape;
        Alcotest.test_case "racey experiment" `Quick test_racey_experiment;
        Alcotest.test_case "renderers" `Quick test_renderers_do_not_raise;
      ] );
  ]

(* appended *)

let test_sensitivity_ordering () =
  let rows =
    Experiments.ablation_sensitivity ~factors:[ 0.5; 2.0 ] ~scale:0.3 ()
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "ordering holds at %.1fx" r.Experiments.e8_factor)
        true r.Experiments.e8_ordering_holds)
    rows

let test_slice_merging_reduces_slices () =
  (* Merging pays off when a thread stores between two critical sections
     on a lock it last released itself: the acquire-side close is
     skipped, so the in-between stores join the critical section's
     slice.  An uncontended lock makes the effect exact: ~2 slices per
     iteration without merging, ~1 with. *)
  let module Api = Rfdet_sim.Api in
  let module Engine = Rfdet_sim.Engine in
  let base = Rfdet_mem.Layout.globals_base in
  let program () =
    let m = Api.mutex_create () in
    let worker =
      Api.spawn (fun () ->
          for i = 1 to 10 do
            Api.with_lock m (fun () -> Api.store base i);
            Api.store (base + 64) i
          done)
    in
    Api.join worker
  in
  let slices opts =
    (Engine.run (Rfdet_core.Rfdet_runtime.make ~opts) ~main:program)
      .Engine.profile.Rfdet_sim.Profile.slices_created
  in
  let merged = slices Rfdet_core.Options.ci in
  let unmerged = slices { Rfdet_core.Options.ci with slice_merging = false } in
  Alcotest.(check bool)
    (Printf.sprintf "fewer slices with merging (%d < %d)" merged unmerged)
    true
    (merged < unmerged)

let test_prelock_hides_propagation_latency () =
  let w = Registry.find "water-ns" in
  let time opts =
    (Runner.run ~scale:0.4 (Runner.Rfdet opts) w).Runner.sim_time
  in
  let with_prelock = time { Rfdet_core.Options.ci with lazy_writes = false } in
  let without =
    time
      { Rfdet_core.Options.ci with lazy_writes = false; prelock = false }
  in
  Alcotest.(check bool) "prelock does not hurt" true
    (with_prelock <= without + (without / 50))

(* Simulated results of the four baseline runtimes, pinned exactly.
   The other harness tests check only shapes and inequalities, so a
   refactor of the baselines could shift a cycle count unnoticed.  Each
   row is (runtime, workload, threads, sim_time, ops, MD5 of
   [Profile.fields]) for a default run (scale 1, input seed 42,
   schedule seed 1, no jitter). *)
let pinned_baselines =
  [
    ("pthreads", "micro-lock", 2, 29206, 46, "b532b31160deefefdb5b0ade7e1919a4");
    ("pthreads", "micro-lock", 4, 58206, 84, "da3e750517a35c6c8afa5fc514231183");
    ("pthreads", "micro-handoff", 2, 14924, 18, "e528a1f17f17477b8a4dbdb114a92f5c");
    ("pthreads", "micro-handoff", 4, 44482, 50, "08d15b8429d53b96632a82c71574afbe");
    ("pthreads", "micro-barrier", 2, 15175, 14, "b14539b104f2b7a086000226139f96c5");
    ("pthreads", "micro-barrier", 4, 44175, 28, "c6230863b6773ce20c2969dd811390a2");
    ("pthreads", "micro-atomic", 2, 29206, 33, "c280a6a3699a5517edce0c23e1e63c5f");
    ("pthreads", "micro-atomic", 4, 58206, 59, "68c9fd0c5202958a9d8d1db0e1fe15c8");
    ("pthreads", "micro-rwlock", 2, 29206, 44, "2c0d9f1a9a2d9e5f1d162cab09296469");
    ("pthreads", "micro-rwlock", 4, 58206, 80, "71bfb34b64dbdd413e4607a31803b16b");
    ("pthreads", "micro-sem", 2, 29206, 38, "08beceda38370e74558894d29aa21b02");
    ("pthreads", "micro-sem", 4, 58206, 68, "317b93eccd0f45be9db1f6224d5ae651");
    ("pthreads", "micro-steal", 2, 29432, 21, "fa2dee311053e3ef57932ee4c4aedb17");
    ("pthreads", "micro-steal", 4, 58552, 33, "7ef3a2331ada4ac2bf339ee3204d6aff");
    ("pthreads", "prodcons", 4, 87120, 1886, "0ffcdb918bec5b00bc3383752a4e112b");
    ("pthreads", "kvserver-rw", 4, 191090, 21184, "73c631e0fbd9ced1daf3fe75759cd750");
    ("kendo", "micro-lock", 2, 30195, 46, "6cd76d79a5d21f2044adfce8cc813b83");
    ("kendo", "micro-lock", 4, 59618, 84, "83a0ed14e4ebe3acf771113f42535a05");
    ("kendo", "micro-handoff", 2, 15248, 18, "1ebf2fb06b3da5e5a3170dc97d9e927a");
    ("kendo", "micro-handoff", 4, 44896, 50, "a96d71b5d97f8452b423161777edbfca");
    ("kendo", "micro-barrier", 2, 15295, 14, "b14539b104f2b7a086000226139f96c5");
    ("kendo", "micro-barrier", 4, 44535, 28, "8b4b88bc8eeaab1ff2a4e86e1b63bb05");
    ("kendo", "micro-atomic", 2, 30065, 33, "7a1b932aef43a75e2fd096391423294a");
    ("kendo", "micro-atomic", 4, 59242, 59, "f42ceb715f1912e8d799c1fb82981fbf");
    ("kendo", "micro-rwlock", 2, 30193, 44, "88b550ef9bca2cba9c192663a7e8e28f");
    ("kendo", "micro-rwlock", 4, 59677, 80, "28903c5367e948e3e0a71dba5a251e6e");
    ("kendo", "micro-sem", 2, 30011, 38, "3903b6c5016c7b91b5bf0addb2e48817");
    ("kendo", "micro-sem", 4, 59122, 68, "2043b7a9a4c786c2c976e50d4680756b");
    ("kendo", "micro-steal", 2, 30332, 21, "b0dbb7053a19feca7e5f0cb5a9502f9b");
    ("kendo", "micro-steal", 4, 59692, 33, "1f294f3348a2d4f2ce2b0d91cca10536");
    ("kendo", "prodcons", 4, 89422, 1908, "95363911253f0b1c781273b8ce12e3cd");
    ("kendo", "kvserver-rw", 4, 383024, 21184, "52b28f0bda4a8a5b19af0139142ff22e");
    ("dthreads", "micro-lock", 2, 27291, 46, "180247a192c33651d2f3ea029e937b48");
    ("dthreads", "micro-lock", 4, 51833, 84, "590fa6c1ab32883a1c032cff497e3f0d");
    ("dthreads", "micro-handoff", 2, 10358, 16, "f19349a4063afb3d6456147ce637551a");
    ("dthreads", "micro-handoff", 4, 26326, 48, "c2389e820b9aa1ad1491a9cfc91656b0");
    ("dthreads", "micro-barrier", 2, 5601, 14, "acb56a3a28ab20dc1e0396b5fcbe53dd");
    ("dthreads", "micro-barrier", 4, 14133, 28, "b4aefa03a4500c8a11055c68ad065329");
    ("dthreads", "micro-atomic", 2, 14375, 33, "e97eea0236926c4490b7f9989ceb4910");
    ("dthreads", "micro-atomic", 4, 25882, 59, "f4473af5916f5bef2c6a527b7ce3cd68");
    ("dthreads", "micro-rwlock", 2, 21795, 44, "d298dbe47338289ce030747b40769edb");
    ("dthreads", "micro-rwlock", 4, 40123, 80, "44ccd10ac8b15653ec5d1c099965cf7f");
    ("dthreads", "micro-sem", 2, 19873, 38, "1aa54f9201c1996f20d532185f4572ba");
    ("dthreads", "micro-sem", 4, 36917, 68, "6edf86dccba98e0919d43d3f0a8d779b");
    ("dthreads", "micro-steal", 2, 10312, 21, "4c331eec1f1a56afbea1ccfd28915b2d");
    ("dthreads", "micro-steal", 4, 15712, 33, "483c96e40124d28fe17a261fcca8a86f");
    ("dthreads", "prodcons", 4, 650081, 1866, "a19781e7127d95d998f30c54fbb32514");
    ("dthreads", "kvserver-rw", 4, 3620504, 21184, "ebc80e46f3d7f7e08de049648951ac70");
    ("coredet", "micro-lock", 2, 13131, 46, "29fccb346856c5fcbd20dabc52263a5a");
    ("coredet", "micro-lock", 4, 22233, 84, "6f380e6b2299e8cf62dd4e4bd899751e");
    ("coredet", "micro-handoff", 2, 5798, 16, "f28fb3f854841d340244078fa8c28dcb");
    ("coredet", "micro-handoff", 4, 16742, 48, "7ad042d91083138e75132c3cd1f5356f");
    ("coredet", "micro-barrier", 2, 3241, 14, "f341b8a6676bb01ee44e5171255c53bf");
    ("coredet", "micro-barrier", 4, 7053, 28, "92a5d3016e8be44c281a946cac1d9abf");
    ("coredet", "micro-atomic", 2, 9655, 33, "34915efdee03fae892bca546b5ad0730");
    ("coredet", "micro-atomic", 4, 15882, 59, "833b9458bf75e647d1ef8c9ac73dc174");
    ("coredet", "micro-rwlock", 2, 12355, 44, "3b0f06f9b3dee8a2f38973fe6003e511");
    ("coredet", "micro-rwlock", 4, 20123, 80, "609eaf7676e5f0081651b06dde2530f2");
    ("coredet", "micro-sem", 2, 10433, 38, "18305bd8303abaec29aeaeda15aa1fd5");
    ("coredet", "micro-sem", 4, 17237, 68, "3b97704aad2978c19f0c5a05020e0ae6");
    ("coredet", "micro-steal", 2, 10312, 21, "c9976eacf1c9d83f87a238c378ada7fd");
    ("coredet", "micro-steal", 4, 15712, 33, "37092dd53cae8ec9e114dccd89c02883");
    ("coredet", "prodcons", 4, 288881, 1866, "d35794b3db9a84c64b1178078488439e");
    ("coredet", "kvserver-rw", 4, 2811491, 21184, "e0a8ab5d13053380821fa8c29b1e4f61");
  ]

let profile_digest p =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%d" k v)
             (Rfdet_sim.Profile.fields p))))

let test_pinned_baselines () =
  List.iter
    (fun (rt, wl, threads, sim_time, ops, digest) ->
      let runtime = Option.get (Runner.runtime_of_name rt) in
      let r = Runner.run ~threads runtime (Registry.find wl) in
      let what field = Printf.sprintf "%s %s t=%d: %s" rt wl threads field in
      Alcotest.(check int) (what "sim_time") sim_time r.Runner.sim_time;
      Alcotest.(check int) (what "ops") ops r.Runner.ops;
      Alcotest.(check string) (what "profile digest") digest
        (profile_digest r.Runner.profile))
    pinned_baselines

let suites =
  match suites with
  | [ (name, tests) ] ->
    [
      ( name,
        tests
        @ [
            Alcotest.test_case "cost sensitivity ordering" `Quick
              test_sensitivity_ordering;
            Alcotest.test_case "slice merging reduces slices" `Quick
              test_slice_merging_reduces_slices;
            Alcotest.test_case "prelock never hurts" `Quick
              test_prelock_hides_propagation_latency;
            Alcotest.test_case "baseline results pinned" `Quick
              test_pinned_baselines;
          ] );
    ]
  | _ -> suites
