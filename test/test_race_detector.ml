module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Detector = Rfdet_detect.Race_detector
module Registry = Rfdet_workloads.Registry
module Workload = Rfdet_workloads.Workload

let base = Layout.globals_base

(* Run a program to completion under the detector. *)
let detect ~main =
  let make, report = Detector.recorder () in
  ignore (Rfdet_sim.Engine.run make ~main);
  report ()

let test_clean_locked_program () =
  let report =
    detect ~main:(fun () ->
        let m = Api.mutex_create () in
        let body () =
          for _ = 1 to 20 do
            Api.with_lock m (fun () -> Api.store base (Api.load base + 1))
          done
        in
        let t1 = Api.spawn body and t2 = Api.spawn body in
        Api.join t1;
        Api.join t2;
        Api.output_int (Api.load base))
  in
  Alcotest.(check int) "no races" 0 (List.length report.Detector.races);
  Alcotest.(check bool) "accesses checked" true
    (report.Detector.accesses_checked > 0)

let test_write_write_race () =
  let report =
    detect ~main:(fun () ->
        let t1 = Api.spawn (fun () -> Api.store base 1) in
        let t2 = Api.spawn (fun () -> Api.store base 2) in
        Api.join t1;
        Api.join t2)
  in
  Alcotest.(check bool) "ww race found" true
    (List.exists
       (fun r -> r.Detector.kind = Detector.Write_write && r.Detector.addr = base)
       report.Detector.races)

let test_write_read_race () =
  let report =
    detect ~main:(fun () ->
        let writer = Api.spawn (fun () -> Api.store base 1) in
        let reader =
          Api.spawn (fun () ->
              Api.tick 10_000;
              Api.output_int (Api.load base))
        in
        Api.join writer;
        Api.join reader)
  in
  Alcotest.(check bool) "wr race found" true
    (List.exists (fun r -> r.Detector.addr = base) report.Detector.races)

let test_read_write_race () =
  let report =
    detect ~main:(fun () ->
        let reader = Api.spawn (fun () -> Api.output_int (Api.load base)) in
        let writer =
          Api.spawn (fun () ->
              Api.tick 10_000;
              Api.store base 1)
        in
        Api.join reader;
        Api.join writer)
  in
  Alcotest.(check bool) "rw race found" true
    (List.exists
       (fun r -> r.Detector.kind = Detector.Read_write)
       report.Detector.races)

let test_fork_join_edges () =
  (* parent write -> child read and child write -> joiner read are
     ordered: no race *)
  let report =
    detect ~main:(fun () ->
        Api.store base 1;
        let c =
          Api.spawn (fun () ->
              Api.output_int (Api.load base);
              Api.store (base + 8) 2)
        in
        Api.join c;
        Api.output_int (Api.load (base + 8)))
  in
  Alcotest.(check int) "no races across fork/join" 0
    (List.length report.Detector.races)

let test_atomics_are_synchronization () =
  (* message passing through an atomic flag: the plain data accesses are
     ordered by the release/acquire pair, so no race *)
  let report =
    detect ~main:(fun () ->
        let data = base and flag = base + 128 in
        let producer =
          Api.spawn (fun () ->
              Api.store data 7;
              Api.atomic_store flag 1)
        in
        let consumer =
          Api.spawn (fun () ->
              while Api.atomic_load flag = 0 do
                Api.tick 30
              done;
              Api.output_int (Api.load data))
        in
        Api.join producer;
        Api.join consumer)
  in
  Alcotest.(check int) "atomic flag publication is race-free" 0
    (List.length report.Detector.races)

let test_missing_release_detected () =
  (* same shape but a PLAIN flag store: now the data accesses race *)
  let report =
    detect ~main:(fun () ->
        let data = base and flag = base + 128 in
        let producer =
          Api.spawn (fun () ->
              Api.store data 7;
              Api.store flag 1)
        in
        let consumer =
          Api.spawn (fun () ->
              while Api.load flag = 0 do
                Api.tick 30
              done;
              Api.output_int (Api.load data))
        in
        Api.join producer;
        Api.join consumer)
  in
  Alcotest.(check bool) "ad hoc flag synchronization flagged" true
    (List.length report.Detector.races > 0)

let test_racey_is_racy () =
  let racey = Registry.find "racey" in
  let cfg = { Workload.default_cfg with scale = 0.2 } in
  let report = detect ~main:(racey.Workload.main cfg) in
  Alcotest.(check bool) "racey has many racy addresses" true
    (report.Detector.racy_addresses > 5)

let test_benchmarks_race_free () =
  (* the 16 Table-1 workloads are written race-free — verify it *)
  let cfg = { Workload.default_cfg with scale = 0.2 } in
  List.iter
    (fun w ->
      let report = detect ~main:(w.Workload.main cfg) in
      Alcotest.(check int)
        (w.Workload.name ^ " is race-free")
        0 (List.length report.Detector.races))
    Registry.table1

(* One heal op names a mutex, rwlock, semaphore or deque by handle.
   Healing a held write lock, a held permit and a deque must succeed on
   every policy, the race detector and the DLRC reference model
   included. *)
let heal_program () =
  let rw = Api.rwlock_create () in
  let s = Api.sem_create 1 in
  let dq = Api.deque_create () in
  Api.wrlock rw;
  Api.rwlock_heal rw;
  Api.rwunlock rw;
  Api.sem_acquire s;
  Api.sem_heal s;
  Api.sem_post s;
  Api.deque_push dq 7;
  Api.deque_heal dq;
  match Api.deque_pop dq with
  | `Item v -> Api.output_int v
  | `Empty | `Poisoned -> Api.output_int (-1)

let test_heals_on_every_policy () =
  let module Engine = Rfdet_sim.Engine in
  let module Runner = Rfdet_harness.Runner in
  let runner name =
    (name, Runner.make_policy (Option.get (Runner.runtime_of_name name)))
  in
  List.iter
    (fun (name, make) ->
      let r = Engine.run make ~main:heal_program in
      Alcotest.(check (list (pair int int64)))
        (name ^ ": heals succeed") [ (0, 7L) ] r.Engine.outputs)
    [
      runner "pthreads";
      runner "kendo";
      runner "dthreads";
      runner "coredet";
      runner "rfdet-ci";
      ("race-detector", fun engine -> fst (Detector.make engine));
      ("dlrc-model", Rfdet_core.Dlrc_model.make);
    ]

let suites =
  [
    ( "race-detector",
      [
        Alcotest.test_case "locked program clean" `Quick
          test_clean_locked_program;
        Alcotest.test_case "write-write race" `Quick test_write_write_race;
        Alcotest.test_case "write-read race" `Quick test_write_read_race;
        Alcotest.test_case "read-write race" `Quick test_read_write_race;
        Alcotest.test_case "fork/join edges" `Quick test_fork_join_edges;
        Alcotest.test_case "atomics synchronize" `Quick
          test_atomics_are_synchronization;
        Alcotest.test_case "ad hoc flag flagged" `Quick
          test_missing_release_detected;
        Alcotest.test_case "racey is racy" `Quick test_racey_is_racy;
        Alcotest.test_case "heals on every policy" `Quick
          test_heals_on_every_policy;
        Alcotest.test_case "all 16 benchmarks race-free" `Slow
          test_benchmarks_race_free;
      ] );
  ]
