module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Fence = Rfdet_baselines.Fence_runtime

let run ?(quantum = 10_000) ?config main =
  Engine.run ?config (Fence.make (Coredet { quantum })) ~main

let base = Layout.globals_base

let test_basic_counter () =
  let r =
    run (fun () ->
        let m = Api.mutex_create () in
        let body () =
          for _ = 1 to 15 do
            Api.with_lock m (fun () -> Api.store base (Api.load base + 1))
          done
        in
        let c1 = Api.spawn body and c2 = Api.spawn body in
        Api.join c1;
        Api.join c2;
        Api.output_int (Api.load base))
  in
  Alcotest.(check bool) "counter" true (r.Engine.outputs = [ (0, 30L) ])

let test_quantum_preempts_compute () =
  (* A pure-compute thread must be stopped at quantum boundaries: the
     number of global barriers grows with its work / quantum. *)
  let work = 200_000 in
  let r =
    run ~quantum:10_000 (fun () ->
        let c =
          Api.spawn (fun () ->
              for _ = 1 to 20 do
                Api.tick (work / 20)
              done)
        in
        let l =
          Api.spawn (fun () ->
              let m = Api.mutex_create () in
              Api.with_lock m (fun () -> Api.store base 1))
        in
        Api.join c;
        Api.join l)
  in
  Alcotest.(check bool) "many quantum barriers" true
    (r.Engine.profile.Rfdet_sim.Profile.barrier_stalls > 10)

let test_deterministic_across_seeds () =
  let racy () =
    let body k () =
      for i = 1 to 300 do
        let slot = base + (8 * ((i * (k + 2)) mod 5)) in
        Api.store slot ((Api.load slot * 5) + i);
        Api.tick 17
      done
    in
    let ts = List.init 3 (fun k -> Api.spawn (body k)) in
    List.iter Api.join ts;
    let s = ref 0 in
    for i = 0 to 4 do
      s := (!s * 131) lxor Api.load (base + (8 * i))
    done;
    Api.output_int !s
  in
  let sig_of seed =
    let config =
      { Engine.default_config with seed; jitter_mean = 10. }
    in
    Engine.output_signature (run ~config racy)
  in
  let s1 = sig_of 1L in
  List.iter
    (fun s -> Alcotest.(check string) "deterministic" s1 (sig_of s))
    [ 2L; 3L; 4L ]

let test_isolation_within_quantum () =
  (* within a quantum, stores are buffered: invisible to other threads *)
  let r =
    run ~quantum:1_000_000 (fun () ->
        let c = Api.spawn (fun () -> Api.store base 9) in
        Api.tick 50_000;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "buffered store invisible" true
    (List.mem (0, 0L) r.Engine.outputs)

let test_commit_at_quantum_boundary () =
  (* after both threads cross a quantum barrier, buffered stores are
     visible (strong determinism with quanta, unlike DThreads which
     would wait for a sync op) *)
  let r =
    run ~quantum:5_000 (fun () ->
        let c =
          Api.spawn (fun () ->
              Api.store base 7;
              Api.tick 20_000)
        in
        (* cross several quantum barriers worth of compute *)
        Api.tick 20_000;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "store visible after quantum commits" true
    (List.mem (0, 7L) r.Engine.outputs)

let suites =
  [
    ( "coredet",
      [
        Alcotest.test_case "lock counter" `Quick test_basic_counter;
        Alcotest.test_case "quantum preempts compute" `Quick
          test_quantum_preempts_compute;
        Alcotest.test_case "deterministic across seeds" `Quick
          test_deterministic_across_seeds;
        Alcotest.test_case "isolation within quantum" `Quick
          test_isolation_within_quantum;
        Alcotest.test_case "commit at quantum boundary" `Quick
          test_commit_at_quantum_boundary;
      ] );
  ]
