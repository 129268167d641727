module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Fence = Rfdet_baselines.Fence_runtime
module Rfdet = Rfdet_core.Rfdet_runtime
module Options = Rfdet_core.Options

let run ?config main = Engine.run ?config (Fence.make Dthreads) ~main

let with_seed seed = { Engine.default_config with seed; jitter_mean = 10. }

let base = Layout.globals_base

let test_lock_counter () =
  let r =
    run (fun () ->
        let m = Api.mutex_create () in
        let body () =
          for _ = 1 to 20 do
            Api.with_lock m (fun () -> Api.store base (Api.load base + 1))
          done
        in
        let c1 = Api.spawn body and c2 = Api.spawn body in
        Api.join c1;
        Api.join c2;
        Api.output_int (Api.load base))
  in
  Alcotest.(check bool) "counter" true (r.Engine.outputs = [ (0, 40L) ])

let test_isolation_between_fences () =
  (* Writes are invisible to other threads until both sides pass a
     fence; with no synchronization at all the value stays hidden. *)
  let r =
    run (fun () ->
        let c = Api.spawn (fun () -> Api.store base 9) in
        Api.tick 50_000;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "isolated until fence" true
    (List.mem (0, 0L) r.Engine.outputs)

let test_join_commits () =
  let r =
    run (fun () ->
        let c = Api.spawn (fun () -> Api.store base 77) in
        Api.join c;
        Api.output_int (Api.load base))
  in
  Alcotest.(check bool) "child commit visible after join" true
    (List.mem (0, 77L) r.Engine.outputs)

let test_deterministic_across_seeds () =
  let racy () =
    let body k () =
      for i = 1 to 200 do
        let slot = base + (8 * ((i * (k + 2)) mod 6) ) in
        Api.store slot ((Api.load slot * 7) + i);
        Api.tick 9
      done
    in
    let m = Api.mutex_create () in
    let stir k () =
      body k ();
      Api.with_lock m (fun () -> Api.store (base + 64) (Api.load (base + 64) + k))
    in
    let ts = List.init 3 (fun k -> Api.spawn (stir k)) in
    List.iter Api.join ts;
    let s = ref 0 in
    for i = 0 to 8 do
      s := (!s * 31) lxor Api.load (base + (8 * i))
    done;
    Api.output_int !s
  in
  let sig_of seed =
    Engine.output_signature (run ~config:(with_seed seed) racy)
  in
  let s1 = sig_of 1L in
  List.iter
    (fun s -> Alcotest.(check string) "deterministic" s1 (sig_of s))
    [ 2L; 3L; 4L; 5L ]

let test_race_free_agrees_with_rfdet () =
  let program () =
    let m = Api.mutex_create () in
    let body k () =
      for i = 1 to 25 do
        Api.with_lock m (fun () -> Api.store base (Api.load base + (i * k)))
      done
    in
    let ts = List.init 3 (fun k -> Api.spawn (body (k + 1))) in
    List.iter Api.join ts;
    Api.output_int (Api.load base)
  in
  let d = (run program).Engine.outputs in
  let r =
    (Engine.run (Rfdet.make ~opts:Options.default) ~main:program).Engine.outputs
  in
  Alcotest.(check bool) "same race-free result" true (d = r)

let test_fence_imbalance () =
  (* The paper's T2 problem: two threads contend on a lock while a third
     computes without synchronizing.  Under DThreads the lock users stall
     at the fence until the compute thread arrives; under RFDet they
     proceed.  The compute thread's work (300k cycles) must show up in
     the lock users' completion time under DThreads only. *)
  let program () =
    let m = Api.mutex_create () in
    let compute = Api.spawn (fun () -> Api.tick 300_000) in
    let locker () =
      for _ = 1 to 5 do
        Api.with_lock m (fun () -> Api.store base (Api.load base + 1))
      done;
      (* Post-lock work: under DThreads it cannot start until the
         compute thread reaches a fence (its exit, 300k cycles in), so
         it lands after ~700k; under RFDet it overlaps the compute
         thread and finishes around 400k. *)
      Api.tick 400_000
    in
    let l1 = Api.spawn locker and l2 = Api.spawn locker in
    Api.join l1;
    Api.join l2;
    Api.join compute;
    Api.output_int (Api.load base)
  in
  let d = run program in
  let r = Engine.run (Rfdet.make ~opts:Options.default) ~main:program in
  Alcotest.(check bool) "same result" true (d.Engine.outputs = r.Engine.outputs);
  Alcotest.(check bool) "dthreads stalls at global fences" true
    (d.Engine.sim_time > r.Engine.sim_time + 200_000);
  Alcotest.(check bool) "fence count > 0" true
    (d.Engine.profile.Rfdet_sim.Profile.barrier_stalls > 0)

let test_cond_wait_signal () =
  let r =
    run (fun () ->
        let m = Api.mutex_create () in
        let c = Api.cond_create () in
        let consumer =
          Api.spawn (fun () ->
              Api.lock m;
              while Api.load base = 0 do
                Api.cond_wait c m
              done;
              Api.output_int (Api.load base);
              Api.unlock m)
        in
        Api.tick 20_000;
        Api.lock m;
        Api.store base 5;
        Api.cond_signal c;
        Api.unlock m;
        Api.join consumer)
  in
  Alcotest.(check bool) "consumer saw flag" true
    (List.mem (1, 5L) r.Engine.outputs)

let test_barrier () =
  let r =
    run (fun () ->
        let b = Api.barrier_create 2 in
        let c =
          Api.spawn (fun () ->
              Api.store base 3;
              Api.barrier_wait b;
              Api.output_int (Api.load (base + 8)))
        in
        Api.store (base + 8) 4;
        Api.barrier_wait b;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "both sides see commits" true
    (List.mem (0, 3L) r.Engine.outputs && List.mem (1, 4L) r.Engine.outputs)

let test_commit_order_by_tid () =
  (* Two threads racily write the same word, then both pass a fence (a
     barrier).  The last committer in token order (the larger tid) wins
     deterministically. *)
  let r =
    run (fun () ->
        let b = Api.barrier_create 2 in
        let c1 =
          Api.spawn (fun () ->
              Api.store base 111;
              Api.barrier_wait b;
              Api.output_int (Api.load base))
        in
        Api.tick 1000;
        let c2 =
          Api.spawn (fun () ->
              Api.store base 222;
              Api.barrier_wait b;
              Api.output_int (Api.load base))
        in
        Api.join c1;
        Api.join c2)
  in
  List.iter
    (fun (tid, v) ->
      if tid = 1 || tid = 2 then
        Alcotest.(check int64) "larger tid commits last" 222L v)
    r.Engine.outputs

let suites =
  [
    ( "dthreads",
      [
        Alcotest.test_case "lock counter" `Quick test_lock_counter;
        Alcotest.test_case "isolation between fences" `Quick
          test_isolation_between_fences;
        Alcotest.test_case "join commits" `Quick test_join_commits;
        Alcotest.test_case "deterministic across seeds" `Quick
          test_deterministic_across_seeds;
        Alcotest.test_case "race-free agrees with rfdet" `Quick
          test_race_free_agrees_with_rfdet;
        Alcotest.test_case "fence imbalance vs rfdet" `Quick
          test_fence_imbalance;
        Alcotest.test_case "cond wait/signal" `Quick test_cond_wait_signal;
        Alcotest.test_case "barrier" `Quick test_barrier;
        Alcotest.test_case "commit order by tid" `Quick
          test_commit_order_by_tid;
      ] );
  ]
