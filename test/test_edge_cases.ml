(* Directed edge cases across the trickier synchronization and memory
   paths, exercised under the strong-DMT runtimes. *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Options = Rfdet_core.Options

let base = Layout.globals_base

let dmt_policies () =
  [
    ("rfdet-ci", Rfdet_core.Rfdet_runtime.make ~opts:Options.ci);
    ("rfdet-pf", Rfdet_core.Rfdet_runtime.make ~opts:Options.pf);
    ("dthreads", Rfdet_baselines.Fence_runtime.(make Dthreads));
    ("coredet", Rfdet_baselines.Fence_runtime.(make coredet));
    ("dlrc-model", Rfdet_core.Dlrc_model.make);
  ]

let run ?(seed = 1L) ?(jitter = 0.) policy main =
  Engine.run
    ~config:{ Engine.default_config with seed; jitter_mean = jitter }
    policy ~main

let for_all_dmt name main expected =
  List.iter
    (fun (label, policy) ->
      let r = run policy main in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s" label name)
        true
        (List.map snd r.Engine.outputs = expected))
    (dmt_policies ())

(* --- nested and overlapping locks ------------------------------------ *)

let test_nested_locks () =
  let main () =
    let m1 = Api.mutex_create () in
    let m2 = Api.mutex_create () in
    let body k () =
      for _ = 1 to 10 do
        Api.with_lock m1 (fun () ->
            Api.with_lock m2 (fun () ->
                Api.store base (Api.load base + k)))
      done
    in
    let a = Api.spawn (body 1) and b = Api.spawn (body 100) in
    Api.join a;
    Api.join b;
    Api.output_int (Api.load base)
  in
  for_all_dmt "nested locks sum" main [ 1010L ]

let test_hand_over_hand () =
  (* lock-coupling through a 4-lock chain *)
  let main () =
    let locks = Array.init 4 (fun _ -> Api.mutex_create ()) in
    let body k () =
      Api.lock locks.(0);
      for i = 0 to 3 do
        Api.store (base + (8 * i)) (Api.load (base + (8 * i)) + k);
        if i < 3 then Api.lock locks.(i + 1);
        Api.unlock locks.(i)
      done
    in
    let a = Api.spawn (body 3) and b = Api.spawn (body 5) in
    Api.join a;
    Api.join b;
    let s = ref 0 in
    for i = 0 to 3 do
      s := !s + Api.load (base + (8 * i))
    done;
    Api.output_int !s
  in
  for_all_dmt "hand-over-hand" main [ 32L ]

(* --- condition variables --------------------------------------------- *)

let test_two_conds_one_mutex () =
  (* bounded buffer of size 1 with separate not_empty/not_full conds *)
  let main () =
    let m = Api.mutex_create () in
    let not_empty = Api.cond_create () in
    let not_full = Api.cond_create () in
    let slot = base and count = base + 8 and sum = base + 16 in
    let items = 25 in
    let producer =
      Api.spawn (fun () ->
          for i = 1 to items do
            Api.lock m;
            while Api.load count = 1 do
              Api.cond_wait not_full m
            done;
            Api.store slot (i * 3);
            Api.store count 1;
            Api.cond_signal not_empty;
            Api.unlock m
          done)
    in
    let consumer =
      Api.spawn (fun () ->
          for _ = 1 to items do
            Api.lock m;
            while Api.load count = 0 do
              Api.cond_wait not_empty m
            done;
            Api.store sum (Api.load sum + Api.load slot);
            Api.store count 0;
            Api.cond_signal not_full;
            Api.unlock m
          done)
    in
    Api.join producer;
    Api.join consumer;
    Api.output_int (Api.load sum)
  in
  let expected = Int64.of_int (3 * 25 * 26 / 2) in
  for_all_dmt "1-slot bounded buffer" main [ expected ]

let test_signal_no_waiter_is_lost () =
  (* pthreads semantics: a signal with no waiter does nothing *)
  let main () =
    let m = Api.mutex_create () in
    let c = Api.cond_create () in
    Api.lock m;
    Api.cond_signal c;
    (* lost *)
    Api.unlock m;
    let waiter =
      Api.spawn (fun () ->
          Api.lock m;
          (* must block until the later signal, not the lost one *)
          while Api.load base = 0 do
            Api.cond_wait c m
          done;
          Api.unlock m;
          Api.output_int 1)
    in
    Api.tick 50_000;
    Api.lock m;
    Api.store base 1;
    Api.cond_signal c;
    Api.unlock m;
    Api.join waiter
  in
  for_all_dmt "lost signal" main [ 1L ]

(* --- barriers ---------------------------------------------------------- *)

let test_barrier_reuse () =
  (* the same barrier used across many rounds (generation handling) *)
  let main () =
    let b = Api.barrier_create 3 in
    let rounds = 8 in
    let body k () =
      for r = 1 to rounds do
        Api.store (base + (8 * k)) ((r * 10) + k);
        Api.barrier_wait b;
        (* read everyone's value for this round *)
        let s =
          Api.load base + Api.load (base + 8) + Api.load (base + 16)
        in
        Api.store (base + 64 + (8 * k)) s;
        Api.barrier_wait b
      done
    in
    let t1 = Api.spawn (body 0) and t2 = Api.spawn (body 1) in
    let t3 = Api.spawn (body 2) in
    Api.join t1;
    Api.join t2;
    Api.join t3;
    for k = 0 to 2 do
      Api.output_int (Api.load (base + 64 + (8 * k)))
    done
  in
  (* final round r=8: values 80, 81, 82 -> each sum 243 *)
  for_all_dmt "barrier reuse" main [ 243L; 243L; 243L ]

(* --- thread trees ------------------------------------------------------ *)

let test_nested_spawn_tree () =
  (* threads spawning threads: memory inheritance and join chains *)
  let main () =
    let leaf k () = Api.store (base + (8 * k)) (k * k) in
    let mid k () =
      let a = Api.spawn (leaf (2 * k)) in
      let b = Api.spawn (leaf ((2 * k) + 1)) in
      Api.join a;
      Api.join b
    in
    let m1 = Api.spawn (mid 1) and m2 = Api.spawn (mid 2) in
    Api.join m1;
    Api.join m2;
    let s = ref 0 in
    for k = 2 to 5 do
      s := !s + Api.load (base + (8 * k))
    done;
    Api.output_int !s
  in
  (* 4 + 9 + 16 + 25 = 54 *)
  for_all_dmt "spawn tree" main [ 54L ]

let test_many_threads () =
  (* a wide fork/join at the vector-clock capacity margin *)
  let main () =
    let n = 40 in
    let tids =
      List.init n (fun k ->
          Api.spawn (fun () -> Api.store (base + (8 * k)) (k + 1)))
    in
    List.iter Api.join tids;
    let s = ref 0 in
    for k = 0 to n - 1 do
      s := !s + Api.load (base + (8 * k))
    done;
    Api.output_int !s
  in
  for_all_dmt "40-thread fan-out" main [ 820L ]

(* --- memory edge cases ------------------------------------------------- *)

let test_cross_page_word_propagation () =
  (* a 64-bit store straddling a page boundary must propagate whole *)
  let main () =
    let addr = base + (4096 - (base mod 4096)) - 3 in
    (* 5 bytes in one page, 3 in the next *)
    let m = Api.mutex_create () in
    let writer =
      Api.spawn (fun () ->
          Api.with_lock m (fun () -> Api.store addr 0x1122334455667788))
    in
    let reader =
      Api.spawn (fun () ->
          Api.tick 100_000;
          Api.with_lock m (fun () -> Api.output_int (Api.load addr)))
    in
    Api.join writer;
    Api.join reader
  in
  for_all_dmt "cross-page word" main [ 0x1122334455667788L ]

let test_malloc_free_recycling_under_isolation () =
  (* free + realloc of the same address across threads, with the
     allocator in shared metadata: no aliasing surprises *)
  let main () =
    let m = Api.mutex_create () in
    let p = Api.malloc 64 in
    Api.with_lock m (fun () -> Api.store p 7);
    let worker =
      Api.spawn (fun () ->
          Api.tick 50_000;
          Api.with_lock m (fun () ->
              Api.output_int (Api.load p);
              Api.free p;
              let q = Api.malloc 64 in
              Api.store q 9;
              Api.output_int (if q = p then 1 else 0)))
    in
    Api.join worker;
    Api.with_lock m (fun () -> Api.output_int (Api.load p))
  in
  (* outputs group by tid: main's (tid 0) final read comes first *)
  for_all_dmt "malloc recycling" main [ 9L; 7L; 1L ]

let test_gc_under_pressure_all_runtimes_agree () =
  (* rfdet with constantly-firing GC still equals the model *)
  let main () =
    let m = Api.mutex_create () in
    let body k () =
      for i = 1 to 60 do
        Api.with_lock m (fun () ->
            Api.store (base + (8 * ((i + k) mod 16))) (i * k))
      done
    in
    let a = Api.spawn (body 1) and b = Api.spawn (body 2) in
    Api.join a;
    Api.join b;
    for i = 0 to 15 do
      Api.output_int (Api.load (base + (8 * i)))
    done
  in
  let tiny =
    { Options.ci with metadata_capacity = 2048; gc_threshold = 0.4 }
  in
  let a = run (Rfdet_core.Rfdet_runtime.make ~opts:tiny) main in
  let b = run Rfdet_core.Dlrc_model.make main in
  Alcotest.(check bool) "gc-pressured rfdet equals model" true
    (a.Engine.outputs = b.Engine.outputs)

(* --- degenerate schedules --------------------------------------------- *)

let test_single_thread_run () =
  (* no spawns at all: sync ops still work with nobody to synchronize
     with, including under the pre-fork monitoring exemption *)
  let main () =
    let m = Api.mutex_create () in
    Api.with_lock m (fun () -> Api.store base 5);
    Api.with_lock m (fun () -> Api.store base (Api.load base * 3));
    Api.output_int (Api.load base)
  in
  for_all_dmt "single-thread run" main [ 15L ]

let test_zero_iteration_workers () =
  (* workers whose loops run zero times: spawn, exit and join with no
     slice content worth propagating *)
  let iterations = 0 in
  let main () =
    let m = Api.mutex_create () in
    let body () =
      for _ = 1 to iterations do
        Api.with_lock m (fun () -> Api.store base (Api.load base + 1))
      done
    in
    let a = Api.spawn body and b = Api.spawn body in
    Api.join a;
    Api.join b;
    Api.output_int (Api.load base)
  in
  for_all_dmt "zero-iteration workers" main [ 0L ]

let test_exit_holding_lock_uncontended () =
  (* a thread exits while holding a lock; nobody contends for it, and
     the exit flush must still publish the store to the joiner *)
  let main () =
    let m = Api.mutex_create () in
    let t =
      Api.spawn (fun () ->
          Api.lock m;
          Api.store base 7)
    in
    Api.join t;
    Api.output_int (Api.load base)
  in
  for_all_dmt "exit holding lock (uncontended)" main [ 7L ]

let test_exit_holding_lock_contended_deadlocks () =
  (* pthreads semantics: the mutex stays locked forever, so a later
     lock attempt deadlocks — identically under every runtime *)
  let main () =
    let m = Api.mutex_create () in
    let t =
      Api.spawn (fun () ->
          Api.lock m;
          Api.store base 7)
    in
    Api.join t;
    Api.lock m;
    Api.output_int (Api.load base)
  in
  List.iter
    (fun (label, policy) ->
      match run policy main with
      | _ -> Alcotest.fail (label ^ ": expected a deadlock")
      | exception Engine.Deadlock _ -> ())
    (dmt_policies ())

let test_micros_one_thread_all_runtimes_agree () =
  (* the exploration micros in their degenerate 1-thread configuration:
     every strongly deterministic runtime must compute the same thing *)
  let module Runner = Rfdet_harness.Runner in
  List.iter
    (fun wl ->
      let sigs =
        List.map
          (fun rt -> (Runner.run ~threads:1 rt wl).Runner.signature)
          [ Runner.rfdet_ci; Runner.rfdet_pf; Runner.Coredet; Runner.Dthreads ]
      in
      match sigs with
      | [] -> ()
      | s0 :: _ ->
        Alcotest.(check bool)
          (wl.Rfdet_workloads.Workload.name ^ ": runtimes agree at 1 thread")
          true
          (List.for_all (String.equal s0) sigs))
    Rfdet_workloads.Registry.micro

(* --- primitive edge schedules (rwlock / sem / deque / condvar) -------- *)

let test_rwlock_writer_preference_mid_batch () =
  (* a reader holds the lock, a writer queues, then a later reader
     arrives: the reader must queue BEHIND the writer (stamp-ordered
     writer preference), so it observes the writer's store *)
  let main () =
    let rw = Api.rwlock_create () in
    let cell = base and early = base + 8 and late = base + 16 in
    let r1 =
      Api.spawn (fun () ->
          Api.tick 10;
          Api.with_rdlock rw (fun () ->
              Api.tick 50_000;
              Api.store early (Api.load cell + 1)))
    in
    let w =
      Api.spawn (fun () ->
          Api.tick 10_000;
          Api.with_wrlock rw (fun () -> Api.store cell 9))
    in
    let r3 =
      Api.spawn (fun () ->
          Api.tick 20_000;
          Api.with_rdlock rw (fun () -> Api.store late (Api.load cell + 1)))
    in
    Api.join r1;
    Api.join w;
    Api.join r3;
    Api.output_int (Api.load early);
    Api.output_int (Api.load late)
  in
  (* early reader saw 0 (+1), late reader queued behind the writer: 9+1 *)
  for_all_dmt "writer preference mid-batch" main [ 1L; 10L ]

let zero_permit_main () =
  (* sem_create 0 as a rendezvous: every acquire blocks until a post
     hands it a permit directly *)
  let s = Api.sem_create 0 in
  let idx = base and log = base + 8 in
  let waiter (gap, id) () =
    Api.tick gap;
    Api.sem_acquire s;
    let i = Api.atomic_fetch_add idx 1 in
    Api.store (log + (8 * i)) id
  in
  let tids =
    List.map (fun g -> Api.spawn (waiter g))
      [ (3000, 30); (1000, 10); (2000, 20) ]
  in
  for _ = 1 to 3 do
    Api.tick 50_000;
    Api.sem_post s
  done;
  List.iter Api.join tids;
  for i = 0 to 2 do
    Api.output_int (Api.load (log + (8 * i)))
  done

let test_zero_permit_sem_rendezvous () =
  (* every runtime serves all three waiters exactly once (conservation);
     the grant ORDER is the runtime's admission policy — dthreads and
     coredet hand out permits in token order, kendo and rfdet by stamp *)
  List.iter
    (fun (label, policy) ->
      let r = run policy zero_permit_main in
      let served =
        List.map (fun (_, v) -> Int64.to_int v) r.Engine.outputs
        |> List.sort compare
      in
      Alcotest.(check (list int))
        (label ^ ": all three served once") [ 10; 20; 30 ] served)
    (dmt_policies ());
  (* stamp-ordered runtimes grant lowest wait stamp first, post by post *)
  List.iter
    (fun (label, policy) ->
      let r = run policy zero_permit_main in
      Alcotest.(check (list (pair int int64)))
        (label ^ ": grants in stamp order")
        [ (0, 10L); (0, 20L); (0, 30L) ]
        r.Engine.outputs)
    [
      ("kendo", Rfdet_baselines.Kendo_runtime.make);
      ("rfdet-ci", Rfdet_core.Rfdet_runtime.make ~opts:Options.ci);
    ]

let test_steal_after_owner_exit_holding_lock () =
  (* the owner dies a NORMAL exit while holding an unrelated mutex; its
     deque is not poisoned, and queued work stays stealable *)
  let main () =
    let m = Api.mutex_create () in
    let dw = base and sum = base + 8 in
    let owner =
      Api.spawn (fun () ->
          let d = Api.deque_create () in
          Api.store dw (d :> int);
          for i = 1 to 4 do
            Api.deque_push d (10 * i)
          done;
          Api.lock m
          (* exit without unlocking *))
    in
    Api.join owner;
    let thief =
      Api.spawn (fun () ->
          let rec go acc =
            match Api.deque_steal () with
            | `Item v -> go (acc + v)
            | `Empty -> acc
          in
          Api.store sum (go 0))
    in
    Api.join thief;
    Api.output_int (Api.load sum)
  in
  for_all_dmt "steal after owner exit" main [ 100L ]

let fault_plan s =
  match Rfdet_fault.Fault_plan.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad test plan %S: %s" s e

(* Three waiters park on one condvar; tid 2 is crashed at its first cond
   operation (the wait itself) and the broadcast races the containment.
   Survivors must wake normally and the outcome must be deterministic. *)
let broadcast_crash_workload =
  {
    Rfdet_workloads.Workload.name = "broadcast-vs-crash";
    suite = "test";
    description = "broadcast racing a crashing waiter";
    main =
      (fun _cfg () ->
        let flag = base and slots = base + 8 in
        let m = Api.mutex_create () in
        let c = Api.cond_create () in
        let waiter k () =
          Api.tick (1000 * k);
          Api.lock m;
          while Api.load flag = 0 do
            Api.cond_wait c m
          done;
          Api.unlock m;
          Api.store (slots + (8 * k)) 1
        in
        let tids = List.map (fun k -> Api.spawn (waiter k)) [ 1; 2; 3 ] in
        Api.tick 50_000;
        Api.lock m;
        Api.store flag 1;
        Api.cond_broadcast c;
        Api.unlock m;
        let crashed =
          List.fold_left
            (fun n t ->
              match Api.join_check t with `Ok -> n | `Crashed -> n + 1)
            0 tids
        in
        Api.output_int crashed;
        for k = 1 to 3 do
          Api.output_int (Api.load (slots + (8 * k)))
        done);
  }

let test_broadcast_racing_crashing_waiter_contained () =
  let module Runner = Rfdet_harness.Runner in
  let faults = fault_plan "crash,tid=2,op=cond,n=1" in
  let r = Runner.run ~faults ~failure_mode:Engine.Contain Runner.rfdet_ci
      broadcast_crash_workload
  in
  Alcotest.(check (list (pair int int64)))
    "one crash, survivors woke"
    [ (0, 1L); (0, 1L); (0, 0L); (0, 1L) ]
    r.Runner.outputs;
  (* and the contained outcome is schedule-deterministic *)
  let d =
    Rfdet_harness.Determinism.check_faults ~threads:3 ~runs:6 ~jitter:0.
      ~plan:faults Runner.rfdet_ci broadcast_crash_workload
  in
  Alcotest.(check bool) "deterministic" true
    (fst d).Rfdet_harness.Determinism.deterministic

let test_broadcast_racing_crashing_waiter_recovered () =
  let module Runner = Rfdet_harness.Runner in
  let faults = fault_plan "crash,tid=2,op=cond,n=1" in
  let r = Runner.run ~faults ~failure_mode:Engine.Recover Runner.rfdet_ci
      broadcast_crash_workload
  in
  Alcotest.(check (list (pair int int64)))
    "restarted waiter completed too"
    [ (0, 0L); (0, 1L); (0, 1L); (0, 1L) ]
    r.Runner.outputs;
  Alcotest.(check bool) "a restart happened" true
    (r.Runner.profile.Rfdet_sim.Profile.restarts >= 1)

let suites =
  [
    ( "edge-cases",
      [
        Alcotest.test_case "nested locks" `Quick test_nested_locks;
        Alcotest.test_case "hand-over-hand locking" `Quick test_hand_over_hand;
        Alcotest.test_case "two conds, one mutex" `Quick
          test_two_conds_one_mutex;
        Alcotest.test_case "lost signal" `Quick test_signal_no_waiter_is_lost;
        Alcotest.test_case "barrier reuse" `Quick test_barrier_reuse;
        Alcotest.test_case "nested spawn tree" `Quick test_nested_spawn_tree;
        Alcotest.test_case "40-thread fan-out" `Quick test_many_threads;
        Alcotest.test_case "cross-page word propagation" `Quick
          test_cross_page_word_propagation;
        Alcotest.test_case "malloc recycling" `Quick
          test_malloc_free_recycling_under_isolation;
        Alcotest.test_case "GC pressure vs model" `Quick
          test_gc_under_pressure_all_runtimes_agree;
        Alcotest.test_case "single-thread run" `Quick test_single_thread_run;
        Alcotest.test_case "zero-iteration workers" `Quick
          test_zero_iteration_workers;
        Alcotest.test_case "exit holding lock (uncontended)" `Quick
          test_exit_holding_lock_uncontended;
        Alcotest.test_case "exit holding lock (contended) deadlocks" `Quick
          test_exit_holding_lock_contended_deadlocks;
        Alcotest.test_case "micros at 1 thread, all runtimes" `Quick
          test_micros_one_thread_all_runtimes_agree;
        Alcotest.test_case "rwlock writer preference mid-batch" `Quick
          test_rwlock_writer_preference_mid_batch;
        Alcotest.test_case "zero-permit semaphore rendezvous" `Quick
          test_zero_permit_sem_rendezvous;
        Alcotest.test_case "steal after owner exit holding a lock" `Quick
          test_steal_after_owner_exit_holding_lock;
        Alcotest.test_case "broadcast vs crashing waiter (contain)" `Quick
          test_broadcast_racing_crashing_waiter_contained;
        Alcotest.test_case "broadcast vs crashing waiter (recover)" `Quick
          test_broadcast_racing_crashing_waiter_recovered;
      ] );
  ]
