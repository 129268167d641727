(* The low-level atomics interface (the paper's Sections 4.6/6 future
   work): deterministic lock-free synchronization. *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Options = Rfdet_core.Options
module Runner = Rfdet_harness.Runner

let base = Layout.globals_base

let all_policies =
  [
    ("pthreads", Rfdet_baselines.Pthreads_runtime.make);
    ("kendo", Rfdet_baselines.Kendo_runtime.make);
    ("dthreads", Rfdet_baselines.Fence_runtime.(make Dthreads));
    ("coredet", Rfdet_baselines.Fence_runtime.(make coredet));
    ("rfdet-ci", Rfdet_core.Rfdet_runtime.make ~opts:Options.ci);
    ("rfdet-pf", Rfdet_core.Rfdet_runtime.make ~opts:Options.pf);
    ("dlrc-model", Rfdet_core.Dlrc_model.make);
  ]

let run ?(seed = 1L) ?(jitter = 0.) policy main =
  let config = { Engine.default_config with seed; jitter_mean = jitter } in
  Engine.run ~config policy ~main

let test_fetch_add_exact () =
  (* lock-free counter: increments are never lost under ANY runtime *)
  let program () =
    let body () =
      for _ = 1 to 50 do
        ignore (Api.atomic_fetch_add base 1);
        Api.tick 7
      done
    in
    let ts = List.init 3 (fun _ -> Api.spawn body) in
    List.iter Api.join ts;
    Api.output_int (Api.atomic_load base)
  in
  List.iter
    (fun (label, policy) ->
      let r = run policy program in
      Alcotest.(check bool)
        (label ^ ": atomic increments exact")
        true
        (List.mem (0, 150L) r.Engine.outputs))
    all_policies

let test_cas_semantics () =
  let program () =
    Api.atomic_store base 5;
    Api.output_int (Api.atomic_cas base ~expect:5 ~desired:9);
    (* 5, swaps *)
    Api.output_int (Api.atomic_load base);
    (* 9 *)
    Api.output_int (Api.atomic_cas base ~expect:5 ~desired:77);
    (* 9, no swap *)
    Api.output_int (Api.atomic_load base);
    (* 9 *)
    Api.output_int (Api.atomic_exchange base 3);
    (* 9 *)
    Api.output_int (Api.atomic_load base)
    (* 3 *)
  in
  List.iter
    (fun (label, policy) ->
      let r = run policy program in
      Alcotest.(check bool)
        (label ^ ": cas/exchange semantics")
        true
        (List.map snd r.Engine.outputs = [ 5L; 9L; 9L; 9L; 9L; 3L ]))
    all_policies

let test_release_acquire_message_passing () =
  (* The integration that matters for RFDet: an atomic store is a
     RELEASE, so plain stores sequenced before it must be visible to a
     thread whose atomic load (ACQUIRE) observes the flag. *)
  let program () =
    let data = base and flag = base + 256 in
    let producer =
      Api.spawn (fun () ->
          Api.store data 4242;
          (* plain store *)
          Api.atomic_store flag 1 (* release *))
    in
    let consumer =
      Api.spawn (fun () ->
          while Api.atomic_load flag = 0 do
            Api.tick 40
          done;
          Api.output_int (Api.load data) (* must see 4242 *))
    in
    Api.join producer;
    Api.join consumer
  in
  List.iter
    (fun (label, policy) ->
      let r = run policy program in
      Alcotest.(check bool)
        (label ^ ": release/acquire publishes plain stores")
        true
        (List.mem (2, 4242L) r.Engine.outputs))
    all_policies

let test_cas_spinlock () =
  (* a CAS spinlock protecting a PLAIN counter: classic lock-free
     ad hoc synchronization, now legal under RFDet *)
  let program () =
    let lock = base and counter = base + 512 in
    let body () =
      for _ = 1 to 12 do
        while Api.atomic_cas lock ~expect:0 ~desired:1 <> 0 do
          Api.tick 25
        done;
        Api.store counter (Api.load counter + 1);
        Api.atomic_store lock 0;
        Api.tick 60
      done
    in
    let t1 = Api.spawn body and t2 = Api.spawn body in
    Api.join t1;
    Api.join t2;
    Api.output_int (Api.load counter)
  in
  List.iter
    (fun (label, policy) ->
      let r = run policy program in
      Alcotest.(check bool)
        (label ^ ": CAS spinlock protects plain data")
        true
        (List.mem (0, 24L) r.Engine.outputs))
    all_policies

let racy_exchange () =
  (* which thread's exchange lands last is schedule-dependent — exactly
     what strong DMT must pin down *)
  let body k () =
    Api.tick (100 + (k * 7));
    ignore (Api.atomic_exchange base (k + 100));
    Api.tick ((3 - k) * 13)
  in
  let ts = List.init 3 (fun k -> Api.spawn (body k)) in
  List.iter Api.join ts;
  Api.output_int (Api.atomic_load base)

let test_deterministic_atomics () =
  List.iter
    (fun (label, policy) ->
      if label <> "pthreads" then begin
        let sig_of seed =
          Engine.output_signature (run ~seed ~jitter:11. policy racy_exchange)
        in
        let s1 = sig_of 1L in
        List.iter
          (fun s ->
            Alcotest.(check string) (label ^ " deterministic") s1 (sig_of s))
          [ 2L; 3L; 4L ]
      end)
    all_policies

let test_rfdet_matches_model_on_atomics () =
  let sig_of policy =
    Engine.output_signature (run ~seed:5L ~jitter:8. policy racy_exchange)
  in
  Alcotest.(check string) "rfdet-ci = dlrc-model"
    (sig_of Rfdet_core.Dlrc_model.make)
    (sig_of (Rfdet_core.Rfdet_runtime.make ~opts:Options.ci))

let test_atomic_counter_profile () =
  let r =
    run
      (Rfdet_core.Rfdet_runtime.make ~opts:Options.ci)
      (fun () ->
        for _ = 1 to 10 do
          ignore (Api.atomic_fetch_add base 1)
        done;
        Api.output_int (Api.atomic_load base))
  in
  Alcotest.(check int) "atomics counted" 11
    r.Engine.profile.Rfdet_sim.Profile.atomics

let suites =
  [
    ( "atomics",
      [
        Alcotest.test_case "fetch_add exact everywhere" `Quick
          test_fetch_add_exact;
        Alcotest.test_case "cas/exchange semantics" `Quick test_cas_semantics;
        Alcotest.test_case "release/acquire message passing" `Quick
          test_release_acquire_message_passing;
        Alcotest.test_case "CAS spinlock" `Quick test_cas_spinlock;
        Alcotest.test_case "deterministic across seeds" `Quick
          test_deterministic_atomics;
        Alcotest.test_case "rfdet matches model" `Quick
          test_rfdet_matches_model_on_atomics;
        Alcotest.test_case "profile counter" `Quick test_atomic_counter_profile;
      ] );
  ]
