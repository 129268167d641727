(* The bounded producer/consumer queue that dedup and ferret build on:
   FIFO per producer, no loss, no duplication, blocking at both ends —
   under every runtime. *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Pipeline = Rfdet_workloads.Pipeline
module Options = Rfdet_core.Options

let base = Layout.globals_base

let policies () =
  [
    ("pthreads", Rfdet_baselines.Pthreads_runtime.make);
    ("kendo", Rfdet_baselines.Kendo_runtime.make);
    ("dthreads", Rfdet_baselines.Fence_runtime.(make Dthreads));
    ("coredet", Rfdet_baselines.Fence_runtime.(make coredet));
    ("rfdet-ci", Rfdet_core.Rfdet_runtime.make ~opts:Options.ci);
  ]

let test_fifo_single_producer () =
  (* one producer, one consumer: strict FIFO through a tiny queue *)
  let items = 50 in
  let main () =
    let q = Pipeline.create ~capacity:3 in
    let producer =
      Api.spawn (fun () ->
          for i = 1 to items do
            Pipeline.push q (i * 7)
          done)
    in
    let consumer =
      Api.spawn (fun () ->
          let in_order = ref 1 in
          for i = 1 to items do
            let v = Pipeline.pop q in
            if v <> i * 7 then in_order := 0
          done;
          Api.output_int !in_order)
    in
    Api.join producer;
    Api.join consumer
  in
  List.iter
    (fun (label, policy) ->
      let r = Engine.run policy ~main in
      Alcotest.(check bool) (label ^ ": FIFO preserved") true
        (List.mem (2, 1L) r.Engine.outputs))
    (policies ())

let test_no_loss_no_dup_multi () =
  (* 2 producers, 2 consumers: the multiset of items is preserved *)
  let per_producer = 40 in
  let main () =
    let q = Pipeline.create ~capacity:4 in
    let producer k () =
      for i = 1 to per_producer do
        Pipeline.push q ((k * 1000) + i)
      done;
      Pipeline.push q (-1)
    in
    let consumer idx () =
      let sum = ref 0 and count = ref 0 and finished = ref 0 in
      while !finished < 1 do
        let v = Pipeline.pop q in
        if v = -1 then incr finished
        else begin
          sum := !sum + v;
          incr count
        end
      done;
      Api.store (base + (8 * idx)) !sum;
      Api.store (base + 64 + (8 * idx)) !count
    in
    let tids =
      [
        Api.spawn (producer 1);
        Api.spawn (producer 2);
        Api.spawn (consumer 0);
        Api.spawn (consumer 1);
      ]
    in
    List.iter Api.join tids;
    Api.output_int (Api.load base + Api.load (base + 8));
    Api.output_int (Api.load (base + 64) + Api.load (base + 72))
  in
  let expected_sum =
    List.fold_left ( + ) 0
      (List.concat_map
         (fun k -> List.init per_producer (fun i -> (k * 1000) + i + 1))
         [ 1; 2 ])
  in
  List.iter
    (fun (label, policy) ->
      let r = Engine.run policy ~main in
      let get tid_ordered = List.map snd r.Engine.outputs |> fun l -> List.nth l tid_ordered in
      Alcotest.(check int64) (label ^ ": sum preserved")
        (Int64.of_int expected_sum) (get 0);
      Alcotest.(check int64)
        (label ^ ": count preserved")
        (Int64.of_int (2 * per_producer))
        (get 1))
    (policies ())

let test_capacity_blocks_producer () =
  (* a producer into a full queue must wait for the consumer: the
     producer's completion time includes the consumer's slow drains *)
  let main () =
    let q = Pipeline.create ~capacity:2 in
    let producer =
      Api.spawn (fun () ->
          for i = 1 to 10 do
            Pipeline.push q i
          done;
          Api.output_int 1)
    in
    let consumer =
      Api.spawn (fun () ->
          for _ = 1 to 10 do
            Api.tick 20_000;
            ignore (Pipeline.pop q)
          done)
    in
    Api.join producer;
    Api.join consumer
  in
  let r = Engine.run Rfdet_baselines.Pthreads_runtime.make ~main in
  (* 10 drains x 20k ticks ≈ 200k cycles: the producer cannot finish
     much before that despite queue pushes being cheap *)
  Alcotest.(check bool) "backpressure applied" true (r.Engine.sim_time > 150_000)

let test_deterministic_consumer_assignment () =
  (* which consumer gets which item is schedule-dependent under
     pthreads, pinned under rfdet *)
  let main () =
    let q = Pipeline.create ~capacity:4 in
    let producer =
      Api.spawn (fun () ->
          for i = 1 to 30 do
            Pipeline.push q i
          done;
          Pipeline.push q (-1);
          Pipeline.push q (-1))
    in
    let consumer idx () =
      let sum = ref 0 in
      let running = ref true in
      while !running do
        let v = Pipeline.pop q in
        if v = -1 then running := false
        else begin
          sum := !sum + v;
          Api.tick 500
        end
      done;
      Api.store (base + (8 * idx)) !sum
    in
    let tids =
      [ producer; Api.spawn (consumer 0); Api.spawn (consumer 1) ]
    in
    List.iter Api.join tids;
    Api.output_int (Api.load base);
    Api.output_int (Api.load (base + 8))
  in
  let sig_of policy seed =
    Engine.output_signature
      (Engine.run
         ~config:{ Engine.default_config with seed; jitter_mean = 120. }
         policy ~main)
  in
  let rfdet = Rfdet_core.Rfdet_runtime.make ~opts:Options.ci in
  let sigs =
    List.init 5 (fun i -> sig_of rfdet (Int64.of_int (i + 1)))
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "rfdet: one assignment" 1 (List.length sigs);
  let psigs =
    List.init 8 (fun i ->
        sig_of Rfdet_baselines.Pthreads_runtime.make (Int64.of_int (i + 1)))
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "pthreads: several assignments" true
    (List.length psigs > 1)

let suites =
  [
    ( "pipeline-queue",
      [
        Alcotest.test_case "FIFO single producer" `Quick
          test_fifo_single_producer;
        Alcotest.test_case "no loss / no dup (2x2)" `Quick
          test_no_loss_no_dup_multi;
        Alcotest.test_case "backpressure" `Quick test_capacity_blocks_producer;
        Alcotest.test_case "deterministic consumer assignment" `Quick
          test_deterministic_consumer_assignment;
      ] );
  ]
