(* A dedup-style pipeline on the public API: producer -> workers ->
   consumer over bounded queues, demonstrating that pipeline programs —
   the worst case for global-barrier DMT — run efficiently under RFDet.

     dune exec examples/pipeline_app.exe *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Pipeline = Rfdet_workloads.Pipeline

let items = 400

let app () =
  let q_in = Pipeline.create ~capacity:8 in
  let q_out = Pipeline.create ~capacity:8 in
  let stage_workers = 2 in
  let producer () =
    for i = 1 to items do
      Pipeline.push q_in i;
      Api.tick 300
    done;
    for _ = 1 to stage_workers do
      Pipeline.push q_in (-1)
    done
  in
  let worker () =
    let running = ref true in
    while !running do
      let item = Pipeline.pop q_in in
      if item = -1 then begin
        running := false;
        Pipeline.push q_out (-1)
      end
      else begin
        (* "hash" the item *)
        Api.tick 900;
        Pipeline.push q_out ((item * 2654435761) land 0xFFFFF)
      end
    done
  in
  let consumer () =
    let finished = ref 0 in
    let acc = Api.malloc 8 in
    while !finished < stage_workers do
      let item = Pipeline.pop q_out in
      if item = -1 then incr finished
      else begin
        Api.store acc (Api.load acc + item);
        Api.tick 150
      end
    done;
    Api.output_int (Api.load acc)
  in
  let tids =
    Api.spawn producer :: Api.spawn consumer
    :: List.init stage_workers (fun _ -> Api.spawn worker)
  in
  List.iter Api.join tids

let () =
  Printf.printf
    "Bounded-queue pipeline, %d items through producer -> 2 workers -> \
     consumer:\n\n"
    items;
  let base = ref 0 in
  List.iter
    (fun (label, policy) ->
      let r = Engine.run policy ~main:app in
      if !base = 0 then base := r.Engine.sim_time;
      let v =
        match r.Engine.outputs with (_, v) :: _ -> Int64.to_int v | [] -> -1
      in
      Printf.printf "%-10s checksum=%-8d cycles=%-9d (%.2fx pthreads)\n" label
        v r.Engine.sim_time
        (float_of_int r.Engine.sim_time /. float_of_int !base))
    [
      ("pthreads", Rfdet_baselines.Pthreads_runtime.make);
      ("rfdet-ci",
       Rfdet_core.Rfdet_runtime.make ~opts:Rfdet_core.Options.ci);
      ("dthreads", Rfdet_baselines.Fence_runtime.(make Dthreads));
      ("coredet", Rfdet_baselines.Fence_runtime.(make coredet));
    ];
  print_endline
    "\nQueue hand-offs are pure release/acquire pairs: RFDet propagates\n\
     just the producer's slices to the consumer, while the global-barrier\n\
     designs stop every thread at every queue operation."
