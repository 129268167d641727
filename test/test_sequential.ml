(* Section 3.3, consistency rule 1: "execution respects single-threaded
   semantics".  Any single-threaded program must produce identical
   observable output under every runtime — the DMT machinery (private
   spaces, slices, fences, quanta) must be invisible when there is no
   concurrency.  Checked on randomized single-thread programs over the
   full op vocabulary. *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Options = Rfdet_core.Options

type step =
  | Store of int * int
  | Load_out of int
  | Byte_store of int * int
  | Byte_load_out of int
  | Work of int
  | Alloc_use  (* malloc, store, load, output, free *)
  | Atomic_add of int * int
  | Locked_bump of int  (* lock; slot++ ; unlock — self-merging slices *)
  | Spawn_join_child of step list  (* a child running a few steps *)

let slot_addr slot = Layout.globals_base + (8 * slot)

let rec exec mutex step =
  match step with
  | Store (s, v) -> Api.store (slot_addr s) v
  | Load_out s -> Api.output_int (Api.load (slot_addr s))
  | Byte_store (s, v) -> Api.store_byte (slot_addr s + 3) v
  | Byte_load_out s -> Api.output_int (Api.load_byte (slot_addr s + 3))
  | Work n -> Api.tick n
  | Alloc_use ->
    let p = Api.malloc 32 in
    Api.store p 99;
    Api.output_int (Api.load p);
    Api.free p
  | Atomic_add (s, d) -> Api.output_int (Api.atomic_fetch_add (slot_addr s) d)
  | Locked_bump s ->
    Api.with_lock mutex (fun () ->
        Api.store (slot_addr s) (Api.load (slot_addr s) + 1))
  | Spawn_join_child steps ->
    let c = Api.spawn (fun () -> List.iter (exec mutex) steps) in
    Api.join c

let run_program steps () =
  let mutex = Api.mutex_create () in
  List.iter (exec mutex) steps;
  for s = 0 to 5 do
    Api.output_int (Api.load (slot_addr s))
  done

let gen_step =
  let open QCheck2.Gen in
  let base =
    oneof
      [
        map2 (fun s v -> Store (s, v)) (int_bound 5) (int_bound 500);
        map (fun s -> Load_out s) (int_bound 5);
        map2 (fun s v -> Byte_store (s, v)) (int_bound 5) (int_bound 255);
        map (fun s -> Byte_load_out s) (int_bound 5);
        map (fun n -> Work (n * 7)) (int_bound 40);
        return Alloc_use;
        map2 (fun s d -> Atomic_add (s, d)) (int_bound 5) (int_bound 9);
        map (fun s -> Locked_bump s) (int_bound 5);
      ]
  in
  QCheck2.Gen.oneof
    [ base; map (fun l -> Spawn_join_child l) (list_size (int_range 1 4) base) ]

let gen_program = QCheck2.Gen.(list_size (int_range 1 15) gen_step)

let all_policies () =
  [
    Rfdet_baselines.Pthreads_runtime.make;
    Rfdet_baselines.Kendo_runtime.make;
    Rfdet_baselines.Fence_runtime.(make Dthreads);
    Rfdet_baselines.Fence_runtime.(make (Coredet { quantum = 5_000 }));
    Rfdet_core.Rfdet_runtime.make ~opts:Options.ci;
    Rfdet_core.Rfdet_runtime.make ~opts:Options.pf;
    Rfdet_core.Dlrc_model.make;
  ]

let prop_sequential_equivalence =
  QCheck2.Test.make
    ~name:"sequential programs agree across all 7 runtimes" ~count:80
    gen_program
    (fun steps ->
      let outputs =
        List.map
          (fun policy ->
            (Engine.run policy ~main:(run_program steps)).Engine.outputs)
          (all_policies ())
      in
      match outputs with
      | first :: rest -> List.for_all (( = ) first) rest
      | [] -> false)

let test_directed_sequential () =
  (* mixed-width access to the same word: byte stores inside a word *)
  let steps =
    [
      Store (0, 0x11223344);
      Byte_store (0, 0xAB);
      Load_out 0;
      Byte_load_out 0;
      Atomic_add (0, 5);
      Load_out 0;
    ]
  in
  let outputs =
    List.map
      (fun policy -> (Engine.run policy ~main:(run_program steps)).Engine.outputs)
      (all_policies ())
  in
  match outputs with
  | first :: rest ->
    Alcotest.(check bool) "all agree" true (List.for_all (( = ) first) rest)
  | [] -> Alcotest.fail "no runtimes"

let suites =
  [
    ( "sequential",
      [
        Alcotest.test_case "directed mixed-width" `Quick
          test_directed_sequential;
        QCheck_alcotest.to_alcotest prop_sequential_equivalence;
      ] );
  ]
