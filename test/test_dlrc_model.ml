(* Differential testing: the optimized RFDet runtime against the naive
   executable DLRC model, on randomized racy programs.

   Both use the same Kendo layer, so their deterministic synchronization
   orders coincide; DLRC then demands bit-identical observable outputs.
   A divergence indicts one of the optimizations the model omits: page
   diffing, copy-on-write forking, resume indices, release-bounded
   propagation scans, slice merging, lazy writes, GC, ... *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Options = Rfdet_core.Options
module Rfdet = Rfdet_core.Rfdet_runtime
module Model = Rfdet_core.Dlrc_model

(* --- a small random-program AST ------------------------------------- *)

type atom =
  | Store of int * int  (* slot, value *)
  | Load_out of int  (* output the slot's value *)
  | Work of int  (* tick *)
  | Atomic_add of int * int  (* slot, delta *)
  | Atomic_cas of int * int * int  (* slot, expect, desired *)
  | Critical of int * atom list  (* mutex index, body *)

type program = { n_mutexes : int; threads : atom list list }

let slot_addr slot = Layout.globals_base + (8 * slot)

let rec exec_atom mutexes atom =
  match atom with
  | Store (slot, v) -> Api.store (slot_addr slot) v
  | Load_out slot -> Api.output_int (Api.load (slot_addr slot))
  | Work n -> Api.tick n
  | Atomic_add (slot, d) -> Api.output_int (Api.atomic_fetch_add (slot_addr slot) d)
  | Atomic_cas (slot, e, d) ->
    Api.output_int (Api.atomic_cas (slot_addr slot) ~expect:e ~desired:d)
  | Critical (m, body) ->
    Api.with_lock mutexes.(m) (fun () -> List.iter (exec_atom mutexes) body)

let run_program (p : program) () =
  let mutexes = Array.init p.n_mutexes (fun _ -> Api.mutex_create ()) in
  let tids =
    List.map (fun atoms -> Api.spawn (fun () -> List.iter (exec_atom mutexes) atoms))
      p.threads
  in
  List.iter Api.join tids;
  (* final memory dump through thread 0's view *)
  for slot = 0 to 7 do
    Api.output_int (Api.load (slot_addr slot))
  done

(* --- generators ------------------------------------------------------ *)

let gen_atom ~depth =
  let open QCheck2.Gen in
  let base =
    oneof
      [
        map2 (fun s v -> Store (s, v)) (int_bound 7) (int_bound 1000);
        map (fun s -> Load_out s) (int_bound 7);
        map (fun n -> Work (n * 10)) (int_bound 30);
        map2 (fun s d -> Atomic_add (s, d + 1)) (int_bound 7) (int_bound 9);
        map2
          (fun s e -> Atomic_cas (s, e, e + 13))
          (int_bound 7) (int_bound 3);
      ]
  in
  if depth = 0 then base
  else
    frequency
      [
        (3, base);
        ( 1,
          map2
            (fun m body -> Critical (m, body))
            (int_bound 1)
            (list_size (int_range 1 4) base) );
      ]

let gen_program =
  let open QCheck2.Gen in
  let* n_threads = int_range 2 3 in
  let* threads =
    list_repeat n_threads (list_size (int_range 3 12) (gen_atom ~depth:1))
  in
  return { n_mutexes = 2; threads }

(* --- the differential property --------------------------------------- *)

let outputs_under policy seed p =
  let config =
    { Engine.default_config with seed; jitter_mean = 9. }
  in
  (Engine.run ~config policy ~main:(run_program p)).Engine.outputs

let opt_configs =
  [
    ("ci", Options.ci);
    ("pf", Options.pf);
    ("noopt", Options.baseline_no_opt);
    ("no-merge", { Options.ci with slice_merging = false });
    ("tiny-meta", { Options.ci with metadata_capacity = 4096; gc_threshold = 0.5 });
  ]

(* Each config is compared with the model under its own slice-merging
   flag: merging moves slice boundaries, and on racy programs that
   changes which stores restoring a slice-start value get published. *)
let prop_model_agreement =
  QCheck2.Test.make ~name:"dlrc: optimized runtime matches the naive model"
    ~count:120 ~print:(fun p ->
      Printf.sprintf "threads=%d sizes=%s" (List.length p.threads)
        (String.concat ","
           (List.map (fun l -> string_of_int (List.length l)) p.threads)))
    gen_program
    (fun p ->
      let model slice_merging =
        lazy (outputs_under (Model.make_with ~slice_merging) 1L p)
      in
      let merged = model true and plain = model false in
      List.for_all
        (fun (_, (opts : Options.t)) ->
          outputs_under (Rfdet.make ~opts) 2L p
          = Lazy.force (if opts.slice_merging then merged else plain))
        opt_configs)

let prop_model_self_deterministic =
  QCheck2.Test.make ~name:"dlrc: model itself is seed-independent" ~count:60
    gen_program
    (fun p ->
      outputs_under Model.make 3L p = outputs_under Model.make 17L p)

let prop_runtime_seed_independent =
  QCheck2.Test.make
    ~name:"dlrc: optimized runtime is seed-independent on random programs"
    ~count:60 gen_program
    (fun p ->
      outputs_under (Rfdet.make ~opts:Options.ci) 5L p
      = outputs_under (Rfdet.make ~opts:Options.ci) 23L p)

(* Figure 5's lower-limit filter is exactly a redundancy eliminator: a
   slice already merged into a thread's view must never be appended to
   its seen-list again.  The checked model asserts physical membership
   on every propagation and raises [Propagated_twice] on violation —
   randomized racy programs drive it through every acquire path (locks,
   atomics, joins, the final dump). *)
let prop_never_propagates_twice =
  QCheck2.Test.make
    ~name:"dlrc: no slice is ever propagated twice (checked model)"
    ~count:120
    ~print:(fun p ->
      Printf.sprintf "threads=%d sizes=%s" (List.length p.threads)
        (String.concat ","
           (List.map (fun l -> string_of_int (List.length l)) p.threads)))
    gen_program
    (fun p ->
      match outputs_under Model.make_checked 1L p with
      | _ -> true
      | exception Engine.Thread_failure (_, Model.Propagated_twice _)
      | exception Model.Propagated_twice _ ->
        false)

let prop_checked_model_transparent =
  QCheck2.Test.make
    ~name:"dlrc: the never-twice check does not change model outputs"
    ~count:60 gen_program
    (fun p ->
      outputs_under Model.make_checked 1L p = outputs_under Model.make 1L p)

(* a directed regression: the Figure 2 shape expressed as a program *)
let test_directed_figure2 () =
  let p =
    {
      n_mutexes = 1;
      threads =
        [
          [ Critical (0, [ Store (0, 1) ]); Store (0, 2) ];
          [ Load_out 0; Work 5000; Critical (0, [ Load_out 0 ]) ];
        ];
    }
  in
  let a = outputs_under Model.make 1L p in
  let b = outputs_under (Rfdet.make ~opts:Options.ci) 1L p in
  Alcotest.(check bool) "model and runtime agree" true (a = b)

(* A racy program on which slice merging changes the final dump.  T2
   re-acquires m0, which it released last, so under merging its slice
   stays open across the second critical section: [Store (7, 0)] then
   restores the slice-start value of slot 7, and the merged slice
   publishes nothing there.  Without merging the second critical
   section is its own slice and publishes the 0. *)
let silent_store_program =
  {
    n_mutexes = 2;
    threads =
      [
        [ Store (0, 0); Store (0, 0); Store (0, 0);
          Critical (1, [ Store (0, 0); Store (7, 256) ]) ];
        [ Store (0, 0); Load_out 0; Critical (0, [ Store (0, 0) ]);
          Store (7, 256); Critical (0, [ Store (7, 0) ]) ];
      ];
  }

(* slot 7 in main's final dump, the last value main outputs *)
let final_slot7 policy =
  let main_outputs =
    List.filter
      (fun (tid, _) -> tid = 0)
      (outputs_under policy 1L silent_store_program)
  in
  Int64.to_int (snd (List.nth main_outputs (List.length main_outputs - 1)))

let test_directed_silent_store () =
  let no_merge = { Options.ci with slice_merging = false } in
  Alcotest.(check int) "merged runtime" 256
    (final_slot7 (Rfdet.make ~opts:Options.ci));
  Alcotest.(check int) "merge model" 256
    (final_slot7 (Model.make_with ~slice_merging:true));
  Alcotest.(check int) "no-merge runtime" 0
    (final_slot7 (Rfdet.make ~opts:no_merge));
  Alcotest.(check int) "plain model" 0 (final_slot7 Model.make)

(* the property under QCheck seeds on which the plain model once
   disagreed with the merging configs *)
let test_agreement_past_seeds () =
  List.iter
    (fun seed ->
      QCheck2.Test.check_exn
        ~rand:(Random.State.make [| seed |])
        prop_model_agreement)
    [ 37398641; 46; 99 ]

let suites =
  [
    ( "dlrc-model",
      [
        Alcotest.test_case "directed figure-2 program" `Quick
          test_directed_figure2;
        QCheck_alcotest.to_alcotest prop_model_agreement;
        QCheck_alcotest.to_alcotest prop_model_self_deterministic;
        QCheck_alcotest.to_alcotest prop_runtime_seed_independent;
        QCheck_alcotest.to_alcotest prop_never_propagates_twice;
        QCheck_alcotest.to_alcotest prop_checked_model_transparent;
        Alcotest.test_case "directed silent store under slice merging" `Quick
          test_directed_silent_store;
        Alcotest.test_case "model agreement under past failing seeds" `Quick
          test_agreement_past_seeds;
      ] );
  ]
