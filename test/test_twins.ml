(* The release side's twin sets (Rfdet_mem.Twins) and the fence trigger.

   - The windowed scan equals the full-page scan: directly over random
     store sequences, and inside rfdet-ci, rfdet-pf, dthreads and
     coredet, where every thread's open twins are compared after every
     engine step.
   - The fence fires from counts exactly when the sort-based trigger
     it replaced would have (a lockstep model). *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Space = Rfdet_mem.Space
module Page = Rfdet_mem.Page
module Diff = Rfdet_mem.Diff
module Twins = Rfdet_mem.Twins
module Layout = Rfdet_mem.Layout
module Fence = Rfdet_baselines.Fence_runtime
module Rfdet = Rfdet_core.Rfdet_runtime
module Options = Rfdet_core.Options
module Slice = Rfdet_core.Slice
module Tstate = Rfdet_core.Tstate
module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry

let time = Rfdet_util.Vclock.of_list [ 2; 7; 1; 8 ]

(* The same two diffs: runs, per-page bytes and the slice checksum. *)
let same_diff ~tid a b =
  Diff.runs a = Diff.runs b
  && Diff.pages_of_mods a = Diff.pages_of_mods b
  && Slice.compute_checksum ~tid ~mods:a ~time
     = Slice.compute_checksum ~tid ~mods:b ~time

(* --- the windowed scan over random store sequences -------------------- *)

(* Offsets that exercise the window's edges: a page's first and last
   byte, its last word, the seven W64 offsets that straddle into the
   next page, and anywhere. *)
let gen_offset =
  QCheck2.Gen.(
    oneof
      [
        int_bound (Page.size - 1);
        oneofl [ 0; 1; 7; 8; Page.size - 8; Page.size - 1 ];
        map (fun j -> Page.size - j) (int_range 1 7);
      ])

type step =
  | Store of { page : int; off : int; wide : bool; value : int }
  | Silent of { page : int; off : int; wide : bool }
      (** store the value already there *)
  | Flushed of { page : int; bytes : (int * int) list; off : int; value : int }
      (** write the page from outside (a lazy flush), then store to it:
          only while the page has no twin, as in the runtime *)
  | Close  (** diff and release the set *)

let gen_step =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (page, off, wide, value) -> Store { page; off; wide; value })
            (quad (int_bound 2) gen_offset bool (int_bound 1_000_000)) );
        ( 2,
          map
            (fun (page, off, wide) -> Silent { page; off; wide })
            (triple (int_bound 2) gen_offset bool) );
        ( 2,
          map
            (fun (page, bytes, off, value) -> Flushed { page; bytes; off; value })
            (quad (int_bound 2)
               (list_size (int_range 1 20)
                  (pair (int_bound (Page.size - 1)) (int_bound 255)))
               gen_offset (int_bound 255)) );
        (1, pure Close);
      ])

let base page = Layout.globals_base + (page * Page.size)

(* Figure 4's protocol: widen each touched page's twin, or take one. *)
let store_through twins space ~addr ~len ~write =
  let stop = addr + len - 1 in
  let first = Page.id_of_addr addr and last = Page.id_of_addr stop in
  for page = first to last do
    let lo = if page = first then Page.offset_of_addr addr else 0 in
    let hi = if page = last then Page.offset_of_addr stop + 1 else Page.size in
    if not (Twins.widen twins ~page ~lo ~hi) then
      Twins.take twins space ~page ~lo ~hi
  done;
  write ()

let print_step = function
  | Store { page; off; wide; value } ->
    Printf.sprintf "store p%d+%d %b %d" page off wide value
  | Silent { page; off; wide } -> Printf.sprintf "silent p%d+%d %b" page off wide
  | Flushed { page; bytes; off; value } ->
    Printf.sprintf "flushed p%d [%s] +%d %d" page
      (String.concat ";" (List.map (fun (o, b) -> Printf.sprintf "%d:%d" o b) bytes))
      off value
  | Close -> "close"

let prop_windowed_equals_full =
  QCheck2.Test.make ~name:"twins: windowed diff == full-page diff" ~count:300
    ~print:(fun steps -> String.concat "\n" (List.map print_step steps))
    QCheck2.Gen.(list_size (int_range 1 60) gen_step)
    (fun steps ->
      let space = Space.create () in
      let twins = Twins.create (Twins.pool ()) in
      (* the reference keeps its own copies of each page at first touch *)
      let reference = ref [] in
      let twinned page = List.mem_assoc page !reference in
      let note_first_touch ~addr ~len =
        List.iter
          (fun page ->
            if not (twinned page) then
              let copy = Bytes.copy (Space.page_bytes space page) in
              reference := !reference @ [ (page, copy) ])
          (Page.span ~addr ~len)
      in
      let store ~addr ~wide ~value =
        let len = if wide then 8 else 1 in
        note_first_touch ~addr ~len;
        store_through twins space ~addr ~len ~write:(fun () ->
            if wide then Space.store_int space addr value
            else Space.store_byte space addr value)
      in
      let ok = ref true in
      let close () =
        let full = Diff.builder () and win = Diff.builder () in
        List.iter
          (fun (page, snapshot) ->
            Diff.add_page full ~page_id:page ~snapshot
              ~current:(Space.page_bytes space page))
          !reference;
        let seen = ref [] in
        let n = Twins.diff twins space win ~f:(fun page -> seen := page :: !seen) in
        let a = Diff.finish full and b = Diff.finish win in
        ok :=
          !ok
          && same_diff ~tid:1 a b
          && List.rev !seen = List.map fst !reference
          && n = List.length !reference
          && Twins.count twins = 0;
        reference := []
      in
      List.iter
        (function
          | Store { page; off; wide; value } ->
            store ~addr:(base page + off) ~wide ~value
          | Silent { page; off; wide } ->
            let addr = base page + off in
            let value =
              if wide then Space.load_int space addr else Space.load_byte space addr
            in
            store ~addr ~wide ~value
          | Flushed { page; bytes; off; value } ->
            if not (twinned (Page.id_of_addr (base page))) then
              List.iter (fun (o, b) -> Space.store_byte space (base page + o) b) bytes;
            store ~addr:(base page + off) ~wide:false ~value
          | Close -> close ())
        steps;
      close ();
      !ok)

let test_window_edges () =
  let space = Space.create () in
  let twins = Twins.create (Twins.pool ()) in
  let windows () =
    let acc = ref [] in
    Twins.iter twins ~f:(fun ~page ~snapshot:_ ~lo ~hi ->
        acc := (page, lo, hi) :: !acc);
    List.rev !acc
  in
  let p = Page.id_of_addr (base 0) in
  (* a W64 store at the page's last 3 bytes covers [4093, 4096) here
     and [0, 5) on the next page: word-widened, [4088, 4096) and [0, 8) *)
  store_through twins space ~addr:(base 0 + Page.size - 3) ~len:8 ~write:ignore;
  Alcotest.(check (list (triple int int int))) "straddle"
    [ (p, Page.size - 8, Page.size); (p + 1, 0, 8) ]
    (windows ());
  (* widening both ways *)
  store_through twins space ~addr:(base 0 + 100) ~len:1 ~write:ignore;
  store_through twins space ~addr:(base 1 + 17) ~len:8 ~write:ignore;
  Alcotest.(check (list (triple int int int))) "widened"
    [ (p, 96, Page.size); (p + 1, 0, 32) ]
    (windows ());
  Alcotest.(check int) "two twins" 2 (Twins.count twins);
  Alcotest.(check int) "dropped" 2 (Twins.drop twins ~restore:None);
  Alcotest.(check (list (triple int int int))) "empty" [] (windows ())

let test_diff_window_validation () =
  let page = Bytes.make Page.size '\000' in
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "[%d, %d)" lo hi)
        (Invalid_argument
           "Diff.add_window: the window must be word-aligned and on the page")
        (fun () ->
          Diff.add_window (Diff.builder ()) ~page_id:0 ~snapshot:page
            ~current:page ~lo ~hi))
    [ (-8, 8); (0, Page.size + 8); (16, 8); (3, 8); (0, 9) ]

let test_pool_recycles () =
  let pool = Twins.pool () in
  let a = Twins.alloc pool in
  Twins.release pool a;
  Alcotest.(check bool) "same buffer back" true (Twins.alloc pool == a);
  Alcotest.check_raises "page-sized only"
    (Invalid_argument "Twins.release: buffer must be page-sized") (fun () ->
      Twins.release pool (Bytes.create 3))

(* --- the windowed scan inside the runtimes ----------------------------- *)

(* A random program: workers run blocks of stores, some under one shared
   mutex.  A burst puts at least 512 bytes on one page in one slice, so
   rfdet's receivers queue the page lazily and flush it at their next
   store to it. *)
type act =
  | A_store of { page : int; off : int; wide : bool; value : int }
  | A_silent of { page : int; off : int; wide : bool }
  | A_burst of { page : int; word : int; words : int; value : int }
  | A_widen of { page : int; mid : int; value : int }
      (** stores at [mid], below it and above it *)
  | A_atomic of { page : int; word : int }
  | A_tick of int

type block = { locked : bool; acts : act list }

let gen_act =
  QCheck2.Gen.(
    frequency
      [
        ( 5,
          map
            (fun (page, off, wide, value) -> A_store { page; off; wide; value })
            (quad (int_bound 2) gen_offset bool (int_bound 1_000_000)) );
        ( 2,
          map
            (fun (page, off, wide) -> A_silent { page; off; wide })
            (triple (int_bound 2) gen_offset bool) );
        ( 1,
          map
            (fun (page, word, words, value) -> A_burst { page; word; words; value })
            (quad (int_bound 2) (int_bound 400) (int_range 64 100) (int_bound 1000)) );
        ( 2,
          map
            (fun (page, mid, value) -> A_widen { page; mid; value })
            (triple (int_bound 2) (int_range 64 (Page.size - 72)) (int_bound 255)) );
        ( 1,
          map
            (fun (page, word) -> A_atomic { page; word })
            (pair (int_bound 2) (int_bound 511)) );
        (1, map (fun n -> A_tick n) (int_range 1 3_000));
      ])

let gen_block =
  QCheck2.Gen.(
    map
      (fun (locked, acts) -> { locked; acts })
      (pair bool (list_size (int_range 1 6) gen_act)))

let gen_program =
  QCheck2.Gen.(list_size (int_range 2 3) (list_size (int_range 1 5) gen_block))

let run_act = function
  | A_store { page; off; wide; value } ->
    let addr = base page + off in
    if wide then Api.store addr value else Api.store_byte addr value
  | A_silent { page; off; wide } ->
    let addr = base page + off in
    if wide then Api.store addr (Api.load addr)
    else Api.store_byte addr (Api.load_byte addr)
  | A_burst { page; word; words; value } ->
    (* [lnot] sets the high bytes too, so every word changes 8 bytes *)
    for i = 0 to words - 1 do
      Api.store (base page + (8 * (word + i))) (lnot (value + i))
    done
  | A_widen { page; mid; value } ->
    List.iter
      (fun d -> Api.store_byte (base page + mid + d) (value + d))
      [ 0; -40; 60; -64; 71 ]
  | A_atomic { page; word } -> ignore (Api.atomic_fetch_add (base page + (8 * word)) 1)
  | A_tick n -> Api.tick n

let main_of program () =
  let m = Api.mutex_create () in
  let run_block { locked; acts } =
    if locked then Api.lock m;
    List.iter run_act acts;
    if locked then Api.unlock m
  in
  let workers =
    List.map (fun blocks -> Api.spawn (fun () -> List.iter run_block blocks)) program
  in
  List.iter Api.join workers;
  Api.output_int (Api.load (base 0))

(* After every engine step, each thread's open twins must diff the same
   through their windows as over whole pages.  Failures are collected,
   not raised: the engine would turn an exception into a crash. *)
type watch = { mutable failures : string list; mutable twins_seen : int }

let check_twins w ~tid space twins =
  if Twins.count twins > 0 then begin
    w.twins_seen <- w.twins_seen + Twins.count twins;
    let full = Diff.builder () and win = Diff.builder () in
    Twins.iter twins ~f:(fun ~page ~snapshot ~lo ~hi ->
        let current = Space.page_bytes space page in
        Diff.add_page full ~page_id:page ~snapshot ~current;
        Diff.add_window win ~page_id:page ~snapshot ~current ~lo ~hi);
    if not (same_diff ~tid (Diff.finish full) (Diff.finish win)) then
      w.failures <- Printf.sprintf "tid %d" tid :: w.failures
  end

let watched (p : Engine.policy) check =
  { p with Engine.on_step = (fun () -> check (); p.on_step ()) }

let run_watched runtime program =
  let w = { failures = []; twins_seen = 0 } in
  let maker engine =
    match runtime with
    | `Rfdet opts ->
      let rt, p = Rfdet.make_with_state ~opts engine in
      watched p (fun () ->
          Rfdet.iter_states rt ~f:(fun ~tid (ts : Tstate.t) ->
              check_twins w ~tid ts.shared ts.twins))
    | `Fence model ->
      let ft, p = Fence.make_with_state model engine in
      watched p (fun () ->
          Fence.iter_twins ft ~f:(fun ~tid space twins ->
              check_twins w ~tid space twins))
  in
  let r = Engine.run maker ~main:(main_of program) in
  (w, r)

let window_runtimes =
  [
    ("rfdet-ci", `Rfdet Options.ci);
    ("rfdet-pf", `Rfdet Options.pf);
    ("dthreads", `Fence Fence.Dthreads);
    (* a short quantum, so quanta expire between a thread's stores *)
    ("coredet", `Fence (Fence.Coredet { quantum = 2_000 }));
  ]

let prop_runtime_windows (name, runtime) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "twins: windowed == full-page scan in %s" name)
    ~count:100 gen_program (fun program ->
      let w, _ = run_watched runtime program in
      match w.failures with
      | [] -> true
      | f :: _ -> QCheck2.Test.fail_reportf "%s: window disagrees at %s" name f)

(* One fixed program with every kind of store, so each runtime is seen
   to hold twins (and rfdet to take lazy-write faults) while checked. *)
let test_runtime_windows_directed () =
  let widen page = A_widen { page; mid = 2000; value = 9 } in
  let program =
    [
      [
        {
          locked = true;
          acts = [ A_burst { page = 1; word = 0; words = 80; value = 5 } ];
        };
        {
          locked = true;
          acts = [ A_store { page = 0; off = Page.size - 3; wide = true; value = -1 } ];
        };
        { locked = false; acts = [ A_tick 2_500; widen 2 ] };
      ];
      [
        { locked = false; acts = [ A_tick 4_000 ] };
        {
          locked = true;
          acts =
            [
              A_store { page = 1; off = 3; wide = false; value = 77 };
              A_silent { page = 1; off = 8; wide = true };
              A_store { page = 2; off = Page.size - 1; wide = false; value = 1 };
              A_atomic { page = 0; word = 3 };
              widen 1;
            ];
        };
      ];
    ]
  in
  List.iter
    (fun (name, runtime) ->
      let w, r = run_watched runtime program in
      Alcotest.(check (list string)) (name ^ ": windows agree") [] w.failures;
      Alcotest.(check bool) (name ^ ": twins checked") true (w.twins_seen > 0);
      match runtime with
      | `Rfdet _ ->
        Alcotest.(check bool) (name ^ ": lazy flush taken") true
          (r.Engine.profile.Rfdet_sim.Profile.page_faults > 0)
      | `Fence _ -> ())
    window_runtimes

(* --- the fence trigger in lockstep with the sort-based model ----------- *)

(* The trigger the counts replaced: the sorted population (live, not
   excluded) equals the sorted arrivals, and is not empty. *)
let model_fires ft =
  let pop =
    List.filter
      (fun tid -> Fence.live ft tid && not (Fence.excluded ft tid))
      (Fence.tids ft)
  in
  let arr = List.sort Int.compare (Fence.arrived ft) in
  pop <> [] && List.equal Int.equal pop arr

type lockstep = { mutable polls : int; mutable fires : int; mutable splits : int }

let lockstep_policy log model engine =
  let ft, p = Fence.make_with_state model engine in
  {
    p with
    Engine.on_step =
      (fun () ->
        let fires = model_fires ft in
        log.polls <- log.polls + 1;
        if fires then log.fires <- log.fires + 1;
        if fires <> Fence.ready ft then log.splits <- log.splits + 1;
        p.on_step ());
  }

let fence_models =
  [
    ("dthreads", Fence.Dthreads, Runner.Dthreads);
    ("coredet", Fence.coredet, Runner.Coredet);
  ]

let check_lockstep what log =
  Alcotest.(check int) (what ^ ": counted trigger == model") 0 log.splits;
  Alcotest.(check bool) (what ^ ": fences fired") true (log.fires > 0)

let test_lockstep_workloads () =
  let cases =
    List.concat_map (fun w -> [ (w, 2); (w, 4) ]) Registry.micro
    @ [ (Registry.find "prodcons", 4); (Registry.find "kvserver-rw", 4) ]
  in
  List.iter
    (fun (name, model, runtime) ->
      List.iter
        (fun ((w : Rfdet_workloads.Workload.t), threads) ->
          let what = Printf.sprintf "%s %s t%d" name w.name threads in
          let log = { polls = 0; fires = 0; splits = 0 } in
          let spec = Runner.spec ~threads runtime w in
          let r =
            Runner.exec
              ~hooks:
                { Runner.no_hooks with policy = Policy (lockstep_policy log model) }
              spec
          in
          check_lockstep what log;
          Alcotest.(check string) (what ^ ": same run")
            (Runner.run_spec spec).Runner.signature
            (Engine.output_signature r))
        cases)
    fence_models

let run_lockstep model main =
  let log = { polls = 0; fires = 0; splits = 0 } in
  let r = Engine.run (lockstep_policy log model) ~main in
  (log, r)

let test_lockstep_join_exited () =
  (* the child exits in the first serial phase; the parent joins it much
     later, when it is no longer live *)
  let main () =
    let c = Api.spawn (fun () -> Api.store (base 0) 5) in
    Api.tick 60_000;
    Api.store (base 1) 6;
    Api.join c;
    Api.output_int (Api.load (base 0))
  in
  List.iter
    (fun (name, model, _) ->
      let log, r = run_lockstep model main in
      check_lockstep (name ^ " join of an exited thread") log;
      Alcotest.(check (list (pair int int64)))
        (name ^ ": child's store seen") [ (0, 5L) ]
        r.Engine.outputs)
    fence_models

let test_lockstep_quantum () =
  (* one thread computes and stores through many quanta while another
     blocks on a mutex: quantum arrivals, exclusion and wakes interleave *)
  let main () =
    let m = Api.mutex_create () in
    let c =
      Api.spawn (fun () ->
          for i = 1 to 40 do
            Api.tick 700;
            Api.store (base 0 + (8 * i)) i
          done)
    in
    let l =
      Api.spawn (fun () ->
          for _ = 1 to 5 do
            Api.with_lock m (fun () -> Api.store (base 1) (Api.load (base 1) + 1))
          done)
    in
    Api.with_lock m (fun () -> Api.tick 5_000);
    Api.join c;
    Api.join l;
    Api.output_int (Api.load (base 1))
  in
  let log, r = run_lockstep (Fence.Coredet { quantum = 2_000 }) main in
  check_lockstep "coredet quantum expiry" log;
  Alcotest.(check bool) "quanta expired" true
    (r.Engine.profile.Rfdet_sim.Profile.barrier_stalls > 10);
  Alcotest.(check (list (pair int int64))) "counter" [ (0, 5L) ] r.Engine.outputs

let suites =
  [
    ( "twins",
      [
        Alcotest.test_case "window edges" `Quick test_window_edges;
        Alcotest.test_case "add_window validation" `Quick test_diff_window_validation;
        Alcotest.test_case "pool recycles" `Quick test_pool_recycles;
        QCheck_alcotest.to_alcotest prop_windowed_equals_full;
        Alcotest.test_case "runtime windows (directed)" `Quick
          test_runtime_windows_directed;
      ]
      @ List.map
          (fun r -> QCheck_alcotest.to_alcotest (prop_runtime_windows r))
          window_runtimes );
    ( "fence trigger",
      [
        Alcotest.test_case "lockstep: micros, prodcons, kvserver-rw" `Quick
          test_lockstep_workloads;
        Alcotest.test_case "lockstep: join of an exited thread" `Quick
          test_lockstep_join_exited;
        Alcotest.test_case "lockstep: coredet quantum expiry" `Quick
          test_lockstep_quantum;
      ] );
  ]
