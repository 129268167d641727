open Rfdet_util

let vc l = Vclock.of_list l

let test_create () =
  let c = Vclock.create 4 in
  Alcotest.(check (list int)) "zero" [ 0; 0; 0; 0 ] (Vclock.to_list c)

let test_tick () =
  let c = Vclock.create 3 in
  Alcotest.(check int) "tick returns new value" 1 (Vclock.tick c 1);
  Alcotest.(check int) "tick again" 2 (Vclock.tick c 1);
  Alcotest.(check (list int)) "components" [ 0; 2; 0 ] (Vclock.to_list c)

let test_join () =
  let a = vc [ 1; 5; 2 ] and b = vc [ 3; 1; 2 ] in
  Vclock.join a b;
  Alcotest.(check (list int)) "lub" [ 3; 5; 2 ] (Vclock.to_list a);
  Alcotest.(check (list int)) "src untouched" [ 3; 1; 2 ] (Vclock.to_list b)

let test_min_into () =
  let a = vc [ 5; 2; 7 ] in
  Vclock.min_into a (vc [ 3; 4; 7 ]);
  Alcotest.(check (list int)) "glb" [ 3; 2; 7 ] (Vclock.to_list a)

let test_size_mismatch () =
  let a = Vclock.create 2 and b = Vclock.create 3 in
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "join" "Vclock.join: size mismatch" (fun () -> Vclock.join a b);
  raises "min_into" "Vclock.min_into: size mismatch" (fun () ->
      Vclock.min_into a b);
  raises "leq" "Vclock.leq: size mismatch" (fun () -> Vclock.leq a b);
  raises "lt" "Vclock.leq: size mismatch" (fun () -> Vclock.lt b a);
  raises "compare_partial" "Vclock.leq: size mismatch" (fun () ->
      Vclock.compare_partial a b);
  Alcotest.(check bool) "equal" false (Vclock.equal a b);
  Alcotest.(check bool)
    "equal, zero-padded" false
    (Vclock.equal (vc [ 1; 2 ]) (vc [ 1; 2; 0 ]))

(* qcheck generators *)

let gen_clock n =
  QCheck2.Gen.(map Vclock.of_list (list_size (return n) (int_bound 8)))

let prop_join_upper_bound =
  QCheck2.Test.make ~name:"vclock: join is an upper bound" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      let j = Vclock.joined a b in
      Vclock.leq a j && Vclock.leq b j)

let prop_join_least =
  QCheck2.Test.make ~name:"vclock: join is the least upper bound" ~count:300
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (a, b, c) ->
      let j = Vclock.joined a b in
      if Vclock.leq a c && Vclock.leq b c then Vclock.leq j c else true)

let prop_join_commutative =
  QCheck2.Test.make ~name:"vclock: join commutative" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) -> Vclock.equal (Vclock.joined a b) (Vclock.joined b a))

let prop_join_associative =
  QCheck2.Test.make ~name:"vclock: join associative" ~count:300
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (a, b, c) ->
      Vclock.equal
        (Vclock.joined (Vclock.joined a b) c)
        (Vclock.joined a (Vclock.joined b c)))

let prop_leq_antisym =
  QCheck2.Test.make ~name:"vclock: leq antisymmetric" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      if Vclock.leq a b && Vclock.leq b a then Vclock.equal a b else true)

let prop_leq_transitive =
  QCheck2.Test.make ~name:"vclock: leq transitive" ~count:300
    QCheck2.Gen.(triple (gen_clock 3) (gen_clock 3) (gen_clock 3))
    (fun (a, b, c) ->
      if Vclock.leq a b && Vclock.leq b c then Vclock.leq a c else true)

let prop_partial_consistent =
  QCheck2.Test.make ~name:"vclock: compare_partial agrees with leq" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      match Vclock.compare_partial a b with
      | Vclock.Equal -> Vclock.equal a b
      | Less -> Vclock.lt a b
      | Greater -> Vclock.lt b a
      | Concurrent -> (not (Vclock.leq a b)) && not (Vclock.leq b a))

let prop_lt_irreflexive_strict =
  QCheck2.Test.make ~name:"vclock: lt is the strict part of leq" ~count:300
    QCheck2.Gen.(pair (gen_clock 4) (gen_clock 4))
    (fun (a, b) ->
      (not (Vclock.lt a a))
      && Vclock.lt a b = (Vclock.leq a b && not (Vclock.equal a b)))

(* --- against a list-based reference ---------------------------------

   The laws above hold at widths 3-4.  This pins every comparison to
   the plain definitions (with [lt] as [leq] and not structurally equal)
   at every width up to the runtime's 64, where an off-by-one loop bound
   would only show in the last component. *)

module Ref = struct
  let leq a b = List.for_all2 ( <= ) a b

  let lt a b = leq a b && not (a = b)

  let compare_partial a b : Vclock.order =
    match leq a b, leq b a with
    | true, true -> Equal
    | true, false -> Less
    | false, true -> Greater
    | false, false -> Concurrent
end

(* Pairs of one width in 1-64 (64 boosted), components 0-8, where [b] is
   [a] itself, [a] with some components raised, [a] with one component
   changed (often the last), or independent — so every [order] and every
   position of the first difference occurs. *)
let gen_ref_pair =
  let open QCheck2.Gen in
  let* n = frequency [ (1, return 64); (3, int_range 1 64) ] in
  let* a = list_size (return n) (int_bound 8) in
  let* b =
    oneof
      [
        return a;
        map
          (List.map2 (fun x up -> if up then min 8 (x + 1) else x) a)
          (list_size (return n)
             (frequency [ (1, return true); (5, return false) ]));
        (let* i = oneof [ return (n - 1); return 0; int_bound (n - 1) ] in
         let* v = int_bound 8 in
         return (List.mapi (fun j x -> if j = i then v else x) a));
        list_size (return n) (int_bound 8);
      ]
  in
  oneof [ return (a, b); return (b, a) ]

let prop_matches_reference =
  QCheck2.Test.make ~name:"vclock: widths 1-64 match the list reference"
    ~count:1000
    ~print:QCheck2.Print.(pair (list int) (list int))
    gen_ref_pair
    (fun (a, b) ->
      let ca = Vclock.of_list a and cb = Vclock.of_list b in
      let into f =
        let d = Vclock.copy ca in
        f d cb;
        Vclock.to_list d
      in
      Vclock.leq ca cb = Ref.leq a b
      && Vclock.lt ca cb = Ref.lt a b
      && Vclock.equal ca cb = (a = b)
      && Vclock.compare_partial ca cb = Ref.compare_partial a b
      && into Vclock.join = List.map2 max a b
      && into Vclock.min_into = List.map2 min a b
      && Vclock.to_list ca = a
      && Vclock.to_list cb = b)

(* --- the Figure-5 propagation filters --------------------------------

   At an acquire, a slice with timestamp [s] is propagated iff
   [lt s upper && not (lt s lower)]: the upper limit admits only what
   happens-before the acquired position, and the lower limit drops what
   the acquirer has already merged.  These properties pin down why that
   filter pair is safe: it is monotone (growing limits never flip an
   earlier decision the wrong way), causally closed (an admitted
   slice's predecessors are admitted), and self-limiting (once a slice
   is admitted, the acquirer's joined time blocks it forever — the
   never-propagate-twice guarantee the metadata GC relies on). *)

let passes ~upper ~lower s = Vclock.lt s upper && not (Vclock.lt s lower)

let prop_filter_upper_monotone =
  QCheck2.Test.make
    ~name:"figure5: enlarging the upper limit only admits more" ~count:500
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (pair (gen_clock 4) (gen_clock 4)))
    (fun (s, lower, (u, d)) ->
      let u' = Vclock.joined u d in
      if passes ~upper:u ~lower s then passes ~upper:u' ~lower s else true)

let prop_filter_lower_monotone =
  QCheck2.Test.make
    ~name:"figure5: a slice redundant under a lower limit stays redundant"
    ~count:500
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (s, l, d) ->
      let l' = Vclock.joined l d in
      if Vclock.lt s l then Vclock.lt s l' else true)

let prop_filter_transitive =
  QCheck2.Test.make
    ~name:"figure5: admission is causally closed (lt transitive)" ~count:500
    QCheck2.Gen.(triple (gen_clock 4) (gen_clock 4) (gen_clock 4))
    (fun (s1, s2, upper) ->
      if Vclock.lt s1 s2 && Vclock.lt s2 upper then Vclock.lt s1 upper
      else true)

let prop_filter_never_twice =
  QCheck2.Test.make
    ~name:"figure5: an admitted slice can never be admitted again"
    ~count:500
    QCheck2.Gen.(
      triple (gen_clock 4) (pair (gen_clock 4) (gen_clock 4)) (gen_clock 4))
    (fun (s, (release, lower), next_upper) ->
      if passes ~upper:release ~lower s then
        (* after the acquire the thread's time includes the release time *)
        let lower' = Vclock.joined lower release in
        not (passes ~upper:next_upper ~lower:lower' s)
      else true)

(* --- the epoch form of the filter pair ---------------------------------

   [Propagate.admits] decides the pair above on one word, the slice's
   epoch (its publisher's own component).  That is exact only under the
   runtime's clock discipline: every slice close is followed by a tick
   of the closer's component, and a clock reaches component [i] = [e]
   only by joining a clock thread [i] produced at or after closing its
   epoch-[e] slice.  These histories follow that discipline over 2-64
   threads — release (close, stamp, tick), acquire with and without
   slice merging, fork, join, barrier (leader merge plus follower
   join), exit and crash — and compare both forms at every acquire for
   every slice closed so far.  The acquirer's own slice closed by the
   acquire itself is left out: it equals [lower], never sits in a remote
   list, and is the one slice the two forms disagree on. *)

module Slice = Rfdet_core.Slice
module Propagate = Rfdet_core.Propagate

let width = 64 (* Rfdet_runtime.max_threads *)

type hist = {
  clocks : Vclock.t option array;  (* Some = live *)
  finals : Vclock.t option array;  (* exit stamps *)
  mutable slices : Slice.t list;
  releases : (int, int * Vclock.t) Hashtbl.t;  (* obj -> releaser, stamp *)
  mutable checked : int;
  mutable admitted : int;
}

exception Epoch_mismatch of string

let close h tid ~dirty =
  match h.clocks.(tid) with
  | Some time when dirty ->
    let s =
      Slice.make ~id:(List.length h.slices) ~tid ~mods:Rfdet_mem.Diff.empty
        ~time:(Vclock.copy time)
    in
    h.slices <- s :: h.slices;
    Some s
  | Some _ | None -> None

let compare_filters h ~into ~own ~upper ~lower =
  List.iter
    (fun (s : Slice.t) ->
      if not (match own with Some o -> o == s | None -> false) then begin
        let full = Vclock.lt s.time upper && not (Vclock.lt s.time lower) in
        let epoch = Propagate.admits ~upper ~lower s in
        h.checked <- h.checked + 1;
        if full then h.admitted <- h.admitted + 1;
        if full <> epoch then
          raise
            (Epoch_mismatch
               (Format.asprintf
                  "slice %d (tid %d, epoch %d) into tid %d: full %b, epoch %b \
                   (upper %a, lower %a)"
                  s.id s.tid s.epoch into full epoch Vclock.pp upper Vclock.pp
                  lower))
      end)
    h.slices

(* close, snapshot the lower limit, tick, join [incoming], compare *)
let acquire_from h tid ~dirty ~incoming =
  let time = Option.get h.clocks.(tid) in
  let own = close h tid ~dirty in
  let lower = Vclock.copy time in
  ignore (Vclock.tick time tid);
  Vclock.join time incoming;
  compare_filters h ~into:tid ~own ~upper:(Vclock.copy time) ~lower

let live h =
  List.filter (fun i -> Option.is_some h.clocks.(i)) (List.init width Fun.id)

let pick l k = List.nth l (k mod List.length l)

let step h ~nthreads (kind, a, b) =
  let alive = live h in
  let tid = pick alive a in
  let time = Option.get h.clocks.(tid) in
  let dirty = b land 1 = 0 in
  let obj = (b lsr 1) mod 4 in
  match kind with
  | 0 | 1 ->
    ignore (close h tid ~dirty);
    let stamp = Vclock.copy time in
    ignore (Vclock.tick time tid);
    Hashtbl.replace h.releases obj (tid, stamp)
  | 2 | 3 -> (
    match Hashtbl.find_opt h.releases obj with
    | Some (last, _) when last = tid && b land 8 = 0 ->
      () (* slice merging: the slice stays open, nothing ticks *)
    | Some (_, stamp) -> acquire_from h tid ~dirty ~incoming:stamp
    | None ->
      ignore (close h tid ~dirty);
      ignore (Vclock.tick time tid))
  | 4 -> (
    match
      List.find_opt
        (fun i -> Option.is_none h.clocks.(i) && Option.is_none h.finals.(i))
        (List.init nthreads Fun.id)
    with
    | None -> ()
    | Some child ->
      ignore (close h tid ~dirty);
      let stamp = Vclock.copy time in
      ignore (Vclock.tick time tid);
      let c = Vclock.copy stamp in
      ignore (Vclock.tick c child);
      h.clocks.(child) <- Some c)
  | 5 -> (
    let exited =
      List.filter (fun i -> Option.is_some h.finals.(i)) (List.init width Fun.id)
    in
    match exited with
    | [] -> ()
    | _ ->
      let target = pick exited b in
      acquire_from h tid ~dirty ~incoming:(Option.get h.finals.(target)))
  | 6 when List.length alive >= 2 ->
    let parties =
      match List.filteri (fun i _ -> (b lsr i) land 1 = 1) alive with
      | _ :: _ :: _ as l -> l
      | _ -> alive
    in
    let owns = List.map (fun p -> (p, close h p ~dirty)) parties in
    let joint = Vclock.create width in
    List.iter (fun p -> Vclock.join joint (Option.get h.clocks.(p))) parties;
    let leader = List.hd parties in
    let ltime = Option.get h.clocks.(leader) in
    let lower = Vclock.copy ltime in
    Vclock.join ltime joint;
    ignore (Vclock.tick ltime leader);
    compare_filters h ~into:leader ~own:(List.assoc leader owns)
      ~upper:(Vclock.copy ltime) ~lower;
    List.iter
      (fun p ->
        if p <> leader then begin
          let t = Option.get h.clocks.(p) in
          Vclock.join t joint;
          ignore (Vclock.tick t p)
        end)
      parties
  | 7 when tid <> 0 ->
    (* exit closes its slice; a crash drops it unclosed *)
    if b land 2 = 0 then ignore (close h tid ~dirty);
    h.finals.(tid) <- Some (Vclock.copy time);
    ignore (Vclock.tick time tid);
    h.clocks.(tid) <- None
  | _ -> ()

let run_history (nthreads, events) =
  let h =
    {
      clocks =
        Array.init width (fun i ->
            if i = 0 then Some (Vclock.create width) else None);
      finals = Array.make width None;
      slices = [];
      releases = Hashtbl.create 4;
      checked = 0;
      admitted = 0;
    }
  in
  List.iter (step h ~nthreads) events;
  h

let gen_history =
  QCheck2.Gen.(
    pair (int_range 2 64)
      (list_size (int_range 1 250)
         (triple (int_bound 7) (int_bound 63) (int_bound 1023))))

let prop_epoch_filter_exact =
  QCheck2.Test.make
    ~name:"figure5: epoch filter == full-clock filter on runtime histories"
    ~count:300 gen_history (fun hist ->
      match run_history hist with
      | _ -> true
      | exception Epoch_mismatch m -> QCheck2.Test.fail_report m)

let test_epoch_histories_nontrivial () =
  (* the property above must see both verdicts, or it proves nothing *)
  let rand = Random.State.make [| 12 |] in
  let totals =
    List.map run_history (QCheck2.Gen.generate ~rand ~n:40 gen_history)
  in
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 totals in
  let checked = sum (fun h -> h.checked) and admitted = sum (fun h -> h.admitted) in
  Alcotest.(check bool)
    (Printf.sprintf "admitted %d of %d" admitted checked)
    true
    (admitted > 0 && admitted < checked)

let suites =
  [
    ( "vclock",
      [
        Alcotest.test_case "create" `Quick test_create;
        Alcotest.test_case "tick" `Quick test_tick;
        Alcotest.test_case "join" `Quick test_join;
        Alcotest.test_case "min_into" `Quick test_min_into;
        Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
        QCheck_alcotest.to_alcotest prop_join_upper_bound;
        QCheck_alcotest.to_alcotest prop_join_least;
        QCheck_alcotest.to_alcotest prop_join_commutative;
        QCheck_alcotest.to_alcotest prop_join_associative;
        QCheck_alcotest.to_alcotest prop_leq_antisym;
        QCheck_alcotest.to_alcotest prop_leq_transitive;
        QCheck_alcotest.to_alcotest prop_partial_consistent;
        QCheck_alcotest.to_alcotest prop_lt_irreflexive_strict;
        QCheck_alcotest.to_alcotest prop_filter_upper_monotone;
        QCheck_alcotest.to_alcotest prop_filter_lower_monotone;
        QCheck_alcotest.to_alcotest prop_filter_transitive;
        QCheck_alcotest.to_alcotest prop_filter_never_twice;
        QCheck_alcotest.to_alcotest prop_epoch_filter_exact;
        Alcotest.test_case "epoch histories admit and reject" `Quick
          test_epoch_histories_nontrivial;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
