open Rfdet_mem

let page_of_writes writes =
  let b = Bytes.make Page.size '\000' in
  List.iter (fun (off, v) -> Bytes.set b off (Char.chr (v land 0xff))) writes;
  b

let test_no_change () =
  let snap = Bytes.make Page.size 'a' in
  let cur = Bytes.copy snap in
  Alcotest.(check bool) "empty diff" true
    (Diff.is_empty (Diff.diff_page ~page_id:0 ~snapshot:snap ~current:cur))

let test_single_byte () =
  let snap = Bytes.make Page.size '\000' in
  let cur = Bytes.copy snap in
  Bytes.set cur 42 'Z';
  let d = Diff.diff_page ~page_id:3 ~snapshot:snap ~current:cur in
  Alcotest.(check int) "one run" 1 (Diff.run_count d);
  Alcotest.(check int) "one byte" 1 (Diff.byte_count d);
  match Diff.runs d with
  | [ { Diff.addr; data } ] ->
    Alcotest.(check int) "absolute addr" ((3 * Page.size) + 42) addr;
    Alcotest.(check string) "data" "Z" data
  | _ -> Alcotest.fail "expected a single run"

let test_runs_merged () =
  let snap = Bytes.make Page.size '\000' in
  let cur = Bytes.copy snap in
  (* Two adjacent changed bytes are one run; a gap splits runs. *)
  Bytes.set cur 10 'a';
  Bytes.set cur 11 'b';
  Bytes.set cur 13 'c';
  let d = Diff.diff_page ~page_id:0 ~snapshot:snap ~current:cur in
  Alcotest.(check int) "two runs" 2 (Diff.run_count d);
  Alcotest.(check int) "three bytes" 3 (Diff.byte_count d)

let test_redundant_write_invisible () =
  (* Overwriting a location with the value it already held produces no
     modification — the paper's Section 4.6 correctness case. *)
  let snap = Bytes.make Page.size '\000' in
  Bytes.set snap 5 'q';
  let cur = Bytes.copy snap in
  Bytes.set cur 5 'q';
  let d = Diff.diff_page ~page_id:0 ~snapshot:snap ~current:cur in
  Alcotest.(check bool) "redundant store dropped" true (Diff.is_empty d)

let test_apply_roundtrip () =
  let snap = page_of_writes [ (0, 1); (100, 2) ] in
  let cur = page_of_writes [ (0, 9); (100, 2); (200, 7) ] in
  let d = Diff.diff_page ~page_id:0 ~snapshot:snap ~current:cur in
  let s = Space.create () in
  Space.write_page s 0 snap;
  Diff.apply s d;
  for i = 0 to Page.size - 1 do
    if Space.load_byte s i <> Char.code (Bytes.get cur i) then
      Alcotest.failf "byte %d differs after apply" i
  done

let test_byte_merge_511 () =
  (* The paper's example: y=256 from one thread, y=255 from another,
     against initial y=0, merged at byte granularity gives 511. *)
  let initial = Bytes.make Page.size '\000' in
  (* Thread A writes the 32-bit value 256 at offset 0. *)
  let a = Bytes.copy initial in
  Bytes.set_int32_le a 0 256l;
  (* Thread B writes the 32-bit value 255 at offset 0. *)
  let b = Bytes.copy initial in
  Bytes.set_int32_le b 0 255l;
  let diff_a = Diff.diff_page ~page_id:0 ~snapshot:initial ~current:a in
  let diff_b = Diff.diff_page ~page_id:0 ~snapshot:initial ~current:b in
  (* B's memory receives A's (non-overlapping-byte) modification. *)
  let s = Space.create () in
  Space.write_page s 0 b;
  Diff.apply s diff_a;
  let merged =
    Space.load_byte s 0
    lor (Space.load_byte s 1 lsl 8)
    lor (Space.load_byte s 2 lsl 16)
    lor (Space.load_byte s 3 lsl 24)
  in
  Alcotest.(check int) "255 | 256 = 511" 511 merged;
  Alcotest.(check int) "A's diff touches byte 1 only" 1
    (Diff.byte_count diff_a);
  Alcotest.(check int) "B's diff touches byte 0 only" 1 (Diff.byte_count diff_b)

let test_page_index () =
  let d =
    Diff.of_runs
      [
        { Diff.addr = Page.size + 1; data = "c" };
        { Diff.addr = 5; data = "ab" };
        { Diff.addr = 10; data = "d" };
      ]
  in
  Alcotest.(check (list int)) "pages ascending" [ 0; 1 ]
    (List.init (Diff.page_count d) (Diff.page_id d));
  Alcotest.(check (list (pair int int))) "page bytes" [ (0, 3); (1, 1) ]
    (Diff.pages_of_mods d);
  Alcotest.(check (list (pair int int))) "page 0 has 2 runs, page 1 has 1"
    [ (0, 2); (1, 1) ]
    (List.map (fun (p, rs) -> (p, List.length rs)) (Diff.runs_by_page d));
  Alcotest.(check (list int)) "runs keep first-touch page order"
    [ Page.size + 1; 5; 10 ]
    (List.map (fun (r : Diff.run) -> r.addr) (Diff.runs d));
  Alcotest.check_raises "page added twice"
    (Invalid_argument "Diff.finish: page 0 added twice") (fun () ->
      let b = Diff.builder () in
      let snap = Bytes.make Page.size '\000' in
      let cur = Bytes.make Page.size '\001' in
      Diff.add_page b ~page_id:0 ~snapshot:snap ~current:cur;
      Diff.add_page b ~page_id:0 ~snapshot:snap ~current:cur;
      ignore (Diff.finish b));
  Alcotest.check_raises "run crossing a page"
    (Invalid_argument "Diff.of_runs: a run must be non-empty and on one page")
    (fun () -> ignore (Diff.of_runs [ { Diff.addr = Page.size - 1; data = "ab" } ]))

let test_size_validation () =
  Alcotest.check_raises "bad sizes"
    (Invalid_argument "Diff.diff_page: buffers must be page-sized") (fun () ->
      ignore
        (Diff.diff_page ~page_id:0 ~snapshot:(Bytes.create 3)
           ~current:(Bytes.create 3)))

let gen_page =
  (* Sparse random page contents: a few byte writes over zeros. *)
  QCheck2.Gen.(
    map page_of_writes
      (list_size (int_bound 40)
         (pair (int_bound (Page.size - 1)) (int_bound 255))))

let prop_diff_apply_roundtrip =
  QCheck2.Test.make ~name:"diff: apply (diff snap cur) snap == cur" ~count:200
    QCheck2.Gen.(pair gen_page gen_page)
    (fun (snap, cur) ->
      let d = Diff.diff_page ~page_id:2 ~snapshot:snap ~current:cur in
      let s = Space.create () in
      Space.write_page s 2 snap;
      Diff.apply s d;
      let ok = ref true in
      for i = 0 to Page.size - 1 do
        if Space.load_byte s ((2 * Page.size) + i) <> Char.code (Bytes.get cur i)
        then ok := false
      done;
      !ok)

(* The word-level fast path must be extensionally equal to the
   byte-at-a-time oracle: same runs, same boundaries, same data. *)
let check_same_as_bytewise ~msg snap cur =
  let fast = Diff.diff_page ~page_id:1 ~snapshot:snap ~current:cur in
  let slow = Diff.diff_page_bytewise ~page_id:1 ~snapshot:snap ~current:cur in
  Alcotest.(check bool)
    (msg ^ ": word diff = bytewise diff")
    true (Diff.runs fast = slow)

let test_word_vs_bytewise_directed () =
  let fresh () = Bytes.make Page.size '\000' in
  (* run starting at offset 0 *)
  let snap = fresh () and cur = fresh () in
  Bytes.set cur 0 'x';
  check_same_as_bytewise ~msg:"offset 0" snap cur;
  (* run ending at the last byte of the page *)
  let snap = fresh () and cur = fresh () in
  Bytes.set cur (Page.size - 1) 'x';
  check_same_as_bytewise ~msg:"last byte" snap cur;
  (* run straddling a word boundary *)
  let snap = fresh () and cur = fresh () in
  Bytes.fill cur 6 4 'x';
  check_same_as_bytewise ~msg:"word straddle" snap cur;
  (* run straddling the 32-byte unrolled stride *)
  let snap = fresh () and cur = fresh () in
  Bytes.fill cur 30 4 'x';
  check_same_as_bytewise ~msg:"stride straddle" snap cur;
  (* all-equal and all-different pages *)
  let snap = fresh () and cur = fresh () in
  check_same_as_bytewise ~msg:"all equal" snap cur;
  let snap = fresh () in
  let cur = Bytes.make Page.size '\001' in
  check_same_as_bytewise ~msg:"all different" snap cur;
  (* alternating equal/different bytes: worst case for run bookkeeping *)
  let snap = fresh () and cur = fresh () in
  let i = ref 0 in
  while !i < Page.size do
    Bytes.set cur !i 'x';
    i := !i + 2
  done;
  check_same_as_bytewise ~msg:"alternating" snap cur

let prop_word_diff_equals_bytewise =
  QCheck2.Test.make ~name:"diff: word-level diff == bytewise oracle"
    ~count:300
    QCheck2.Gen.(pair gen_page gen_page)
    (fun (snap, cur) ->
      Diff.runs (Diff.diff_page ~page_id:7 ~snapshot:snap ~current:cur)
      = Diff.diff_page_bytewise ~page_id:7 ~snapshot:snap ~current:cur)

let gen_run_page =
  (* Pages built from byte runs rather than isolated bytes, to exercise
     run-boundary placement around word and stride edges. *)
  QCheck2.Gen.(
    map
      (fun runs ->
        let b = Bytes.make Page.size '\000' in
        List.iter
          (fun (off, len, v) ->
            let off = off mod Page.size in
            let len = min (len + 1) (Page.size - off) in
            Bytes.fill b off len (Char.chr (v land 0xff)))
          runs;
        b)
      (list_size (int_bound 8)
         (triple (int_bound (Page.size - 1)) (int_bound 70) (int_bound 255))))

let prop_word_diff_equals_bytewise_runs =
  QCheck2.Test.make ~name:"diff: word diff == bytewise oracle (run-shaped)"
    ~count:300
    QCheck2.Gen.(pair gen_run_page gen_run_page)
    (fun (snap, cur) ->
      Diff.runs (Diff.diff_page ~page_id:0 ~snapshot:snap ~current:cur)
      = Diff.diff_page_bytewise ~page_id:0 ~snapshot:snap ~current:cur)

let prop_diff_minimal =
  QCheck2.Test.make ~name:"diff: only differing bytes are recorded" ~count:200
    QCheck2.Gen.(pair gen_page gen_page)
    (fun (snap, cur) ->
      let d = Diff.diff_page ~page_id:0 ~snapshot:snap ~current:cur in
      let expected = ref 0 in
      for i = 0 to Page.size - 1 do
        if Bytes.get snap i <> Bytes.get cur i then incr expected
      done;
      Diff.byte_count d = !expected)

(* --- the packed format against the run lists it replaced -------------- *)

(* The list code the packed [Diff.t] replaced, kept as the reference:
   counts, the grouping, the application and the slice checksum. *)
module Ref = struct
  let byte_count runs =
    List.fold_left (fun acc (r : Diff.run) -> acc + String.length r.data) 0 runs

  (* Most slices touch one page and pass through as they are.  Otherwise
     one pass splits the list into per-page segments, the segments are
     sorted by page id and a page split over two segments is joined
     back, so any list groups exactly. *)
  let runs_by_page (mods : Diff.run list) =
    let page (r : Diff.run) = Page.id_of_addr r.addr in
    match mods with
    | [] -> []
    | first :: _ when List.for_all (fun r -> page r = page first) mods ->
      [ (page first, mods) ]
    | _ ->
      List.fold_left
        (fun segs r ->
          match segs with
          | (p, runs) :: rest when p = page r -> (p, r :: runs) :: rest
          | _ -> (page r, [ r ]) :: segs)
        [] mods
      |> List.rev_map (fun (p, runs) -> (p, List.rev runs))
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.fold_left
           (fun groups (p, runs) ->
             match groups with
             | (q, prev) :: rest when q = p -> (q, prev @ runs) :: rest
             | _ -> (p, runs) :: groups)
           []
      |> List.rev

  let pages_of_mods mods =
    List.map (fun (page, runs) -> (page, byte_count runs)) (runs_by_page mods)

  let apply space runs =
    List.iter
      (fun (r : Diff.run) ->
        Bytes.blit_string r.data 0
          (Space.own_page space (Page.id_of_addr r.addr))
          (Page.offset_of_addr r.addr) (String.length r.data))
      runs

  let mix h x = ((h lxor x) * 0x100000001b3) land max_int

  let mix_string h s =
    let n = String.length s in
    let h = ref h in
    let i = ref 0 in
    while !i + 8 <= n do
      let w = String.get_int64_le s !i in
      h := mix !h (Int64.to_int (Int64.logand w 0xFFFFFFFFL));
      h := mix !h (Int64.to_int (Int64.shift_right_logical w 32));
      i := !i + 8
    done;
    while !i < n do
      h := mix !h (Char.code s.[!i]);
      incr i
    done;
    !h

  let checksum ~tid ~runs ~time =
    let h = ref (mix 0x27d4eb2f tid) in
    List.iter (fun v -> h := mix !h v) (Rfdet_util.Vclock.to_list time);
    List.iter
      (fun (r : Diff.run) ->
        h := mix !h r.addr;
        h := mix_string !h r.data)
      runs;
    !h
end

(* [Diff.runs_by_page] against the per-slice table the list grouping
   replaced: same groups, page id ascending, runs in list order — for any
   list, including pages split over several segments, which slices from
   [close_slice] never have ([of_runs] joins them). *)
let by_page_table (mods : Diff.run list) =
  let by_page = Hashtbl.create 8 in
  List.iter
    (fun (r : Diff.run) ->
      let page = Page.id_of_addr r.addr in
      let existing = Option.value (Hashtbl.find_opt by_page page) ~default:[] in
      Hashtbl.replace by_page page (r :: existing))
    mods;
  Hashtbl.fold (fun p rs acc -> (p, List.rev rs) :: acc) by_page []
  |> List.sort compare

let prop_runs_by_page =
  QCheck2.Test.make ~name:"diff: runs_by_page == per-slice table"
    ~count:500
    QCheck2.Gen.(
      list_size (int_bound 40)
        (pair (pair (int_bound 3) (int_bound (Page.size - 8))) (string_size (int_range 1 8))))
    (fun runs ->
      let runs =
        List.map
          (fun ((page, off), data) -> { Diff.addr = Page.base_of_id page + off; data })
          runs
      in
      let mods = Diff.of_runs runs in
      Diff.runs_by_page mods = by_page_table runs
      && Diff.runs_by_page mods = Ref.runs_by_page runs
      && Diff.pages_of_mods mods
         = List.map (fun (p, rs) -> (p, Ref.byte_count rs)) (by_page_table runs))

(* A multi-page slice: 2–6 distinct pages in random first-touch order,
   each a (snapshot, current) pair whose differences include single
   bytes, runs of up to 70 bytes and, on every other page, a run ending
   on the page's last byte. *)
let gen_slice_pages =
  QCheck2.Gen.(
    let page_pair =
      map
        (fun (writes, last) ->
          let snap = Bytes.make Page.size '\000' in
          let cur = Bytes.copy snap in
          List.iter
            (fun (off, len, v) ->
              let len = min (len + 1) (Page.size - off) in
              Bytes.fill cur off len (Char.chr (1 + (v mod 255))))
            writes;
          if last > 0 then Bytes.fill cur (Page.size - last) last '\007';
          (snap, cur))
        (pair
           (list_size (int_range 1 12)
              (triple (int_bound (Page.size - 1)) (oneofl [ 0; 0; 3; 70 ])
                 (int_bound 254)))
           (oneofl [ 0; 1; 5 ]))
    in
    int_range 2 6 >>= fun n ->
    pair (shuffle_l (List.init 16 Fun.id)) (list_repeat n page_pair)
    >|= fun (ids, pairs) -> List.combine (List.filteri (fun i _ -> i < n) ids) pairs)

let packed pages =
  let b = Diff.builder () in
  List.iter
    (fun (page_id, (snapshot, current)) -> Diff.add_page b ~page_id ~snapshot ~current)
    pages;
  Diff.finish b

let reference pages =
  List.concat_map
    (fun (page_id, (snapshot, current)) ->
      Diff.diff_page_bytewise ~page_id ~snapshot ~current)
    pages

let same_pages spaces pages =
  List.for_all
    (fun (page, _) ->
      let image s = Space.read_string s ~addr:(Page.base_of_id page) ~len:Page.size in
      match spaces with
      | [] -> true
      | s0 :: rest -> List.for_all (fun s -> image s = image s0) rest)
    pages

let prop_packed_equals_lists =
  QCheck2.Test.make ~name:"diff: packed slice == list reference" ~count:200
    QCheck2.Gen.(pair gen_slice_pages gen_slice_pages)
    (fun (pages_a, pages_b) ->
      let a = packed pages_a and b = packed pages_b in
      let ra = reference pages_a and rb = reference pages_b in
      let time = Rfdet_util.Vclock.of_list [ 3; 1; 4; 1; 5 ] in
      (* eager: each diff applied whole, [a] then [b] *)
      let eager = Space.create () in
      Diff.apply eager a;
      Diff.apply eager b;
      (* lazy: every page segment of [a], then of [b], queued and
         flushed; the bitmap counts each distinct byte once *)
      let ts = Rfdet_core.Tstate.create_root ~clock_size:2 ~monitoring:true in
      List.iter
        (fun d ->
          for k = 0 to Diff.page_count d - 1 do
            Rfdet_core.Tstate.add_pending ts d k
          done)
        [ a; b ];
      let touched = Bytes.create Page.size in
      let distinct =
        List.map
          (fun page -> (page, Rfdet_core.Tstate.flush_pending ts page ~touched))
          (Rfdet_core.Tstate.pending_pages ts)
      in
      let distinct_ref =
        List.map
          (fun (page, runs) ->
            let seen = Hashtbl.create 64 in
            List.iter
              (fun (r : Diff.run) ->
                String.iteri (fun i _ -> Hashtbl.replace seen (r.addr + i) ()) r.data)
              runs;
            (page, Hashtbl.length seen))
          (Ref.runs_by_page (ra @ rb))
      in
      let listed = Space.create () in
      Ref.apply listed (ra @ rb);
      Diff.runs a = ra
      && Diff.byte_count a = Ref.byte_count ra
      && Diff.run_count a = List.length ra
      && Diff.runs_by_page a = Ref.runs_by_page ra
      && Diff.pages_of_mods a = Ref.pages_of_mods ra
      && Rfdet_core.Slice.compute_checksum ~tid:2 ~mods:a ~time
         = Ref.checksum ~tid:2 ~runs:ra ~time
      && distinct = distinct_ref
      && same_pages [ listed; eager; ts.Rfdet_core.Tstate.shared ] (pages_a @ pages_b))

let suites =
  [
    ( "diff",
      [
        Alcotest.test_case "no change" `Quick test_no_change;
        Alcotest.test_case "single byte" `Quick test_single_byte;
        Alcotest.test_case "run merging" `Quick test_runs_merged;
        Alcotest.test_case "redundant write dropped" `Quick
          test_redundant_write_invisible;
        Alcotest.test_case "apply round trip" `Quick test_apply_roundtrip;
        Alcotest.test_case "byte-merge 255|256=511" `Quick test_byte_merge_511;
        Alcotest.test_case "page index" `Quick test_page_index;
        Alcotest.test_case "size validation" `Quick test_size_validation;
        Alcotest.test_case "word vs bytewise (directed)" `Quick
          test_word_vs_bytewise_directed;
        QCheck_alcotest.to_alcotest prop_word_diff_equals_bytewise;
        QCheck_alcotest.to_alcotest prop_word_diff_equals_bytewise_runs;
        QCheck_alcotest.to_alcotest prop_diff_apply_roundtrip;
        QCheck_alcotest.to_alcotest prop_diff_minimal;
        QCheck_alcotest.to_alcotest prop_runs_by_page;
        QCheck_alcotest.to_alcotest prop_packed_equals_lists;
      ] );
  ]
