(* Direct unit tests for the RFDet core data structures: Slice, Metadata
   (usage metering + GC), Tstate and Propagate. *)

module Slice = Rfdet_core.Slice
module Metadata = Rfdet_core.Metadata
module Tstate = Rfdet_core.Tstate
module Propagate = Rfdet_core.Propagate
module Options = Rfdet_core.Options
module Vclock = Rfdet_util.Vclock
module Diff = Rfdet_mem.Diff
module Space = Rfdet_mem.Space
module Page = Rfdet_mem.Page

let vc l = Vclock.of_list l

let slice ~id ~tid ~mods ~time = Slice.make ~id ~tid ~mods ~time:(vc time)

let run1 addr data = Diff.of_runs [ { Diff.addr; data } ]

(* --- Slice ------------------------------------------------------------ *)

let test_slice_basics () =
  let s = slice ~id:0 ~tid:1 ~mods:(run1 100 "abc") ~time:[ 1; 2 ] in
  Alcotest.(check int) "bytes" 3 s.Slice.bytes;
  Alcotest.(check int) "footprint" (Slice.overhead_bytes + 3) (Slice.footprint s);
  Alcotest.(check bool) "not freed" false s.Slice.freed;
  Slice.free s;
  Alcotest.(check bool) "freed" true s.Slice.freed;
  Alcotest.(check bool) "mods dropped" true (Diff.is_empty s.Slice.mods);
  Alcotest.(check int) "footprint remembers size" (Slice.overhead_bytes + 3)
    (Slice.footprint s)

(* --- Metadata ---------------------------------------------------------- *)

let test_metadata_usage_and_gc () =
  let m = Metadata.create ~capacity:200 ~gc_threshold:0.5 in
  Alcotest.(check int) "empty" 0 (Metadata.usage m);
  let s1 = slice ~id:(Metadata.fresh_slice_id m) ~tid:0 ~mods:(run1 0 "xy") ~time:[ 1; 0 ] in
  let s2 = slice ~id:(Metadata.fresh_slice_id m) ~tid:1 ~mods:(run1 8 "z") ~time:[ 0; 1 ] in
  Metadata.add_slice m s1;
  Metadata.add_slice m s2;
  Alcotest.(check int) "usage" (Slice.footprint s1 + Slice.footprint s2)
    (Metadata.usage m);
  Alcotest.(check bool) "needs gc" true (Metadata.needs_gc m);
  (* frontier dominates s1 only *)
  let examined, freed = Metadata.gc m ~frontier:(vc [ 5; 0 ]) in
  Alcotest.(check int) "examined" 2 examined;
  Alcotest.(check int) "freed one" 1 freed;
  Alcotest.(check bool) "s1 freed" true s1.Slice.freed;
  Alcotest.(check bool) "s2 live" false s2.Slice.freed;
  Alcotest.(check int) "usage shrank" (Slice.footprint s2) (Metadata.usage m);
  Alcotest.(check int) "gc runs" 1 (Metadata.gc_runs m);
  Alcotest.(check int) "live slices" 1 (Metadata.live_slices m)

let test_metadata_snapshot_metering () =
  let m = Metadata.create ~capacity:100_000 ~gc_threshold:0.9 in
  Metadata.snapshot_taken m;
  Alcotest.(check int) "one page" Page.size (Metadata.usage m);
  Metadata.snapshot_released m;
  Alcotest.(check int) "released" 0 (Metadata.usage m);
  Alcotest.(check int) "peak remembers" Page.size (Metadata.peak m)

let test_metadata_rearm () =
  (* after a sweep that frees nothing, GC must not retrigger until usage
     grows — the anti-thrash guard *)
  let m = Metadata.create ~capacity:1000 ~gc_threshold:0.3 in
  let s =
    slice ~id:0 ~tid:0 ~mods:(run1 0 (String.make 300 'x')) ~time:[ 9; 9 ]
  in
  Metadata.add_slice m s;
  Alcotest.(check bool) "over threshold" true (Metadata.needs_gc m);
  let _, freed = Metadata.gc m ~frontier:(vc [ 0; 0 ]) in
  Alcotest.(check int) "nothing freeable" 0 freed;
  Alcotest.(check bool) "re-armed off" false (Metadata.needs_gc m)

let test_metadata_validation () =
  Alcotest.check_raises "capacity" (Invalid_argument "Metadata.create: capacity <= 0")
    (fun () -> ignore (Metadata.create ~capacity:0 ~gc_threshold:0.5));
  Alcotest.check_raises "threshold"
    (Invalid_argument "Metadata.create: threshold out of (0,1]") (fun () ->
      ignore (Metadata.create ~capacity:10 ~gc_threshold:1.5))

(* --- Tstate ------------------------------------------------------------ *)

let test_tstate_fork_semantics () =
  let root = Tstate.create_root ~clock_size:4 ~monitoring:true in
  Space.store_int root.Tstate.shared 0 42;
  ignore (Vclock.tick root.Tstate.time 0);
  let s = slice ~id:0 ~tid:0 ~mods:(run1 0 "a") ~time:[ 1; 0; 0; 0 ] in
  Tstate.append_slice root s;
  let stamp = Vclock.copy root.Tstate.time in
  let child = Tstate.fork root ~tid:1 ~stamp in
  Alcotest.(check int) "memory inherited" 42 (Space.load_int child.Tstate.shared 0);
  Alcotest.(check int) "slices inherited" 1
    (Rfdet_util.Vec.length child.Tstate.slices);
  Alcotest.(check int) "resume index covers parent" 1
    (Tstate.resume_index child ~from:0);
  (* child clock: parent stamp with own component ticked *)
  Alcotest.(check (list int)) "child clock" [ 1; 1; 0; 0 ]
    (Vclock.to_list child.Tstate.time);
  (* independent memories after the fork *)
  Space.store_int child.Tstate.shared 0 7;
  Alcotest.(check int) "parent unaffected" 42 (Space.load_int root.Tstate.shared 0)

let test_tstate_pending () =
  let ts = Tstate.create_root ~clock_size:2 ~monitoring:true in
  Alcotest.(check bool) "no pending" false (Tstate.has_pending ts 3);
  Tstate.add_pending ts (run1 (3 * Page.size) "ab") 0;
  Tstate.add_pending ts (run1 ((3 * Page.size) + 5) "c") 0;
  Tstate.add_pending ts (run1 ((3 * Page.size) + 1) "X") 0;
  Alcotest.(check bool) "pending" true (Tstate.has_pending ts 3);
  Alcotest.(check (list int)) "pending pages" [ 3 ] (Tstate.pending_pages ts);
  let touched = Bytes.make Page.size '\001' in
  Alcotest.(check int) "distinct bytes" 3 (Tstate.flush_pending ts 3 ~touched);
  Alcotest.(check string) "applied in arrival order" "aX\000\000\000c"
    (Space.read_string ts.Tstate.shared ~addr:(3 * Page.size) ~len:6);
  Alcotest.(check bool) "cleared" false (Tstate.has_pending ts 3);
  Alcotest.(check int) "nothing left" 0 (Tstate.flush_pending ts 3 ~touched)

(* --- Propagate --------------------------------------------------------- *)

let mk_state tid =
  let root = Tstate.create_root ~clock_size:4 ~monitoring:true in
  (* cheap way to get a tid-labelled state *)
  if tid = 0 then root
  else Tstate.fork root ~tid ~stamp:(Vclock.create 4)

let test_propagate_filters () =
  let from = mk_state 1 in
  let into = mk_state 0 in
  let mk id time data =
    let s = slice ~id ~tid:1 ~mods:(run1 (id * 16) data) ~time in
    Tstate.append_slice from s;
    s
  in
  let s_old = mk 0 [ 0; 1; 0; 0 ] "A" in
  let s_mid = mk 1 [ 0; 2; 0; 0 ] "B" in
  let s_new = mk 2 [ 0; 9; 0; 0 ] "C" in
  let prof = Rfdet_sim.Profile.create () in
  let cycles =
    Propagate.run ~cost:Rfdet_sim.Cost.default
      ~opts:{ Options.ci with lazy_writes = false }
      ~prof ~from ~upto:3 ~into
      ~upper:(vc [ 1; 3; 0; 0 ]) (* sees s_old, s_mid, not s_new *)
      ~lower:(vc [ 0; 1; 5; 5 ]) (* s_old already seen *)
      ()
  in
  Alcotest.(check bool) "cycles positive" true (cycles > 0);
  Alcotest.(check int) "one slice propagated" 1
    prof.Rfdet_sim.Profile.slices_propagated;
  Alcotest.(check int) "s_mid bytes applied" (Char.code 'B')
    (Space.load_byte into.Tstate.shared 16);
  Alcotest.(check int) "s_old not applied" 0
    (Space.load_byte into.Tstate.shared 0);
  Alcotest.(check int) "s_new not applied" 0
    (Space.load_byte into.Tstate.shared 32);
  ignore (s_old, s_mid, s_new);
  (* resume index advanced: a second propagation rescans nothing *)
  Alcotest.(check int) "resume index" 3 (Tstate.resume_index into ~from:1);
  let prof2 = Rfdet_sim.Profile.create () in
  let _ =
    Propagate.run ~cost:Rfdet_sim.Cost.default
      ~opts:{ Options.ci with lazy_writes = false }
      ~prof:prof2 ~from ~upto:3 ~into ~upper:(vc [ 9; 9; 9; 9 ])
      ~lower:(vc [ 0; 0; 0; 0 ]) ()
  in
  Alcotest.(check int) "nothing rescanned" 0
    prof2.Rfdet_sim.Profile.slices_propagated

let test_propagate_skips_freed () =
  let from = mk_state 1 in
  let into = mk_state 0 in
  let s = slice ~id:0 ~tid:1 ~mods:(run1 64 "Z") ~time:[ 0; 1; 0; 0 ] in
  Tstate.append_slice from s;
  Slice.free s;
  let prof = Rfdet_sim.Profile.create () in
  let _ =
    Propagate.run ~cost:Rfdet_sim.Cost.default
      ~opts:{ Options.ci with lazy_writes = false }
      ~prof ~from ~upto:1 ~into ~upper:(vc [ 9; 9; 9; 9 ])
      ~lower:(vc [ 0; 0; 0; 0 ]) ()
  in
  Alcotest.(check int) "freed slice skipped" 0
    prof.Rfdet_sim.Profile.slices_propagated

let test_propagate_lazy_defers_large () =
  let from = mk_state 1 in
  let into = mk_state 0 in
  let big = String.make 600 'Q' in
  let s = slice ~id:0 ~tid:1 ~mods:(run1 (5 * Page.size) big) ~time:[ 0; 1; 0; 0 ] in
  Tstate.append_slice from s;
  let prof = Rfdet_sim.Profile.create () in
  let _ =
    Propagate.run ~cost:Rfdet_sim.Cost.default ~opts:Options.ci ~prof ~from
      ~upto:1 ~into ~upper:(vc [ 9; 9; 9; 9 ]) ~lower:(vc [ 0; 0; 0; 0 ]) ()
  in
  Alcotest.(check bool) "page pending" true (Tstate.has_pending into 5);
  Alcotest.(check bool) "bytes not yet applied" true
    (Space.load_byte into.Tstate.shared (5 * Page.size) = 0);
  Alcotest.(check bool) "page protected" true
    (Space.protection into.Tstate.shared 5 = Space.Prot_none)

(* A segment queued on [into] keeps the bytes it was queued with,
   whatever later happens to the slice's own [mods]. *)
let test_queued_segment_keeps_bytes () =
  List.iter
    (fun (what, damage) ->
      let from = mk_state 1 in
      let into = mk_state 0 in
      let big = String.make 600 'Q' in
      let s = slice ~id:0 ~tid:1 ~mods:(run1 (5 * Page.size) big) ~time:[ 0; 1; 0; 0 ] in
      Tstate.append_slice from s;
      let prof = Rfdet_sim.Profile.create () in
      let _ =
        Propagate.run ~cost:Rfdet_sim.Cost.default ~opts:Options.ci ~prof ~from
          ~upto:1 ~into ~upper:(vc [ 9; 9; 9; 9 ]) ~lower:(vc [ 0; 0; 0; 0 ]) ()
      in
      Alcotest.(check bool) (what ^ ": queued") true (Tstate.has_pending into 5);
      damage s;
      let touched = Bytes.create Page.size in
      Alcotest.(check int) (what ^ ": all bytes flushed") 600
        (Tstate.flush_pending into 5 ~touched);
      Alcotest.(check string) (what ^ ": verified bytes") big
        (Space.read_string into.Tstate.shared ~addr:(5 * Page.size) ~len:600))
    [
      ( "corrupted",
        fun s ->
          Slice.corrupt s;
          Alcotest.(check bool) "corruption is real" false (Slice.checksum_valid s) );
      ("freed", Slice.free);
    ]

(* The verified record: set by the first application, reset by every
   write of [mods], so the next application after a corruption hashes
   again and repairs the slice. *)
let test_verify_once_record () =
  let from = mk_state 1 in
  let s = slice ~id:0 ~tid:1 ~mods:(run1 64 "Z") ~time:[ 0; 1; 0; 0 ] in
  Tstate.append_slice from s;
  Space.store_byte from.Tstate.shared 64 (Char.code 'Z');
  let propagate tid =
    let into = mk_state tid in
    let prof = Rfdet_sim.Profile.create () in
    let _ =
      Propagate.run ~cost:Rfdet_sim.Cost.default
        ~opts:{ Options.ci with lazy_writes = false }
        ~prof ~from ~upto:1 ~into ~upper:(vc [ 9; 9; 9; 9 ])
        ~lower:(vc [ 0; 0; 0; 0 ]) ()
    in
    (prof, Space.load_byte into.Tstate.shared 64)
  in
  Alcotest.(check bool) "unverified at make" false s.Slice.verified;
  let prof, v = propagate 0 in
  Alcotest.(check bool) "verified by the first application" true s.Slice.verified;
  Alcotest.(check int) "clean" 0 prof.Rfdet_sim.Profile.corruptions_detected;
  Alcotest.(check int) "applied" (Char.code 'Z') v;
  Slice.corrupt s;
  Alcotest.(check bool) "corrupt resets the record" false s.Slice.verified;
  let prof, v = propagate 2 in
  Alcotest.(check int) "caught" 1 prof.Rfdet_sim.Profile.corruptions_detected;
  Alcotest.(check int) "quarantined" 1 prof.Rfdet_sim.Profile.quarantines;
  Alcotest.(check int) "re-derived bytes applied" (Char.code 'Z') v;
  Alcotest.(check bool) "re-derived slice verified" true s.Slice.verified;
  Alcotest.(check bool) "audit agrees" true (Slice.checksum_valid s);
  Slice.free s;
  Alcotest.(check bool) "free resets the record" false s.Slice.verified

let suites =
  [
    ( "metadata",
      [
        Alcotest.test_case "slice basics" `Quick test_slice_basics;
        Alcotest.test_case "usage + GC" `Quick test_metadata_usage_and_gc;
        Alcotest.test_case "snapshot metering" `Quick
          test_metadata_snapshot_metering;
        Alcotest.test_case "anti-thrash rearm" `Quick test_metadata_rearm;
        Alcotest.test_case "validation" `Quick test_metadata_validation;
        Alcotest.test_case "tstate fork" `Quick test_tstate_fork_semantics;
        Alcotest.test_case "tstate pending" `Quick test_tstate_pending;
        Alcotest.test_case "propagate filters" `Quick test_propagate_filters;
        Alcotest.test_case "propagate skips freed" `Quick
          test_propagate_skips_freed;
        Alcotest.test_case "propagate lazy defers" `Quick
          test_propagate_lazy_defers_large;
        Alcotest.test_case "queued segment keeps its bytes" `Quick
          test_queued_segment_keeps_bytes;
        Alcotest.test_case "verify-once record" `Quick test_verify_once_record;
      ] );
  ]
