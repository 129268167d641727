(* Decision journals: record/replay byte-identity, torn-tail recovery,
   loud corruption detection, the chaos/fuzz harness, and offline race
   detection over journals (with auto-minimized repros).

   The invariant under test everywhere: a mutated journal either fails
   LOUDLY (a distinct scan/replay error) or replays to a byte-identical
   summary.  There is no third outcome — silent divergence is the one
   thing the format must make impossible. *)

module Engine = Rfdet_sim.Engine
module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry
module Fault_plan = Rfdet_fault.Fault_plan
module Race = Rfdet_detect.Race_detector
module Trace = Rfdet_check.Trace
module Explore = Rfdet_check.Explore
module J = Rfdet_replay.Journal
module S = Rfdet_replay.Session
module O = Rfdet_replay.Offline

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let with_temp f =
  let path = Filename.temp_file "rfdet-journal-test" ".rfdj" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let spec ?(runtime = Runner.rfdet_ci) ?(threads = 2) ?(scale = 0.05)
    ?(sched_seed = 1L) ?(jitter = 0.) ?(fault_mode = Engine.Contain) ?faults
    name =
  {
    S.workload = Registry.find name;
    runtime;
    threads;
    scale;
    input_seed = 42L;
    sched_seed;
    jitter;
    fault_mode;
    faults;
  }

let replay_ok ?(recover = false) path =
  match S.replay ~recover ~path () with
  | Ok ok -> ok
  | Error e -> Alcotest.fail (S.describe_error e)

(* All six DMT runtimes (pthreads is the nondeterministic baseline). *)
let dmt_runtimes =
  List.filter (fun (n, _) -> n <> "pthreads") Runner.named_runtimes

(* --- roundtrip -------------------------------------------------------- *)

let test_roundtrip () =
  with_temp @@ fun path ->
  let s = S.record ~path (spec "kvserver" ~threads:4 ~scale:0.1) in
  (match J.scan_file path with
  | Ok (J.Complete { header; decisions; trailer }) ->
    Alcotest.(check string) "workload" "kvserver" header.Trace.workload;
    Alcotest.(check string) "runtime" "rfdet-ci" header.Trace.runtime;
    Alcotest.(check int) "decoded decisions" s.S.s_decisions
      (Array.length decisions);
    Alcotest.(check int) "trailer decisions" s.S.s_decisions
      trailer.J.decisions;
    Alcotest.(check string) "trailer signature" s.S.s_signature
      trailer.J.signature
  | Ok _ -> Alcotest.fail "expected a Complete scan"
  | Error e -> Alcotest.fail e);
  let ok = replay_ok path in
  Alcotest.(check bool) "summary identical" true (ok.S.r_summary = s);
  Alcotest.(check bool) "not recovered" false ok.S.r_recovered;
  (* the recorded decisions differ under another scheduler seed and
     jitter, but the run they reconstruct does not *)
  with_temp @@ fun path' ->
  let s' =
    S.record ~path:path'
      (spec "kvserver" ~threads:4 ~scale:0.1 ~sched_seed:3L ~jitter:13.)
  in
  Alcotest.(check string) "seed-independent signature" s.S.s_signature
    s'.S.s_signature;
  Alcotest.(check bool) "noisy journal replays" true
    ((replay_ok path').S.r_summary = s')

let test_roundtrip_fault_recovery () =
  with_temp @@ fun path ->
  let faults =
    match Fault_plan.parse "crash,tid=2,op=lock,n=3" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let s =
    S.record ~path
      (spec "kvserver" ~threads:4 ~scale:0.1 ~fault_mode:Engine.Recover
         ~faults)
  in
  let ok = replay_ok path in
  Alcotest.(check bool) "crash-recovery run replays identically" true
    (ok.S.r_summary = s)

(* Rewrite the complete journal at [path] with its header passed
   through [f], keeping its decisions and trailer. *)
let reheader path f =
  match J.scan_file path with
  | Ok (J.Complete { header; decisions; trailer }) ->
    let w = J.create ~path (f header) in
    Array.iter (J.add w) decisions;
    J.finish w trailer
  | Ok _ -> Alcotest.fail "expected a Complete scan"
  | Error e -> Alcotest.fail e

(* A recording pins its inputs: the same decisions and trailer under a
   header with another input seed must fail verification. *)
let test_changed_input_detected () =
  with_temp @@ fun path ->
  let _ = S.record ~path (spec "fft" ~scale:0.1) in
  reheader path (fun h -> { h with Trace.input_seed = 7L });
  match S.replay ~path () with
  | Error (S.E_diverged _ | S.E_mismatch _) -> ()
  | Error e ->
    Alcotest.fail ("expected a divergence, got " ^ S.describe_error e)
  | Ok _ -> Alcotest.fail "a changed input replayed as the recording"

(* test/corpus/micro-lock-t2.rfdj was written by an earlier build with
   `rfdet record micro-lock -t 2`.  It must still replay, and recording
   its spec again must write the same bytes: the header codec and every
   frame stay byte-compatible. *)
let test_committed_journal () =
  let path = Filename.concat Test_check.corpus_dir "micro-lock-t2.rfdj" in
  let ok = replay_ok path in
  match S.spec_of_header ok.S.r_header with
  | Error e -> Alcotest.fail e
  | Ok sp ->
    with_temp @@ fun out ->
    ignore (S.record ~path:out sp);
    Alcotest.(check string) "re-recorded bytes" (read_file path) (read_file out)

let test_missing_journal () =
  match S.replay ~path:"no-such-journal.rfdj" () with
  | Error (S.E_unreadable _ as e) ->
    Alcotest.(check bool) "says it cannot read the file" true
      (Astring.String.is_infix ~affix:"cannot read journal no-such-journal.rfdj"
         (S.describe_error e))
  | Error e ->
    Alcotest.fail ("expected E_unreadable, got " ^ S.describe_error e)
  | Ok _ -> Alcotest.fail "replayed a missing file"

(* A header that no longer resolves is a usage error, not a crash. *)
let test_unknown_workload () =
  with_temp @@ fun path ->
  let _ = S.record ~path (spec "micro-lock") in
  reheader path (fun h -> { h with Trace.workload = "no-such" });
  match S.replay ~path () with
  | Error (S.E_bad_header e) ->
    Alcotest.(check bool) "names the workload" true
      (Astring.String.is_infix ~affix:"\"no-such\"" e)
  | Error e ->
    Alcotest.fail ("expected E_bad_header, got " ^ S.describe_error e)
  | Ok _ -> Alcotest.fail "replayed an unknown workload"

(* --- minimality ------------------------------------------------------- *)

let test_minimality () =
  (* the journal records only free decisions: orders of magnitude fewer
     entries than engine ops ... *)
  with_temp @@ fun path ->
  let s = S.record ~path (spec "kvserver" ~threads:4 ~scale:0.1) in
  Alcotest.(check bool) "decisions << ops" true
    (s.S.s_decisions * 10 < s.S.s_ops);
  (* ... and a one-worker run almost never has a multi-thread ready
     set (only the instants where main and its single worker overlap
     around spawn/join), so its journal is near-empty *)
  with_temp @@ fun path1 ->
  let s1 = S.record ~path:path1 (spec "micro-lock" ~threads:1 ~scale:0.2) in
  Alcotest.(check bool) "singleton ready sets are free" true
    (s1.S.s_decisions <= 2);
  let ok = replay_ok path1 in
  Alcotest.(check bool) "near-empty journal still replays" true
    (ok.S.r_summary = s1)

(* --- torn tails ------------------------------------------------------- *)

let test_torn_recovery () =
  with_temp @@ fun path ->
  let s = S.record ~path (spec "kvserver" ~threads:4 ~scale:0.1) in
  let bytes = read_file path in
  write_bytes path (String.sub bytes 0 (String.length bytes - 23));
  (match S.replay ~path () with
  | Error (S.E_torn _) -> ()
  | Error e ->
    Alcotest.fail ("expected E_torn, got " ^ S.describe_error e)
  | Ok _ -> Alcotest.fail "strict replay accepted a torn tail");
  let ok = replay_ok ~recover:true path in
  Alcotest.(check bool) "recovered" true ok.S.r_recovered;
  Alcotest.(check string) "recovery converges on the recorded run"
    s.S.s_signature ok.S.r_summary.S.s_signature;
  Alcotest.(check int) "same decision count" s.S.s_decisions
    ok.S.r_summary.S.s_decisions

let test_abort_leaves_torn () =
  (* a recorder cut down mid-run (Journal.abort, as Session.record does
     on an escaping exception) must leave a recoverable torn journal,
     never a corrupt or complete-looking one *)
  with_temp @@ fun path ->
  let w = S.header_of_spec (spec "kvserver" ~threads:4 ~scale:0.1) in
  let writer = J.create ~path w in
  List.iter (J.add writer) [ 1; 2; 1; 3; 0 ];
  J.abort writer;
  match J.scan_file path with
  | Ok (J.Torn { decisions; synced; _ }) ->
    Alcotest.(check (list int)) "prefix survives" [ 1; 2; 1; 3; 0 ]
      (Array.to_list decisions);
    Alcotest.(check int) "synced through the marker" 5 synced
  | Ok (J.Complete _) -> Alcotest.fail "aborted journal scanned Complete"
  | Ok (J.Corrupt { reason; _ }) ->
    Alcotest.fail ("aborted journal scanned Corrupt: " ^ reason)
  | Error e -> Alcotest.fail e

(* --- corruption is always loud ---------------------------------------- *)

let test_checksum_flip_every_frame () =
  with_temp @@ fun path ->
  let _ = S.record ~path (spec "racey" ~threads:2 ~scale:0.05) in
  let bytes = read_file path in
  let frames = J.frame_offsets bytes in
  Alcotest.(check bool) "several frames" true (List.length frames >= 4);
  List.iteri
    (fun i (off, _tag, total) ->
      (* flip the last checksum byte of frame i: a complete frame that
         fails verification must scan Corrupt and name the frame *)
      let b = Bytes.of_string bytes in
      let p = off + total - 1 in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 0xff));
      match J.scan_string (Bytes.to_string b) with
      | J.Corrupt { frame; _ } ->
        Alcotest.(check int)
          (Printf.sprintf "corruption attributed to frame %d" i)
          i frame
      | J.Complete _ -> Alcotest.fail "checksum flip scanned Complete"
      | J.Torn _ -> Alcotest.fail "checksum flip scanned Torn")
    frames

let splice bytes ~at ~len ~insert =
  String.sub bytes 0 at ^ insert
  ^ String.sub bytes (at + len) (String.length bytes - at - len)

let test_duplicate_and_drop_frames () =
  with_temp @@ fun path ->
  let _ = S.record ~path (spec "racey" ~threads:2 ~scale:0.05) in
  let bytes = read_file path in
  let frames = J.frame_offsets bytes in
  let nth i = List.nth frames i in
  (* duplicate a middle frame: the seq discontinuity is corruption *)
  let off, _, total = nth 1 in
  let frame_bytes = String.sub bytes off total in
  (match
     J.scan_string (splice bytes ~at:(off + total) ~len:0 ~insert:frame_bytes)
   with
  | J.Corrupt _ -> ()
  | _ -> Alcotest.fail "duplicated frame was not detected as corruption");
  (* drop a middle frame: likewise *)
  (match J.scan_string (splice bytes ~at:off ~len:total ~insert:"") with
  | J.Corrupt _ -> ()
  | _ -> Alcotest.fail "dropped frame was not detected as corruption");
  (* garbage and empty inputs are corrupt, not crashes *)
  (match J.scan_string "" with
  | J.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty journal must scan Corrupt");
  match J.scan_string "this is not a journal" with
  | J.Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage must scan Corrupt"

(* --- chaos fuzz: loud or harmless, never a third outcome --------------- *)

(* A small corpus of (baseline summary, journal bytes): two workloads,
   two runtimes, one with jitter and one with a fault plan. *)
let fuzz_corpus =
  lazy
    (List.map
       (fun sp ->
         let path = Filename.temp_file "rfdet-fuzz" ".rfdj" in
         let s = S.record ~path sp in
         let bytes = read_file path in
         (try Sys.remove path with Sys_error _ -> ());
         (s, bytes))
       [
         spec "racey" ~threads:2 ~scale:0.05;
         spec "micro-lock" ~runtime:Runner.Kendo ~threads:3 ~scale:0.2
           ~jitter:5.;
       ])

let apply_mutation ~which ~kind ~pos ~byte =
  let _, bytes = List.nth (Lazy.force fuzz_corpus) (which mod 2) in
  let len = String.length bytes in
  match kind mod 4 with
  | 0 ->
    (* flip a byte (xor is never 0, so the byte always changes) *)
    let p = pos mod len in
    let b = Bytes.of_string bytes in
    Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 + (byte mod 255))));
    (which mod 2, Bytes.to_string b)
  | 1 -> (which mod 2, String.sub bytes 0 (pos mod len))
  | 2 ->
    let frames = J.frame_offsets bytes in
    let off, _, total = List.nth frames (pos mod List.length frames) in
    (which mod 2, splice bytes ~at:(off + total) ~len:0
         ~insert:(String.sub bytes off total))
  | _ ->
    let frames = J.frame_offsets bytes in
    let off, _, total = List.nth frames (pos mod List.length frames) in
    (which mod 2, splice bytes ~at:off ~len:total ~insert:"")

let prop_fuzz =
  QCheck2.Test.make
    ~name:"journal fuzz: every mutation detected or byte-identical"
    ~count:80
    QCheck2.Gen.(
      quad (int_bound 1) (int_bound 3) (int_bound 1_000_000) (int_bound 254))
    (fun (which, kind, pos, byte) ->
      let idx, mutated = apply_mutation ~which ~kind ~pos ~byte in
      let base, bytes = List.nth (Lazy.force fuzz_corpus) idx in
      if mutated = bytes then true
      else
        with_temp @@ fun path ->
        write_bytes path mutated;
        match S.replay ~path () with
        | Error _ -> true (* loud: scan or verify refused it *)
        | Ok ok -> ok.S.r_summary = base (* or a byte-identical replay *))

(* --- offline race detection over journals ------------------------------ *)

let header_of path =
  match J.scan_file path with
  | Ok (J.Complete { header; _ }) -> header
  | Ok _ -> Alcotest.fail "expected a Complete scan"
  | Error e -> Alcotest.fail e

let test_races_cross_runtime () =
  (* the same racy workload recorded under every DMT runtime yields the
     identical racy-address digest: the happens-before relation is a
     pure function of the header, not of the runtime or schedule *)
  let digests =
    List.map
      (fun (name, runtime) ->
        with_temp @@ fun path ->
        let _ = S.record ~path (spec "racey" ~runtime ~threads:2 ~scale:0.05) in
        let ok = replay_ok path in
        Alcotest.(check bool) (name ^ " replays") true (not ok.S.r_recovered);
        match O.detect (header_of path) with
        | Ok report ->
          Alcotest.(check bool) (name ^ " detects races") true
            (report.Race.races <> []);
          (name, Race.digest report)
        | Error e -> Alcotest.fail e)
      dmt_runtimes
  in
  match digests with
  | (_, d) :: rest ->
    List.iter
      (fun (name, d') ->
        Alcotest.(check string) ("digest under " ^ name) d d')
      rest
  | [] -> Alcotest.fail "no runtimes"

let test_races_clean_workload () =
  with_temp @@ fun path ->
  let _ = S.record ~path (spec "micro-lock" ~threads:3 ~scale:0.2) in
  match O.detect (header_of path) with
  | Ok report ->
    Alcotest.(check int) "a locked counter has no races" 0
      (List.length report.Race.races)
  | Error e -> Alcotest.fail e

let test_minimize_repro () =
  with_temp @@ fun path ->
  let _ = S.record ~path (spec "racey" ~threads:2 ~scale:0.05) in
  let header = header_of path in
  match O.detect header with
  | Error e -> Alcotest.fail e
  | Ok report -> (
    match O.minimize_repro header report with
    | Error e -> Alcotest.fail e
    | Ok (tr, _tries) ->
      Alcotest.(check (option string)) "digest pinned in expect"
        (Some (Race.digest report))
        tr.Trace.expect;
      Alcotest.(check string) "detector runtime" Explore.detector_runtime
        tr.Trace.header.Trace.runtime;
      let r = Explore.replay ~strict:false tr in
      Alcotest.(check (option string)) "minimized repro replays clean" None
        r.Explore.r_error)

let suites =
  [
    ( "journal",
      [
        Alcotest.test_case "record/replay roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "crash-recovery run roundtrip" `Quick
          test_roundtrip_fault_recovery;
        Alcotest.test_case "changed input is detected" `Quick
          test_changed_input_detected;
        Alcotest.test_case "committed journal: replay, identical re-record"
          `Quick test_committed_journal;
        Alcotest.test_case "missing journal is unreadable" `Quick
          test_missing_journal;
        Alcotest.test_case "unknown workload is a bad header" `Quick
          test_unknown_workload;
        Alcotest.test_case "log minimality" `Quick test_minimality;
        Alcotest.test_case "torn tail: strict refusal + recovery" `Quick
          test_torn_recovery;
        Alcotest.test_case "aborted recording is torn, not corrupt" `Quick
          test_abort_leaves_torn;
        Alcotest.test_case "checksum flip on every frame is loud" `Quick
          test_checksum_flip_every_frame;
        Alcotest.test_case "duplicate/drop/garbage are loud" `Quick
          test_duplicate_and_drop_frames;
        QCheck_alcotest.to_alcotest prop_fuzz;
      ] );
    ( "journal races",
      [
        Alcotest.test_case "identical digest across all 6 runtimes" `Quick
          test_races_cross_runtime;
        Alcotest.test_case "clean workload detects nothing" `Quick
          test_races_clean_workload;
        Alcotest.test_case "ddmin minimizes a replayable repro" `Quick
          test_minimize_repro;
      ] );
  ]
