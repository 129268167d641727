(* Observability-layer tests: trace serialization round-trips, the
   determinism-inertness invariant (tracing on/off produces bit-identical
   runs), same-seed trace determinism, the Chrome exporter's shape, the
   metrics registry, attribution reports, and the Profile JSON/pp
   satellites. *)

module Trace = Rfdet_obs.Trace
module Sink = Rfdet_obs.Sink
module Metrics = Rfdet_obs.Metrics
module Chrome = Rfdet_obs.Chrome
module Report = Rfdet_obs.Report
module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry
module Profile = Rfdet_sim.Profile

let scale = 0.3

let contains ~needle hay = Astring.String.is_infix ~affix:needle hay

(* ------------------------------------------------------------------ *)
(* Line-format round trip                                              *)
(* ------------------------------------------------------------------ *)

let gen_kind =
  QCheck2.Gen.(
    map
      (fun (choice, (a, b, c, d)) ->
        let obj = if a mod 2 = 0 then "mutex" else "cond" in
        match choice with
        | 0 -> Trace.Slice_open
        | 1 -> Trace.Slice_close { slice = a - 1; pages = b; bytes = c; cycles = d }
        | 2 -> Trace.Snapshot { page = a; cycles = b }
        | 3 -> Trace.Diff { page = a; bytes = b; runs = c; cycles = d }
        | 4 ->
          Trace.Propagate
            { slice = a - 1; src = b; pages = c; bytes = d; cycles = a + b }
        | 5 -> Trace.Prop_page { page = a; bytes = b }
        | 6 -> Trace.Gc { examined = a; freed = b; cycles = c }
        | 7 -> Trace.Lock_acquire { obj; handle = a; wait = b; queued = c }
        | 8 -> Trace.Lock_release { obj; handle = a; hold = b }
        | 9 -> Trace.Kendo_wait { cycles = a }
        | 10 -> Trace.Barrier_stall { barrier = a - 1; cycles = b }
        | 11 ->
          Trace.Fault
            { op = (if b mod 2 = 0 then "lock" else "malloc");
              action = (if c mod 2 = 0 then "crash" else "fail") }
        | 12 -> Trace.Thread_exit
        | 13 -> Trace.Steal { deque = a; victim = b; value = c }
        | 14 ->
          Trace.Span
            { phase = (if d mod 2 = 0 then "admit" else "response");
              req = a; a = b; b = c }
        | _ -> Trace.Thread_crash)
      (pair (0 -- 15) (quad (0 -- 1000) (0 -- 1000) (0 -- 1000) (0 -- 1000))))

(* trailing zeros trimmed, as the sink emits *)
let gen_vc =
  QCheck2.Gen.(
    map
      (fun l ->
        let a = Array.of_list l in
        let n = ref (Array.length a) in
        while !n > 0 && a.(!n - 1) = 0 do
          decr n
        done;
        Array.sub a 0 !n)
      (list_size (0 -- 5) (0 -- 9)))

let gen_event =
  QCheck2.Gen.(
    map
      (fun ((seq, tid, time), (vc, kind)) -> { Trace.seq; tid; time; vc; kind })
      (pair
         (triple (0 -- 100_000) (0 -- 16) (0 -- 1_000_000))
         (pair gen_vc gen_kind)))

let prop_line_roundtrip =
  QCheck2.Test.make ~name:"obs: of_line (to_line e) = e" ~count:500 gen_event
    (fun e ->
      match Trace.of_line (Trace.to_line e) with
      | Ok e' -> e = e'
      | Error msg -> QCheck2.Test.fail_reportf "parse error: %s" msg)

let prop_lines_roundtrip =
  QCheck2.Test.make ~name:"obs: of_lines (to_lines es) = es" ~count:100
    QCheck2.Gen.(list_size (0 -- 20) gen_event)
    (fun es ->
      match Trace.of_lines (Trace.to_lines es) with
      | Ok es' -> es = es'
      | Error msg -> QCheck2.Test.fail_reportf "parse error: %s" msg)

let test_line_rejects_garbage () =
  List.iter
    (fun line ->
      match Trace.of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "";
      "not a line";
      "0 0 0 - no_such_kind";
      "0 0 0 - slice_close slice=1";  (* missing keys *)
      "0 0 0 - kendo_wait cycles=x";  (* non-numeric *)
      "0 0 0 - kendo_wait wrong=3";  (* wrong key *)
    ]

(* ------------------------------------------------------------------ *)
(* Determinism inertness and trace determinism                          *)
(* ------------------------------------------------------------------ *)

let traced ?(seed = 1L) ?(jitter = 0.) runtime w =
  let obs = Sink.create () in
  let r = Runner.run ~scale ~sched_seed:seed ~jitter ~obs runtime w in
  (r, Sink.events obs)

(* Tracing must never perturb the run: same seed with and without a
   sink gives bit-identical signatures, makespans, op counts and
   profiles — for every runtime, including the nondeterministic
   baseline. *)
let test_tracing_inert () =
  let w = Registry.find "fft" in
  List.iter
    (fun (name, runtime) ->
      let plain = Runner.run ~scale runtime w in
      let with_obs, events = traced runtime w in
      Alcotest.(check string)
        (name ^ ": signature unchanged by tracing")
        plain.Runner.signature with_obs.Runner.signature;
      Alcotest.(check int)
        (name ^ ": makespan unchanged")
        plain.Runner.sim_time with_obs.Runner.sim_time;
      Alcotest.(check int)
        (name ^ ": engine ops unchanged")
        plain.Runner.ops with_obs.Runner.ops;
      Alcotest.(check (list (pair string int)))
        (name ^ ": profile unchanged")
        (Profile.fields plain.Runner.profile)
        (Profile.fields with_obs.Runner.profile);
      Alcotest.(check bool)
        (name ^ ": trace nonempty")
        true (events <> []))
    [
      ("pthreads", Runner.Pthreads);
      ("kendo", Runner.Kendo);
      ("dthreads", Runner.Dthreads);
      ("coredet", Runner.Coredet);
      ("rfdet-ci", Runner.rfdet_ci);
      ("rfdet-pf", Runner.rfdet_pf);
    ]

(* The trace is a pure function of (workload, runtime, seed): two
   same-seed runs serialize byte-identically, in both formats. *)
let test_trace_same_seed_identical () =
  List.iter
    (fun w ->
      let _, e1 = traced Runner.rfdet_ci w in
      let _, e2 = traced Runner.rfdet_ci w in
      Alcotest.(check string)
        (w.Rfdet_workloads.Workload.name ^ ": line dumps identical")
        (Trace.to_lines e1) (Trace.to_lines e2);
      Alcotest.(check string)
        (w.Rfdet_workloads.Workload.name ^ ": chrome exports identical")
        (Chrome.export e1) (Chrome.export e2))
    (Registry.find "fft" :: Registry.micro)

(* Under scheduling noise the trace tracks the actual interleaving, so
   a different seed shows up in the trace bytes. *)
let test_trace_seed_sensitive () =
  let w = Registry.find "fft" in
  let _, e1 = traced ~seed:1L ~jitter:12.0 Runner.Pthreads w in
  let _, e2 = traced ~seed:2L ~jitter:12.0 Runner.Pthreads w in
  Alcotest.(check bool)
    "different seeds give different pthreads traces" true
    (Trace.to_lines e1 <> Trace.to_lines e2)

(* Every event a real run emits survives the line round trip. *)
let test_real_trace_lines_roundtrip () =
  let _, events = traced Runner.rfdet_ci (Registry.find "fft") in
  List.iter
    (fun e ->
      let line = Trace.to_line e in
      match Trace.of_line line with
      | Ok e' ->
        if e <> e' then Alcotest.failf "round trip changed %S" line
      | Error msg -> Alcotest.failf "unparseable %S: %s" line msg)
    events

(* ------------------------------------------------------------------ *)
(* Sink ring buffer                                                    *)
(* ------------------------------------------------------------------ *)

let test_sink_ring () =
  let s = Sink.create ~capacity:4 () in
  for i = 0 to 9 do
    Sink.emit s ~tid:0 ~time:i Trace.Slice_open
  done;
  let es = Sink.events s in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length es);
  Alcotest.(check int) "total counts all" 10 (Sink.total s);
  Alcotest.(check int) "dropped" 6 (Sink.dropped s);
  Alcotest.(check (list int)) "oldest-first, seq preserved" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Trace.seq) es);
  Alcotest.(check bool) "null sink disabled" false (Sink.enabled Sink.null);
  Sink.emit Sink.null ~tid:0 ~time:0 Trace.Slice_open;
  Alcotest.(check int) "null sink stays empty" 0 (Sink.total Sink.null)

(* ------------------------------------------------------------------ *)
(* Chrome exporter                                                     *)
(* ------------------------------------------------------------------ *)

let test_chrome_shape () =
  let _, events = traced Runner.rfdet_ci (Registry.find "fft") in
  let json = Chrome.export events in
  Alcotest.(check bool) "object form" true
    (String.length json > 2 && json.[0] = '{');
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (contains ~needle json))
    [
      "\"traceEvents\"";
      "\"ph\":\"M\"";  (* metadata: track names *)
      "\"ph\":\"X\"";  (* durations *)
      "\"ph\":\"i\"";  (* instants *)
      "\"ph\":\"s\"";  (* flow start at slice close *)
      "\"ph\":\"f\"";  (* flow end at propagation *)
      "\"thread_name\"";
      "\"process_name\"";
    ];
  Alcotest.(check bool) "closed" true
    (contains ~needle:"]}" json);
  (* crude balance check — every quote is paired, braces balance *)
  let depth = ref 0 in
  String.iter
    (fun c ->
      if c = '{' then incr depth else if c = '}' then decr depth)
    json;
  Alcotest.(check int) "braces balance" 0 !depth

(* Request spans export as Chrome async tracks: a `b`/`e` pair per
   request plus flow arrows from admission to the serving slice. *)
let test_chrome_request_tracks () =
  let _, events = traced Runner.rfdet_ci (Registry.find "kvserver") in
  let json = Chrome.export events in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (contains ~needle json))
    [
      "\"ph\":\"b\"";  (* async request open at admission *)
      "\"ph\":\"e\"";  (* async request close at response *)
      "\"ph\":\"n\"";  (* async instants for attempts/backoff *)
      "\"cat\":\"request\"";
      "request-flow";
      "\"name\":\"req ";
    ]

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  Metrics.set m "g" 7;
  Metrics.set m "g" 9;
  List.iter (Metrics.observe m "h") [ 0; 1; 3; 8; 8; 1000 ];
  Alcotest.(check int) "counter" 5 (Metrics.counter m "a");
  Alcotest.(check int) "missing counter" 0 (Metrics.counter m "zzz");
  Alcotest.(check (option int)) "gauge last-write-wins" (Some 9)
    (Metrics.gauge m "g");
  (match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 6 h.Metrics.count;
    Alcotest.(check int) "sum" 1020 h.Metrics.sum;
    Alcotest.(check int) "min" 0 h.Metrics.min;
    Alcotest.(check int) "max" 1000 h.Metrics.max);
  Metrics.observe m "neg" (-5);
  match Metrics.histogram m "neg" with
  | Some h -> Alcotest.(check int) "negative clamps to 0" 0 h.Metrics.max
  | None -> Alcotest.fail "neg histogram missing"

(* JSON output is insertion-order-free: two registries filled in
   opposite orders serialize identically. *)
let test_metrics_json_stable () =
  let fill names m = List.iter (fun n -> Metrics.incr ~by:3 m n) names in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  fill [ "x"; "m"; "a" ] m1;
  fill [ "a"; "m"; "x" ] m2;
  Metrics.observe m1 "h" 5;
  Metrics.observe m2 "h" 5;
  Alcotest.(check string) "sorted, identical" (Metrics.to_json m1)
    (Metrics.to_json m2);
  Alcotest.(check bool) "escapes keys" true
    (contains ~needle:"\\\"" (Metrics.json_escape "a\"b"))

(* ------------------------------------------------------------------ *)
(* Attribution reports                                                 *)
(* ------------------------------------------------------------------ *)

let test_breakdown_partitions () =
  let r, events = traced Runner.rfdet_ci (Registry.find "fft") in
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 r.Runner.thread_clocks
  in
  Alcotest.(check bool) "thread clocks recorded" true (total > 0);
  let bd = Report.breakdown ~total events in
  Alcotest.(check int) "total is the denominator" total bd.Report.total;
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " nonnegative") true (v >= 0))
    [
      ("compute", bd.Report.compute);
      ("wait", bd.Report.wait);
      ("propagate", bd.Report.propagate);
      ("diff", bd.Report.diff);
      ("gc", bd.Report.gc);
      ("monitor", bd.Report.monitor);
    ];
  (* compute is the residual, so the parts partition the total exactly
     whenever attribution doesn't overshoot *)
  Alcotest.(check int) "components sum to total" total
    (bd.Report.compute + bd.Report.wait + bd.Report.propagate
   + bd.Report.diff + bd.Report.gc + bd.Report.monitor);
  Alcotest.(check bool) "fft propagates" true (bd.Report.propagate > 0);
  Alcotest.(check bool) "fft waits on locks" true (bd.Report.wait > 0)

let test_lock_table_and_hot_pages () =
  let _, events = traced Runner.rfdet_ci (Registry.find "fft") in
  let rows = Report.lock_table events in
  Alcotest.(check bool) "fft uses locks" true (rows <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "acquires positive" true (r.Report.acquires > 0);
      Alcotest.(check bool) "contended <= acquires" true
        (r.Report.contended <= r.Report.acquires);
      Alcotest.(check bool) "queued <= wait" true
        (r.Report.queued <= r.Report.wait))
    rows;
  let waits = List.map (fun r -> r.Report.wait) rows in
  Alcotest.(check (list int)) "sorted by descending wait"
    (List.sort (fun a b -> compare b a) waits)
    waits;
  let pages = Report.hot_pages ~top:5 events in
  Alcotest.(check bool) "pages propagated" true (pages <> []);
  Alcotest.(check bool) "at most top" true (List.length pages <= 5);
  let bytes = List.map (fun (_, b, _) -> b) pages in
  Alcotest.(check (list int)) "ranked by bytes"
    (List.sort (fun a b -> compare b a) bytes)
    bytes;
  (* renders never raise and carry their headers *)
  let total = 1_000_000 in
  Alcotest.(check bool) "breakdown renders" true
    (contains ~needle:"compute"
       (Report.render_breakdown (Report.breakdown ~total events)));
  Alcotest.(check bool) "lock table renders" true
    (contains ~needle:"mutex" (Report.render_lock_table rows));
  Alcotest.(check bool) "hot pages renders" true
    (contains ~needle:"page" (Report.render_hot_pages pages))

(* The contention table speaks the newer primitives' object classes
   too: rwlock reader batches land under "rwlock_r", writer holds under
   "rwlock_w", semaphore hand-offs under "sem" — and the work-stealing
   micro leaves Steal events in the raw trace for the thief columns. *)
let test_contention_table_primitives () =
  let table w =
    let _, events = traced Runner.rfdet_ci (Registry.find w) in
    (List.map (fun r -> r.Report.obj) (Report.lock_table events), events)
  in
  let rw_objs, _ = table "micro-rwlock" in
  Alcotest.(check bool) "reader batches tracked" true
    (List.mem "rwlock_r" rw_objs);
  Alcotest.(check bool) "writer holds tracked" true
    (List.mem "rwlock_w" rw_objs);
  let sem_objs, _ = table "micro-sem" in
  Alcotest.(check bool) "sem handoffs tracked" true (List.mem "sem" sem_objs);
  (* the deque micro is lock-free on the steal path: it shows up as
     Steal events in the raw trace rather than lock-table rows *)
  let _, steal_events = table "micro-steal" in
  let steals =
    List.filter
      (fun (e : Trace.event) ->
        match e.kind with Trace.Steal _ -> true | _ -> false)
      steal_events
  in
  Alcotest.(check bool) "steals traced" true (steals <> []);
  (* mixed-primitive render carries every object class it saw *)
  let _, rw_events = table "kvserver-rw" in
  let rendered = Report.render_lock_table (Report.lock_table rw_events) in
  Alcotest.(check bool) "render names rwlock_r" true
    (contains ~needle:"rwlock_r" rendered)

let test_report_fill_metrics () =
  let _, events = traced Runner.rfdet_ci (Registry.find "fft") in
  let m = Metrics.create () in
  Report.fill_metrics m events;
  Alcotest.(check int) "trace.events counts all" (List.length events)
    (Metrics.counter m "trace.events");
  Alcotest.(check bool) "per-kind counters" true
    (Metrics.counter m "trace.slice_close" > 0);
  Alcotest.(check bool) "propagate histogram" true
    (Metrics.histogram m "propagate.bytes" <> None);
  Alcotest.(check bool) "lock wait histogram" true
    (Metrics.histogram m "lock.wait" <> None)

(* ------------------------------------------------------------------ *)
(* Profile satellites                                                  *)
(* ------------------------------------------------------------------ *)

let test_profile_json_and_pp () =
  let r = Runner.run ~scale Runner.rfdet_ci (Registry.find "fft") in
  let p = r.Runner.profile in
  let json = Profile.to_json p in
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) ("json has " ^ k) true
        (contains ~needle:(Printf.sprintf "\"%s\":" k) json))
    (Profile.fields p);
  Alcotest.(check int) "44 fields" 44 (List.length (Profile.fields p));
  let pp = Format.asprintf "%a" Profile.pp p in
  (* the once-dropped fields all print now *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("pp has " ^ needle) true (contains ~needle pp))
    [
      "atomics="; "diff_scanned="; "gc_freed="; "kendo="; "barrier_stalls=";
      "unheard_signals="; "steals=";
    ];
  let m = Metrics.create () in
  Profile.fill_metrics m p;
  Alcotest.(check int) "profile mirrored into metrics" p.Profile.locks
    (Metrics.counter m "profile.locks")

(* ------------------------------------------------------------------ *)
(* Quantile estimates                                                   *)
(* ------------------------------------------------------------------ *)

(* Exact q-quantile of a sample list: the rank-ceil(q*n) smallest
   element (1-based) — the oracle the bucketed estimate is checked
   against. *)
let exact_quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  a.(rank - 1)

(* The pow2-bucket estimate can only round a sample up to the end of its
   bucket: exact <= estimate <= 2*exact + 1 (the +1 covers exact = 0). *)
let prop_quantile_bounds =
  QCheck2.Test.make ~name:"obs: quantile bounded by 2x exact" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (1 -- 200) (frequency [ (3, 0 -- 100); (1, 0 -- 1_000_000) ]))
        (0 -- 1000))
    (fun (samples, permille) ->
      let q = float_of_int permille /. 1000. in
      let m = Metrics.create () in
      List.iter (Metrics.observe m "h") samples;
      let s = Option.get (Metrics.histogram m "h") in
      let est = Metrics.quantile s q in
      let exact = exact_quantile samples q in
      if not (exact <= est && est <= (2 * exact) + 1) then
        QCheck2.Test.fail_reportf "q=%.3f exact=%d est=%d" q exact est
      else true)

let test_quantile_edge_cases () =
  let m = Metrics.create () in
  Metrics.observe m "one" 7;
  let s = Option.get (Metrics.histogram m "one") in
  Alcotest.(check int) "single sample p50" 7 (Metrics.quantile s 0.5);
  Alcotest.(check int) "single sample p999" 7 (Metrics.quantile s 0.999);
  Metrics.observe m "zeros" 0;
  Metrics.observe m "zeros" 0;
  let z = Option.get (Metrics.histogram m "zeros") in
  Alcotest.(check int) "all-zero p99" 0 (Metrics.quantile z 0.99);
  let empty =
    { Metrics.count = 0; sum = 0; min = 0; max = 0; buckets = [] }
  in
  Alcotest.(check int) "empty histogram" 0 (Metrics.quantile empty 0.5);
  let json = Metrics.to_json m in
  Alcotest.(check bool) "json has p999" true
    (contains ~needle:"\"p999\"" json);
  let r = Report.render_quantiles m [ "one"; "absent" ] in
  Alcotest.(check bool) "render has row" true (contains ~needle:"one" r)

(* The fence runtimes share one commit path, so a CoreDet commit is
   traced like a DThreads one: each propagate event follows one
   prop_page event per committed page, and their bytes add up. *)
let test_coredet_commit_trace () =
  let _, events = traced Runner.Coredet (Registry.find "fft") in
  let commits = ref 0 in
  let page_bytes = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Prop_page { bytes; _ } -> page_bytes := bytes :: !page_bytes
      | Trace.Propagate { pages; bytes; _ } ->
        incr commits;
        Alcotest.(check int) "pages = prop_page events"
          (List.length !page_bytes) pages;
        Alcotest.(check int) "bytes = sum of page bytes" bytes
          (List.fold_left ( + ) 0 !page_bytes);
        page_bytes := []
      | _ -> ())
    events;
  Alcotest.(check bool) "commits traced" true (!commits > 0)

let suites =
  [
    ( "obs",
      [
        QCheck_alcotest.to_alcotest prop_line_roundtrip;
        QCheck_alcotest.to_alcotest prop_lines_roundtrip;
        QCheck_alcotest.to_alcotest prop_quantile_bounds;
        Alcotest.test_case "quantile edge cases" `Quick
          test_quantile_edge_cases;
        Alcotest.test_case "line parser rejects garbage" `Quick
          test_line_rejects_garbage;
        Alcotest.test_case "tracing is deterministically inert" `Quick
          test_tracing_inert;
        Alcotest.test_case "coredet commits traced per page" `Quick
          test_coredet_commit_trace;
        Alcotest.test_case "same seed, same trace bytes" `Quick
          test_trace_same_seed_identical;
        Alcotest.test_case "different seed, different trace" `Quick
          test_trace_seed_sensitive;
        Alcotest.test_case "real trace lines round-trip" `Quick
          test_real_trace_lines_roundtrip;
        Alcotest.test_case "sink ring buffer" `Quick test_sink_ring;
        Alcotest.test_case "chrome export shape" `Quick test_chrome_shape;
        Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
        Alcotest.test_case "metrics JSON is order-free" `Quick
          test_metrics_json_stable;
        Alcotest.test_case "breakdown partitions total" `Quick
          test_breakdown_partitions;
        Alcotest.test_case "lock table and hot pages" `Quick
          test_lock_table_and_hot_pages;
        Alcotest.test_case "contention table covers rwlock/sem/steal" `Quick
          test_contention_table_primitives;
        Alcotest.test_case "chrome request tracks" `Quick
          test_chrome_request_tracks;
        Alcotest.test_case "trace-derived metrics" `Quick
          test_report_fill_metrics;
        Alcotest.test_case "profile json/pp/metrics" `Quick
          test_profile_json_and_pp;
      ] );
  ]
