(* Host-time benchmark of the simulator and its runtimes.

   Usage (from the repository root):
     dune exec bench/perf/perf.exe -- [--seed N] [--json FILE]
         one full set: every workload, interleaved round-robin
     dune exec bench/perf/perf.exe -- --workload NAME [--seed N]
         [--seconds S] [--trace 0|1]
         one workload for S seconds; prints one JSON result line
     dune exec bench/perf/perf.exe -- --smoke
         one round, one traced run; checks names against BENCHMARK.json
     dune exec bench/perf/perf.exe -- --compare A.json B.json
         verdict per (workload, end-to-end metric) of two sets

   Everything runs in this one process on one domain (simulated threads
   are fibers), except the set-up probes, which time fresh processes of
   this executable ([--cold NAME]).  Every run's outputs are checked;
   the exit code is nonzero when any check failed.  See README.md. *)

(* ---------- metric catalog ---------- *)

type metric = { name : string; unit_ : string; lower : bool; exact : bool }

let m ?(exact = false) ?(lower = true) name unit_ = { name; unit_; lower; exact }

let end_to_end =
  [
    m "wall_ms_min" "ms";
    m ~lower:false "throughput_per_s" "1/s";
    m "setup_s" "s";
  ]

let per_layer =
  [
    m ~lower:false "host.runs" "count";
    m "host.wall_ms_p50" "ms";
    m "host.wall_ms_tail" "ms";
    m ~lower:false "host.wall_tail_pct" "pct";
    m "host.sentinel_ms_p50" "ms";
    m "host.sentinel_iqr_share" "fraction";
    m "host.peak_heap_mb" "MB";
  ]
  @ List.concat_map
      (fun n ->
        [
          m ~exact:true (n ^ ".calls") "count";
          m (n ^ ".ns_per_call") "ns";
          m (n ^ ".share") "fraction";
        ])
      (Array.to_list Layers.slot_names)
  @ [
      m "engine.unattributed.share" "fraction";
      m "trace.probe.share" "fraction";
      m "trace.overhead_share" "fraction";
      m "trace.wall_ms_min" "ms";
    ]
  @ List.map (fun r -> m ("runtime." ^ r ^ ".wall_ms_p50") "ms") Suite.baseline_names
  @ [
      m ~exact:true ~lower:false "check.schedules" "count";
      m ~exact:true ~lower:false "check.pruned" "count";
      m "check.oracle.share" "fraction";
      m ~exact:true "gc.alloc_mw_per_run" "MW";
      m "gc.major_collections_per_run" "count";
      m ~exact:true "sched.decisions" "count";
      m ~exact:true "profile.kendo_waits" "count";
      m ~exact:true "profile.propagated_bytes" "B";
      m ~exact:true "profile.diff_scanned" "B";
      m ~exact:true "profile.slices" "count";
      m ~exact:true "profile.snapshots" "count";
      m ~exact:true "sim.ops" "count";
      m ~exact:true "sim.cycles" "cycles";
      m ~exact:true "sim.latency_p50_cycles" "cycles";
      m ~exact:true "sim.latency_p99_cycles" "cycles";
      m ~exact:true ~lower:false "sim.served_share" "fraction";
      m "obs.sink_on.overhead_share" "fraction";
      m ~exact:true "obs.events" "count";
      m "obs.span_collect_ms" "ms";
      m "obs.critpath_walk_ms" "ms";
      m "replay.record.overhead_share" "fraction";
      m ~exact:true "replay.journal_bytes" "B";
      m "replay.replay_ms" "ms";
      m "mem.diff_page_1pct.ns" "ns";
      m "mem.diff_page_50pct.ns" "ns";
      m "mem.apply_41runs.ns" "ns";
      m "mem.snapshot_page_into.ns" "ns";
      m "util.vclock_join_8.ns" "ns";
      m "util.vclock_join_32.ns" "ns";
      m "util.vclock_join_256.ns" "ns";
      m "util.vclock_leq_32.ns" "ns";
      m "sim.pqueue_push_pop.ns" "ns";
      m "obs.sink_emit.ns" "ns";
      m "sim.engine_empty_run.us" "us";
    ]

(* The workload whose runs also time lib/obs and lib/replay: spans and
   journals are the serving path's observability. *)
let probed = "kvserver-t4"

(* ---------- host-noise sentinel ---------- *)

(* A fixed pure-OCaml kernel that uses no repository code: an LCG
   scattering adds over a 512 KiB array.  Timed once per round, it
   shows a slow host phase; it never normalises anything. *)
let sentinel () =
  let n = 1 lsl 16 in
  let a = Array.make n 0 in
  let x = ref 12345 in
  for i = 0 to (24 * n) - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land (n - 1) in
    a.(j) <- a.(j) + i
  done;
  Array.fold_left ( + ) 0 a

(* ---------- measurement state ---------- *)

type run_stats = {
  mutable attempted : int;
  mutable failed : int;
  mutable sentinel_ms : float list;
}

let stats = { attempted = 0; failed = 0; sentinel_ms = [] }

let note_failure msg =
  stats.failed <- stats.failed + 1;
  prerr_endline ("perf: check failed: " ^ msg)

type wstate = {
  w : Suite.t;
  expects : Suite.expect list;
  mutable walls : float list;  (** ms per timed run *)
  mutable work : float;  (** units of work per run *)
  mutable allocs : float list;  (** words allocated per run *)
  mutable majors : float list;
  mutable split : (string * float list) list;  (** runtime -> ms per run *)
  mutable outcomes : Suite.outcome list;  (** of the last good run *)
  mutable setup : float list;  (** s per fresh-process probe *)
  mutable heap : float list;  (** MB per fresh-process probe *)
  mutable layers : (string * float) list;
}

let ms_since t0 = float_of_int (Layers.now () - t0) /. 1e6

let time_sentinel () =
  let t0 = Layers.now () in
  ignore (Sys.opaque_identity (sentinel ()));
  stats.sentinel_ms <- ms_since t0 :: stats.sentinel_ms

(* One checked run of every job of [ws.w], from a compacted heap like a
   fresh `rfdet run`.  [record] false makes it a warm-up. *)
let timed_run ~seed ?(record = true) ws =
  Gc.compact ();
  let minor0, promoted0, major0 = Gc.counters () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let split = ref [] in
  let time_job job f =
    let t0 = Layers.now () in
    let r = f () in
    (match job with
    | Suite.Sim { runtime; _ } ->
      let k = Rfdet_harness.Runner.cli_name runtime in
      split := (k, ms_since t0 +. Option.value (List.assoc_opt k !split) ~default:0.)
               :: List.remove_assoc k !split
    | Suite.Explore _ -> ());
    r
  in
  let t0 = Layers.now () in
  let r = Suite.run ~time_job ~seed ~expects:ws.expects ws.w in
  let wall = ms_since t0 in
  let minor1, promoted1, major1 = Gc.counters () in
  let majors1 = (Gc.quick_stat ()).Gc.major_collections in
  stats.attempted <- stats.attempted + 1;
  match r with
  | Error msg -> note_failure (ws.w.Suite.name ^ ": " ^ msg)
  | Ok outcomes when record ->
    ws.walls <- wall :: ws.walls;
    ws.work <- float_of_int (Suite.work outcomes);
    ws.allocs <- (minor1 -. minor0 +. major1 -. major0 -. (promoted1 -. promoted0)) :: ws.allocs;
    ws.majors <- float_of_int (majors1 - majors0) :: ws.majors;
    ws.split <-
      List.map
        (fun (k, l) -> (k, Option.value (List.assoc_opt k !split) ~default:0. :: l))
        ws.split;
    ws.outcomes <- outcomes
  | Ok outcomes -> ws.outcomes <- outcomes

let init ~seed w =
  {
    w;
    expects = Suite.expectations ~seed w;
    walls = [];
    work = 0.;
    allocs = [];
    majors = [];
    split = List.map (fun r -> (r, [])) Suite.baseline_names;
    outcomes = [];
    setup = [];
    heap = [];
    layers = [];
  }

(* ---------- fresh-process set-up probes ---------- *)

let signatures outcomes =
  List.map
    (function
      | Suite.Ran r -> r.Rfdet_harness.Runner.signature
      | Suite.Explored st -> (
        match st.Rfdet_check.Explore.failures, st.Rfdet_check.Explore.reference with
        | [], Some s when not st.Rfdet_check.Explore.truncated -> s
        | _ -> "failed"))
    outcomes

(* The child side: module init is done, so generate the input, run once
   and report the heap high-water mark and the signatures. *)
let cold ~seed name =
  let w = Option.get (Suite.find name) in
  let outcomes = List.map (Suite.run_job ~seed) w.Suite.jobs in
  Printf.printf "%d %s\n" (Gc.quick_stat ()).Gc.top_heap_words
    (String.concat "," (signatures outcomes))

let cold_probe ~seed ws =
  let exe = Sys.executable_name in
  let args = [| exe; "--cold"; ws.w.Suite.name; "--seed"; Int64.to_string seed |] in
  let t0 = Layers.now () in
  let ic = Unix.open_process_args_in exe args in
  let line = try input_line ic with End_of_file -> "" in
  let status = Unix.close_process_in ic in
  let secs = ms_since t0 /. 1e3 in
  stats.attempted <- stats.attempted + 1;
  let expected = String.concat "," (List.map (fun e -> e.Suite.signature) ws.expects) in
  match status, String.split_on_char ' ' line with
  | Unix.WEXITED 0, [ words; sigs ] when sigs = expected ->
    ws.setup <- secs :: ws.setup;
    ws.heap <- float_of_int (int_of_string words * (Sys.word_size / 8)) /. 1e6 :: ws.heap
  | _ -> note_failure (Printf.sprintf "%s: fresh-process probe printed %S" ws.w.Suite.name line)

(* ---------- the traced pass ---------- *)

let median_assoc rows =
  match rows with
  | [] -> []
  | first :: _ ->
    List.map (fun (k, _) -> (k, Stat.median (List.map (List.assoc k) rows))) first

let traced_pass ~seed ~probe ~runs ws =
  let w = ws.w in
  let rows =
    List.filter_map
      (fun _ ->
        Gc.compact ();
        stats.attempted <- stats.attempted + 1;
        match Layers.traced_run ~seed ~probe ~expects:ws.expects w with
        | row -> Some row
        | exception e ->
          note_failure (w.Suite.name ^ " traced: " ^ Printexc.to_string e);
          None)
      (List.init runs Fun.id)
  in
  let layers = median_assoc (List.map fst rows) in
  let fastest = Stat.minimum ws.walls in
  let fastest_traced = Stat.minimum (List.map snd rows) in
  let expect = (List.hd ws.expects).Suite.signature in
  let guarded name f =
    stats.attempted <- stats.attempted + 1;
    try f ()
    with e ->
      note_failure (Printf.sprintf "%s %s: %s" w.Suite.name name (Printexc.to_string e));
      []
  in
  let probes =
    if w.Suite.name <> probed then []
    else
      guarded "obs" (fun () -> Layers.obs_probe ~seed ~runs ~untraced_ms:fastest ~expect w)
      @ guarded "replay" (fun () ->
            Layers.replay_probe ~seed ~runs ~untraced_ms:fastest ~expect w)
  in
  ws.layers <-
    layers
    @ [
        ("trace.wall_ms_min", fastest_traced);
        ("trace.overhead_share", (fastest_traced /. fastest) -. 1.);
      ]
    @ guarded "decisions" (fun () ->
          [ ("sched.decisions", float_of_int (Suite.decisions ~seed w)) ])
    @ guarded "oracle" (fun () ->
          [ ("check.oracle.share", Layers.oracle_share ~seed ~runs w) ])
    @ probes

(* ---------- assembling the metrics ---------- *)

(* Every run does identical work, so the fastest run is the one least
   disturbed by co-tenants of the host; on a shared host the median
   moves with their load (see README.md). *)
let e2e_values ws =
  let fastest = Stat.minimum ws.walls in
  [
    ("wall_ms_min", fastest);
    ("throughput_per_s", ws.work /. (fastest /. 1e3));
    ("setup_s", Stat.median ws.setup);
  ]

(* The fastest run of each fifth of the runs, in time order: the spread
   of the minimum within one set, for --compare. *)
let block_minima walls =
  let a = Array.of_list (List.rev walls) in
  let n = Array.length a in
  let k = min 5 n in
  List.init k (fun b ->
      let lo = b * n / k and hi = (b + 1) * n / k in
      Stat.minimum (Array.to_list (Array.sub a lo (hi - lo))))

(* The samples behind each end-to-end value, in time order (for
   --compare). *)
let e2e_samples ws =
  let minima = block_minima ws.walls in
  [
    ("wall_ms_min", minima);
    ("throughput_per_s", List.map (fun ms -> ws.work /. (ms /. 1e3)) minima);
    ("setup_s", List.rev ws.setup);
  ]

let layer_values ~micro ws =
  let q, tail = Stat.tail ws.walls in
  [
    ("host.runs", float_of_int (List.length ws.walls));
    ("host.wall_ms_p50", Stat.median ws.walls);
    ("host.wall_ms_tail", tail);
    ("host.wall_tail_pct", 100. *. q);
    ("host.sentinel_ms_p50", Stat.median stats.sentinel_ms);
    ("host.sentinel_iqr_share", Stat.iqr_share stats.sentinel_ms);
    ("host.peak_heap_mb", Stat.median ws.heap);
    ("gc.alloc_mw_per_run", Stat.median ws.allocs /. 1e6);
    ("gc.major_collections_per_run", Stat.median ws.majors);
  ]
  @ List.map (fun (r, l) -> ("runtime." ^ r ^ ".wall_ms_p50", Stat.median l)) ws.split
  @ Suite.sim_metrics ws.outcomes
  @ ws.layers @ micro

(* Catalog order; a metric a workload does not exercise reads 0. *)
let metrics_json catalog values =
  Json.Obj
    (List.map
       (fun c ->
         let v = Option.value (List.assoc_opt c.name values) ~default:0. in
         (c.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str c.unit_) ]))
       catalog)

let result_line metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (stats.failed = 0));
         ("attempted", Json.Num (float_of_int stats.attempted));
         ("failed", Json.Num (float_of_int stats.failed));
         ("metrics", metrics);
       ])

(* ---------- driver mode: one workload ---------- *)

let probes_per_workload = 5

(* Round [r] of [rounds] gets one of [count] events iff the share of
   events so far grew, spreading them evenly over the rounds. *)
let due ~rounds ~count r = (r + 1) * count / rounds > r * count / rounds

let one_workload ~seed ~seconds ~trace w =
  let ws = init ~seed w in
  timed_run ~seed ~record:false ws;
  (* The traced pass and its probes take the second half of a traced
     invocation, which needs one fresh-process probe for the heap. *)
  let budget = if trace then max 1 (seconds / 2) else seconds in
  let probes = if trace then 1 else probes_per_workload in
  let start = Layers.now () in
  let deadline = ref (start + (budget * 1_000_000_000)) in
  let probes_done = ref 0 in
  (* A failed check ends the measurement: its numbers would mean nothing. *)
  while
    stats.failed = 0
    && (Layers.now () < !deadline || List.length ws.walls < 3 || !probes_done < probes)
  do
    (* Fresh-process probes are spread over the window, outside its
       budget, so a short slow phase of the host moves at most one. *)
    if
      !probes_done < probes
      && Layers.now () >= start + (!probes_done * budget * 1_000_000_000 / probes)
    then begin
      let t0 = Layers.now () in
      cold_probe ~seed ws;
      incr probes_done;
      deadline := !deadline + (Layers.now () - t0)
    end;
    (* The sentinel is reported with the per-layer metrics only. *)
    if trace then time_sentinel ();
    timed_run ~seed ws
  done;
  let metrics =
    if stats.failed > 0 then Json.Obj []
    else if trace then begin
      traced_pass ~seed ~probe:(Layers.calibrate ()) ~runs:w.Suite.traced ws;
      metrics_json per_layer (layer_values ~micro:(Micro.run ~quick:false) ws)
    end
    else metrics_json end_to_end (e2e_values ws)
  in
  print_endline (result_line metrics);
  exit (if stats.failed = 0 then 0 else 1)

(* ---------- set mode: every workload, interleaved ---------- *)

let print_tables states =
  Printf.printf "\n%-18s %5s %10s %10s %10s %6s %14s %8s %8s\n" "workload" "runs"
    "min ms" "p50 ms" "tail ms" "IQR%" "throughput/s" "setup s" "heap MB";
  List.iter
    (fun ws ->
      let q, tail = Stat.tail ws.walls in
      let e = e2e_values ws in
      Printf.printf "%-18s %5d %10.2f %10.2f %7.2f@%2.0f %6.1f %14.0f %8.3f %8.1f\n"
        ws.w.Suite.name (List.length ws.walls) (List.assoc "wall_ms_min" e)
        (Stat.median ws.walls) tail (100. *. q)
        (100. *. Stat.iqr_share ws.walls)
        (List.assoc "throughput_per_s" e) (List.assoc "setup_s" e)
        (Stat.median ws.heap))
    states;
  Printf.printf "\nhost sentinel: p50 %.3f ms, IQR %.1f%% over %d rounds\n"
    (Stat.median stats.sentinel_ms)
    (100. *. Stat.iqr_share stats.sentinel_ms)
    (List.length stats.sentinel_ms);
  let cols = Array.to_list Layers.slot_names in
  Printf.printf "\nTraced pass: share of traced wall time (%%)\n%-18s" "workload";
  List.iter
    (fun h -> Printf.printf " %9s" h)
    [ "idle"; "grant"; "fence"; "mem"; "sync"; "eng_op"; "exit"; "finish" ];
  Printf.printf " %9s %9s %9s %9s\n" "unattrib" "probe" "sum" "overhead";
  List.iter
    (fun ws ->
      let v k = Option.value (List.assoc_opt k ws.layers) ~default:0. in
      Printf.printf "%-18s" ws.w.Suite.name;
      List.iter (fun c -> Printf.printf " %9.1f" (100. *. v (c ^ ".share"))) cols;
      let sum =
        List.fold_left (fun a c -> a +. v (c ^ ".share")) 0. cols
        +. v "engine.unattributed.share" +. v "trace.probe.share"
      in
      Printf.printf " %9.1f %9.1f %9.1f %9.1f\n"
        (100. *. v "engine.unattributed.share")
        (100. *. v "trace.probe.share") (100. *. sum)
        (100. *. v "trace.overhead_share"))
    states

let set_json ~seed states ~micro =
  Json.Obj
    [
      ("schema", Json.Str "rfdet-perf/1");
      ("seed", Json.Num (Int64.to_float seed));
      ( "host",
        Json.Obj
          [
            ("ocaml", Json.Str Sys.ocaml_version);
            ("word_size", Json.Num (float_of_int Sys.word_size));
            ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
          ] );
      ("correct", Json.Bool (stats.failed = 0));
      ("attempted", Json.Num (float_of_int stats.attempted));
      ("failed", Json.Num (float_of_int stats.failed));
      ("sentinel_ms", Json.Arr (List.map (fun x -> Json.Num x) (List.rev stats.sentinel_ms)));
      ( "workloads",
        Json.Obj
          (List.map
             (fun ws ->
               ( ws.w.Suite.name,
                 Json.Obj
                   [
                     ("metrics", metrics_json end_to_end (e2e_values ws));
                     ("layers", metrics_json per_layer (layer_values ~micro ws));
                     ( "samples",
                       Json.Obj
                         (List.map
                            (fun (k, l) ->
                              (k, Json.Arr (List.map (fun x -> Json.Num x) l)))
                            (e2e_samples ws)) );
                   ] ))
             states) );
    ]

(* Every name, unit and direction in BENCHMARK.json must match the
   catalog above, every workload must exist, and every end-to-end value
   must be positive and finite. *)
let smoke_problems ~spec states ~micro =
  let doc = Json.read_file spec in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let against key catalog =
    let listed = List.map (fun e -> Json.(to_str (member "name" e), e)) Json.(to_list (member key doc)) in
    List.iter
      (fun c ->
        match List.assoc_opt c.name listed with
        | None -> bad "%s: %s missing from %s" key c.name spec
        | Some e ->
          if Json.(to_str (member "unit" e)) <> c.unit_ then bad "%s: unit differs" c.name;
          if Json.(to_str (member "better" e)) <> if c.lower then "lower" else "higher"
          then bad "%s: direction differs" c.name)
      catalog;
    List.iter
      (fun (n, _) ->
        if not (List.exists (fun c -> c.name = n) catalog) then bad "%s: %s not emitted" key n)
      listed
  in
  against "end_to_end" end_to_end;
  against "per_layer" per_layer;
  let listed = List.map (fun e -> Json.(to_str (member "name" e))) Json.(to_list (member "workloads" doc)) in
  if List.sort compare listed <> List.sort compare Suite.names then
    bad "workloads in %s differ from the suite" spec;
  List.iter
    (fun ws ->
      List.iter
        (fun (k, v) -> if not (v > 0. && Float.is_finite v) then bad "%s: %s = %g" ws.w.Suite.name k v)
        (e2e_values ws);
      List.iter
        (fun (k, v) -> if not (Float.is_finite v) then bad "%s: %s = %g" ws.w.Suite.name k v)
        (layer_values ~micro ws))
    states;
  List.rev !problems

let full_set ~seed ~json ~smoke ~spec =
  let states = List.map (init ~seed) Suite.all in
  let rounds = if smoke then 1 else List.fold_left (fun a w -> max a w.Suite.runs) 0 Suite.all in
  if smoke then
    (* In-process stand-ins for the fresh-process probes, so every
       metric still has a value. *)
    List.iter
      (fun ws ->
        let t0 = Layers.now () in
        timed_run ~seed ~record:false ws;
        ws.setup <- [ ms_since t0 /. 1e3 ];
        ws.heap <- [ float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 ])
      states
  else List.iter (timed_run ~seed ~record:false) states;
  for r = 0 to rounds - 1 do
    time_sentinel ();
    List.iter
      (fun ws ->
        if (not smoke) && due ~rounds ~count:probes_per_workload r then cold_probe ~seed ws;
        if smoke || due ~rounds ~count:ws.w.Suite.runs r then timed_run ~seed ws)
      states;
    if (r + 1) mod 10 = 0 then Printf.eprintf "perf: round %d/%d\n%!" (r + 1) rounds
  done;
  let probe = Layers.calibrate () in
  List.iter
    (fun ws -> traced_pass ~seed ~probe ~runs:(if smoke then 1 else ws.w.Suite.traced) ws)
    states;
  let micro = Micro.run ~quick:smoke in
  if not smoke then print_tables states;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Json.to_string (set_json ~seed states ~micro));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" path)
    json;
  let problems = if smoke then smoke_problems ~spec states ~micro else [] in
  List.iter (fun p -> Printf.printf "smoke: %s\n" p) problems;
  Printf.printf "\n%d runs attempted, %d failed%s\n" stats.attempted stats.failed
    (if smoke then Printf.sprintf ", %d smoke problems" (List.length problems) else "");
  exit (if stats.failed = 0 && problems = [] then 0 else 1)

(* ---------- --compare ---------- *)

let compare_sets ~spec a_path b_path =
  let doc = Json.read_file spec in
  let a = Json.read_file a_path and b = Json.read_file b_path in
  (* Exact metrics depend on the input, so both sets need its seed. *)
  if Json.member "seed" a <> Json.member "seed" b then begin
    prerr_endline "perf: the two sets were run with different --seed values";
    exit 2
  end;
  let bounds =
    List.map
      (fun e -> Json.(to_str (member "name" e), to_float (member "bound" e)))
      Json.(to_list (member "end_to_end" doc))
  in
  let wl doc name = Json.(member name (member "workloads" doc)) in
  let value w section k = Json.(to_float (member "value" (member k (member section w)))) in
  let samples w k = List.map Json.to_float Json.(to_list (member k (member "samples" w))) in
  let bad = ref 0 in
  Printf.printf "%-18s %-17s %12s %12s %8s %6s %6s %6s  %s\n" "workload" "metric" "A" "B"
    "worse%" "bound" "IQR-A" "IQR-B" "verdict";
  List.iter
    (fun (name, _) ->
      let wa = wl a name and wb = wl b name in
      List.iter
        (fun c ->
          let bound = List.assoc c.name bounds in
          let va = value wa "metrics" c.name and vb = value wb "metrics" c.name in
          let worse = (if c.lower then vb -. va else va -. vb) /. va in
          let ia = Stat.iqr_share (samples wa c.name) and ib = Stat.iqr_share (samples wb c.name) in
          let verdict =
            if ia > bound || ib > bound then "unresolved"
            else if worse > bound then (incr bad; "regressed")
            else "ok"
          in
          Printf.printf "%-18s %-17s %12.4g %12.4g %+7.1f%% %5.0f%% %5.1f%% %5.1f%%  %s\n" name
            c.name va vb (100. *. worse) (100. *. bound) (100. *. ia) (100. *. ib) verdict)
        end_to_end;
      List.iter
        (fun c ->
          if c.exact then
            let va = value wa "layers" c.name and vb = value wb "layers" c.name in
            if va <> vb then begin
              incr bad;
              Printf.printf "%-18s %-33s %g -> %g  changed (exact)\n" name c.name va vb
            end)
        per_layer)
    Json.(to_assoc (member "workloads" a));
  let sentinel doc = List.map Json.to_float Json.(to_list (member "sentinel_ms" doc)) in
  let sa = sentinel a and sb = sentinel b in
  Printf.printf "\nhost sentinel p50: A %.3f ms (IQR %.1f%%), B %.3f ms (IQR %.1f%%), %+.1f%%\n"
    (Stat.median sa) (100. *. Stat.iqr_share sa) (Stat.median sb)
    (100. *. Stat.iqr_share sb)
    (100. *. ((Stat.median sb /. Stat.median sa) -. 1.));
  Printf.printf "%d regressed or changed\n" !bad;
  exit (if !bad = 0 then 0 else 1)

(* ---------- command line ---------- *)

let () =
  let workload = ref None and cold_name = ref None and json = ref None in
  let seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false and compare = ref false and spec = ref "BENCHMARK.json" in
  let files = ref [] in
  let args =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload, print one JSON line");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S measuring time of a --workload run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 --workload reports end-to-end (0) or per-layer (1) metrics");
      ("--json", Arg.String (fun s -> json := Some s), "FILE write the set's results");
      ("--smoke", Arg.Set smoke, " one round, one traced run, no fresh-process probes");
      ("--compare", Arg.Set compare, " compare two --json files given as arguments");
      ("--spec", Arg.Set_string spec, "FILE the BENCHMARK.json to check against (default ./BENCHMARK.json)");
      ("--cold", Arg.String (fun s -> cold_name := Some s), "NAME one fresh-process set-up probe");
    ]
  in
  let usage = "perf.exe [--workload NAME] [--seed N] [--json FILE] [--smoke] [--compare A B]" in
  Arg.parse args (fun f -> files := !files @ [ f ]) usage;
  let die msg =
    prerr_endline ("perf: " ^ msg);
    exit 2
  in
  let find name =
    match Suite.find name with
    | Some w -> w
    | None -> die (Printf.sprintf "unknown workload %S (one of %s)" name (String.concat ", " Suite.names))
  in
  let seed64 = Int64.of_int !seed in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  match !compare, !files, !cold_name, !workload with
  | true, [ a; b ], _, _ -> compare_sets ~spec:!spec a b
  | true, _, _, _ -> die "--compare takes two result files"
  | false, _ :: _, _, _ -> die "unexpected argument"
  | false, [], Some name, _ -> cold ~seed:seed64 (find name).Suite.name
  | false, [], None, Some name ->
    one_workload ~seed:seed64 ~seconds:!seconds ~trace:(!trace = 1) (find name)
  | false, [], None, None -> full_set ~seed:seed64 ~json:!json ~smoke:!smoke ~spec:!spec
