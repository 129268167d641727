(* The benchmark's seven workloads, how one run of each executes, and
   the output check every run must pass.

   The set varies the two properties DMT overhead depends on, thread
   count and synchronization granularity: one program at 8 and 32
   threads (fft), barrier-phased (fft) vs compute-only (wordcount) vs
   lock-per-request (kvserver) vs rwlock/deque (kvserver-rw), the four
   comparison runtimes (baselines), and many tiny runs (explore).  Input
   seed from --seed, scheduler seed 1, jitter 0. *)

module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry
module Explore = Rfdet_check.Explore
module Profile = Rfdet_sim.Profile

type job =
  | Sim of { runtime : Runner.runtime; wl : string; threads : int; scale : float }
  | Explore of { wl : string; threads : int }
      (** exhaustive exploration, DLRC oracle on *)

type t = {
  name : string;
  runs : int;  (** timed runs in one full set *)
  traced : int;  (** runs of the traced (per-layer) pass *)
  jobs : job list;  (** what one run executes, in order *)
}

let sim ?(runtime = Runner.rfdet_ci) ?(scale = 1.0) wl threads =
  Sim { runtime; wl; threads; scale }

let baseline_runtimes = [ Runner.Kendo; Runner.Dthreads; Runner.Coredet; Runner.Pthreads ]

let baseline_names = List.map Runner.cli_name baseline_runtimes

let all =
  [
    { name = "fft-t8"; runs = 110; traced = 5; jobs = [ sim "fft" 8 ] };
    { name = "fft-t32"; runs = 40; traced = 3; jobs = [ sim "fft" 32 ] };
    { name = "wordcount-t8"; runs = 110; traced = 5; jobs = [ sim "wordcount" 8 ] };
    { name = "kvserver-t4"; runs = 110; traced = 5; jobs = [ sim "kvserver" 4 ] };
    { name = "kvserver-rw-t4"; runs = 110; traced = 5; jobs = [ sim "kvserver-rw" 4 ] };
    {
      name = "baselines-t4";
      runs = 110;
      traced = 5;
      jobs =
        List.concat_map
          (fun runtime ->
            [ sim ~runtime "kvserver-rw" 4; sim ~runtime ~scale:10. "prodcons" 4 ])
          baseline_runtimes;
    };
    {
      name = "explore-rwlock-t3";
      runs = 110;
      traced = 5;
      jobs = [ Explore { wl = "micro-rwlock"; threads = 3 } ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let names = List.map (fun w -> w.name) all

(* ---------- one run ---------- *)

type outcome = Ran of Runner.run_result | Explored of Explore.stats

let explore_config ~seed threads =
  { Explore.default_config with threads; input_seed = seed }

let run_job ~seed = function
  | Sim { runtime; wl; threads; scale } ->
    Ran (Runner.run ~threads ~scale ~input_seed:seed runtime (Registry.find wl))
  | Explore { wl; threads } ->
    Explored (Explore.explore ~config:(explore_config ~seed threads) (Registry.find wl))

(* ---------- the output check ---------- *)

(* Seed-42 signatures, keyed by workload program: fft's output does not
   depend on its thread count, prodcons runs at scale 10, micro-rwlock
   at 3 threads. *)
let committed_seed = 42L

let committed =
  [
    ("fft", "a3c41f6d0ab9d8d21479ef501e0d586a");
    ("wordcount", "d8c2288bfb401fdd814334531e625547");
    ("kvserver", "e9c405267ba499db53f86ed21cd5bce8");
    ("kvserver-rw", "289463b3913d3ddfa45b8fa2d396fae6");
    ("prodcons", "825d1d046adb18754ff81277f3634365");
    ("micro-rwlock", "8766c1af0d587cf1041ebe41986b4738");
  ]

(* Exhaustive micro-rwlock at 3 threads under the oracle. *)
let committed_schedules = 192

let committed_pruned = 36

type expect = { signature : string; schedules : (int * int) option }

let job_key = function
  | Sim { wl; threads; scale; _ } -> (wl, threads, scale)
  | Explore { wl; threads } -> (wl, threads, 1.0)

(* The expected result of every job of [w].  At the committed seed the
   signatures are the committed ones; at any other seed each program's
   reference is a Kendo run of the same input, since every DMT runtime
   agrees bit-exactly. *)
let expectations ~seed w =
  let memo = Hashtbl.create 4 in
  List.map
    (fun job ->
      let ((wl, threads, scale) as key) = job_key job in
      let signature =
        match Hashtbl.find_opt memo key with
        | Some s -> s
        | None ->
          let s =
            if seed = committed_seed then List.assoc wl committed
            else
              (Runner.run ~threads ~scale ~input_seed:seed Runner.Kendo
                 (Registry.find wl))
                .Runner.signature
          in
          Hashtbl.replace memo key s;
          s
      in
      let schedules =
        match job with
        | Explore _ when seed = committed_seed ->
          Some (committed_schedules, committed_pruned)
        | _ -> None
      in
      { signature; schedules })
    w.jobs

let check expect outcome =
  match outcome with
  | Ran r ->
    if r.Runner.crashes <> [] then Error "a simulated thread crashed"
    else if r.Runner.signature <> expect.signature then
      Error
        (Printf.sprintf "%s: signature %s, expected %s" r.Runner.workload
           r.Runner.signature expect.signature)
    else Ok ()
  | Explored st -> (
    match st.Explore.failures, st.Explore.reference with
    | f :: _, _ -> Error ("exploration failed: " ^ f.Explore.f_reason)
    | [], _ when st.Explore.truncated -> Error "exploration truncated"
    | [], Some s when s <> expect.signature ->
      Error (Printf.sprintf "explored signature %s, expected %s" s expect.signature)
    | [], None -> Error "exploration ran no schedule"
    | [], Some _ -> (
      match expect.schedules with
      | Some (n, p) when (n, p) <> (st.Explore.schedules, st.Explore.pruned) ->
        Error
          (Printf.sprintf "explored %d schedules (%d pruned), expected %d (%d)"
             st.Explore.schedules st.Explore.pruned n p)
      | _ -> Ok ()))

(* Run every job of [w] and check each; [Error] on a mismatch or an
   exception.  [time_job job f] runs [f], the job itself, so the caller
   can time each job. *)
let run ~time_job ~seed ~expects w =
  match
    List.map2
      (fun job e ->
        let o = time_job job (fun () -> run_job ~seed job) in
        match check e o with Ok () -> o | Error m -> failwith m)
      w.jobs expects
  with
  | outcomes -> Ok outcomes
  | exception e -> Error (Printexc.to_string e)

(* ---------- deterministic per-run figures ---------- *)

let sum f outcomes =
  List.fold_left (fun acc o -> acc + match o with Ran r -> f r | Explored _ -> 0) 0 outcomes

let explored f outcomes =
  List.fold_left (fun acc o -> acc + match o with Explored s -> f s | Ran _ -> 0) 0 outcomes

(* Units of work in one run: engine ops, or schedules for an
   exploration. *)
let work outcomes =
  let schedules = explored (fun s -> s.Explore.schedules) outcomes in
  if schedules > 0 then schedules else sum (fun r -> r.Runner.ops) outcomes

(* Served-request figures of the first server job: (total, served, p50,
   p99) from the report the server emits as its trailing outputs. *)
let server_figures outcomes =
  List.find_map
    (function
      | Ran r -> (
        let v = Array.of_list (List.map (fun (_, x) -> Int64.to_int x) r.Runner.outputs) in
        match r.Runner.workload with
        | "kvserver" -> Some (v.(0), v.(1), v.(13), v.(14))
        | "kvserver-rw" -> Some (v.(0), v.(1) + v.(3), v.(10), v.(11))
        | _ -> None)
      | Explored _ -> None)
    outcomes

let sim_metrics outcomes =
  let prof f = float_of_int (sum (fun r -> f r.Runner.profile) outcomes) in
  let total, served, p50, p99 =
    Option.value (server_figures outcomes) ~default:(0, 0, 0, 0)
  in
  [
    ("sim.ops", float_of_int (sum (fun r -> r.Runner.ops) outcomes));
    ("sim.cycles", float_of_int (sum (fun r -> r.Runner.sim_time) outcomes));
    ("sim.latency_p50_cycles", float_of_int p50);
    ("sim.latency_p99_cycles", float_of_int p99);
    ( "sim.served_share",
      if total = 0 then 0. else float_of_int served /. float_of_int total );
    ("profile.kendo_waits", prof (fun p -> p.Profile.kendo_waits));
    ("profile.propagated_bytes", prof (fun p -> p.Profile.bytes_propagated));
    ("profile.diff_scanned", prof (fun p -> p.Profile.diff_bytes_scanned));
    ("profile.slices", prof (fun p -> p.Profile.slices_created));
    ("profile.snapshots", prof (fun p -> p.Profile.snapshots));
    ("check.schedules", float_of_int (explored (fun s -> s.Explore.schedules) outcomes));
    ("check.pruned", float_of_int (explored (fun s -> s.Explore.pruned) outcomes));
  ]

(* Free scheduler decisions of one run (the record/replay journal's
   unit), counted through the engine's decision tap; explorations choose
   their own schedules and report 0. *)
let decisions ~seed w =
  List.fold_left
    (fun acc job ->
      match job with
      | Sim { runtime; wl; threads; scale } ->
        let n = ref 0 in
        ignore
          (Runner.run ~threads ~scale ~input_seed:seed
             ~sched_tap:(fun _ -> incr n)
             runtime (Registry.find wl));
        acc + !n
      | Explore _ -> acc)
    0 w.jobs
