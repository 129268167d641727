module Engine = Rfdet_sim.Engine
module Op = Rfdet_sim.Op
module Options = Rfdet_core.Options
module Race = Rfdet_detect.Race_detector
module Det_rng = Rfdet_util.Det_rng
module Par = Rfdet_par.Par
module Runner = Rfdet_harness.Runner

type config = {
  opts : Options.t;
  threads : int;
  scale : float;
  input_seed : int64;
  oracle : bool;
  prune : bool;
  max_depth : int;
  max_preemptions : int;
  max_schedules : int;
}

let default_config =
  {
    opts = Options.ci;
    threads = 2;
    scale = 1.0;
    input_seed = 42L;
    oracle = true;
    prune = true;
    max_depth = 400;
    max_preemptions = max_int;
    max_schedules = 20_000;
  }

type failure = { f_trace : Trace.t; f_reason : string }

type stats = {
  schedules : int;
  pruned : int;
  deepest : int;
  truncated : bool;
  reference : string option;
  failures : failure list;
}

(* ---------- segment footprints ---------- *)

(* The visible action of a segment is its closing boundary operation.
   Two segments commute when their closing operations are on provably
   different objects; everything we cannot prove is conservatively
   [F_top] (dependent with everything).  A segment closed by a thread
   exit is [F_top] too: exits publish the final slice and wake
   joiners. *)
type footprint =
  | F_mutex of int
  | F_atomic of int
  | F_rwlock of int
  | F_sem of int
  | F_top

let footprint_of_op (op : Op.t) =
  match op with
  | Op.Lock m | Op.Unlock m -> F_mutex m
  | Op.Atomic { addr; _ } -> F_atomic addr
  | Op.Rdlock rw | Op.Wrlock rw | Op.Rwunlock rw -> F_rwlock rw
  | Op.Sem_acquire s | Op.Sem_post s -> F_sem s
  (* Deque steals scan every deque for a victim, so deque ops stay
     [F_top]; condvar ops interact with the paired mutex, likewise. *)
  | _ -> F_top

let independent a b =
  match (a, b) with F_top, _ | _, F_top -> false | _ -> a <> b

(* ---------- one schedule ---------- *)

exception Sleep_blocked
exception Replay_mismatch of string

(* One recorded choice point.  Points where only one thread is ready are
   not recorded (there is nothing to decide, and skipping them keeps
   traces short); the recording rule is a deterministic function of the
   earlier choices, so positional replay stays aligned. *)
type point = {
  p_ready : int list;
  p_chosen : int;
  p_last : int;
  p_last_ready : bool;
  p_sleep : (int * footprint) list;  (* sleep set in force at this choice *)
  p_ready_seg : (int * int) list;  (* tid -> its segment index here *)
  mutable p_foot : footprint option;  (* chosen's segment, filled at close *)
}

type run_outcome =
  | R_ok of string  (* output signature *)
  | R_pruned
  | R_oracle of string
  | R_deadlock of string
  | R_mismatch of string
  | R_error of string

type run = { ro : run_outcome; points : point array }

type mode = M_default | M_random of Det_rng.t

(* Execute one schedule.  [prescribed] pins the first recorded choices;
   after it runs out the choice falls to [mode].  Sleep-set state:
   [birth_sleep] is the sleep set in force at the first free choice
   (= once the segment opened by the last prescribed point closes);
   closing a segment wakes every sleeper whose footprint is dependent
   on it. *)
let run_once ~(spec : Runner.spec) ~(policy : Runner.policy_hook)
    ~(streams : (int * int, footprint) Hashtbl.t) ~(prescribed : int array)
    ~(birth_sleep : (int * footprint) list) ~(strict : bool) ~(mode : mode)
    ~(prune : bool) () : run =
  let plen = Array.length prescribed in
  let points = ref [] in
  let npoints = ref 0 in
  let sleep = ref (if plen = 0 then birth_sleep else []) in
  let free = ref (plen = 0) in
  (* recorded index of the previous point, if it was recorded *)
  let last_rec = ref None in
  let seg_count : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let last_op : (int, Op.t) Hashtbl.t = Hashtbl.create 8 in
  let engine_ref = ref None in
  let seg_index tid =
    Option.value (Hashtbl.find_opt seg_count tid) ~default:0
  in
  let close_segment tid ~ready =
    let f =
      let finished =
        match !engine_ref with
        | Some eng ->
          (not ready) && (Engine.is_finished eng tid || Engine.is_crashed eng tid)
        | None -> false
      in
      if finished then F_top
      else
        match Hashtbl.find_opt last_op tid with
        | Some op -> footprint_of_op op
        | None -> F_top
    in
    (match !points with
    | p :: _ when p.p_chosen = tid && p.p_foot = None -> p.p_foot <- Some f
    | _ -> ());
    let idx = seg_index tid in
    if not (Hashtbl.mem streams (tid, idx)) then
      Hashtbl.replace streams (tid, idx) f;
    Hashtbl.replace seg_count tid (idx + 1);
    if !free then sleep := List.filter (fun (_, fx) -> independent fx f) !sleep
    else if !last_rec = Some (plen - 1) then begin
      (* the last prescribed segment just closed: install the branch's
         birth sleep set, then let this segment wake its dependents *)
      free := true;
      sleep := List.filter (fun (_, fx) -> independent fx f) birth_sleep
    end
  in
  let default_choice (sp : Engine.sched_point) =
    let sleeping = if prune then List.map fst !sleep else [] in
    match
      List.filter (fun tid -> not (List.mem tid sleeping)) sp.Engine.sp_ready
    with
    | [] -> raise Sleep_blocked
    | avail ->
      if List.mem sp.Engine.sp_last avail then sp.Engine.sp_last
      else List.hd avail
  in
  let choose (sp : Engine.sched_point) =
    if sp.Engine.sp_last_ready && not sp.Engine.sp_last_boundary then
      (* mid-segment: between boundaries the interleaving cannot matter *)
      sp.Engine.sp_last
    else begin
      if sp.Engine.sp_last >= 0 then
        close_segment sp.Engine.sp_last ~ready:sp.Engine.sp_last_ready;
      match sp.Engine.sp_ready with
      | [ only ] ->
        if prune && List.mem_assoc only !sleep then raise Sleep_blocked;
        last_rec := None;
        only
      | ready ->
        let idx = !npoints in
        let chosen =
          if idx < plen then begin
            let c = prescribed.(idx) in
            if List.mem c ready then c
            else if strict then
              raise
                (Replay_mismatch
                   (Printf.sprintf
                      "choice %d prescribes tid %d but ready set is {%s}" idx c
                      (String.concat "," (List.map string_of_int ready))))
            else default_choice sp
          end
          else
            match mode with
            | M_default -> default_choice sp
            | M_random rng -> List.nth ready (Det_rng.int rng (List.length ready))
        in
        points :=
          {
            p_ready = ready;
            p_chosen = chosen;
            p_last = sp.Engine.sp_last;
            p_last_ready = sp.Engine.sp_last_ready;
            p_sleep = !sleep;
            p_ready_seg = List.map (fun tid -> (tid, seg_index tid)) ready;
            p_foot = None;
          }
          :: !points;
        incr npoints;
        last_rec := Some idx;
        chosen
    end
  in
  (* [close_segment] asks the engine whether a thread finished *)
  let noted make eng =
    engine_ref := Some eng;
    make eng
  in
  let hooks =
    {
      Runner.no_hooks with
      choose = Some choose;
      observe = Some (fun ~tid op -> Hashtbl.replace last_op tid op);
      policy =
        (match policy with
        | Runner.Rfdet_with make -> Runner.Rfdet_with (fun o -> noted (make o))
        | Runner.Policy make -> Runner.Policy (noted make));
    }
  in
  let ro =
    match Runner.exec ~hooks spec with
    | res -> R_ok (Engine.output_signature res)
    | exception Sleep_blocked -> R_pruned
    | exception Replay_mismatch m -> R_mismatch m
    | exception Oracle.Divergence m -> R_oracle m
    | exception Engine.Thread_failure (_, Oracle.Divergence m) -> R_oracle m
    | exception Engine.Deadlock m -> R_deadlock m
    | exception Engine.Runaway -> R_error "runaway: max_ops exceeded"
    | exception Engine.Thread_failure (tid, e) ->
      R_error (Printf.sprintf "thread %d failed: %s" tid (Printexc.to_string e))
  in
  { ro; points = Array.of_list (List.rev !points) }

let choices_of run = Array.to_list (Array.map (fun p -> p.p_chosen) run.points)

(* The failure a finished run reports; [None] for a clean or pruned run. *)
let failure_of = function
  | R_ok _ | R_pruned -> None
  | R_oracle m -> Some ("oracle divergence: " ^ m)
  | R_deadlock m -> Some ("deadlock: " ^ m)
  | R_mismatch m -> Some ("replay mismatch: " ^ m)
  | R_error m -> Some m

(* The one spec every schedule of an exploration runs, and the header of
   every trace it writes: only the schedule varies, so the scheduler
   seed, jitter, fault mode and plan are the engine's defaults. *)
let spec (cfg : config) wl =
  Runner.spec ~threads:cfg.threads ~scale:cfg.scale ~input_seed:cfg.input_seed
    ~failure_mode:Engine.Abort (Runner.Rfdet cfg.opts) wl

(* The policy of an exploration: [hook] if given, else the runtime under
   the oracle, or plain with the oracle off. *)
let policy_of ?hook ~oracle () =
  match hook with
  | Some p -> p
  | None when oracle ->
    Runner.Rfdet_with (fun opts -> Oracle.wrap_with_state ~opts)
  | None -> Runner.no_hooks.Runner.policy

let max_recorded_failures = 100

(* Fold one finished schedule into the reference signature and the
   failure list (the first [max_recorded_failures] failures, newest
   first). *)
let judge ~header ~reference ~failures run =
  let fail reason =
    if List.length !failures < max_recorded_failures then
      let f_trace =
        {
          Trace.header;
          choices = choices_of run;
          expect = !reference;
          note = Some reason;
        }
      in
      failures := { f_trace; f_reason = reason } :: !failures
  in
  match run.ro with
  | R_ok s -> (
    match !reference with
    | None -> reference := Some s
    | Some r when r <> s ->
      fail (Printf.sprintf "signature divergence: %s <> reference %s" s r)
    | Some _ -> ())
  | ro -> Option.iter fail (failure_of ro)

(* ---------- exhaustive DFS ---------- *)

type work = { wi_prefix : int array; wi_birth : (int * footprint) list }

(* Push the unexplored siblings of every free choice of [run], deepest
   first so the stack pops them in DFS order.  Sibling [a_k] at point
   [j] is born asleep on the already-explored choices at [j] (the chosen
   thread, plus earlier alternatives whose next-segment footprint the
   [streams] map has learned from prior runs — per-thread op streams are
   schedule-independent in a correct DMT, which is what makes them
   learnable). *)
let expand ~(cfg : config) ~prune ~streams ~(run : run) ~prefix_len ~push =
  let points = run.points in
  let n = Array.length points in
  let preempt (p : point) alt =
    p.p_last >= 0 && p.p_last_ready && alt <> p.p_last
  in
  let cum = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    cum.(j + 1) <-
      (cum.(j) + if preempt points.(j) points.(j).p_chosen then 1 else 0)
  done;
  let choices = Array.map (fun p -> p.p_chosen) points in
  for j = min (n - 1) (cfg.max_depth - 1) downto prefix_len do
    let p = points.(j) in
    let sleeping = if prune then List.map fst p.p_sleep else [] in
    let alts =
      List.filter
        (fun a ->
          a <> p.p_chosen
          && (not (List.mem a sleeping))
          && cum.(j) + (if preempt p a then 1 else 0) <= cfg.max_preemptions)
        p.p_ready
    in
    let earlier =
      ref (match p.p_foot with Some f -> [ (p.p_chosen, f) ] | None -> [])
    in
    let items =
      List.map
        (fun a ->
          let birth = if prune then p.p_sleep @ !earlier else [] in
          (if prune then
             match List.assoc_opt a p.p_ready_seg with
             | Some segidx -> (
               match Hashtbl.find_opt streams (a, segidx) with
               | Some f -> earlier := (a, f) :: !earlier
               | None -> ())
             | None -> ());
          let prefix = Array.append (Array.sub choices 0 j) [| a |] in
          { wi_prefix = prefix; wi_birth = birth })
        alts
    in
    List.iter push (List.rev items)
  done

let explore ?policy ?(config = default_config) wl =
  let cfg = config in
  let spec = spec cfg wl in
  let header = Trace.header_of_spec spec in
  let policy = policy_of ?hook:policy ~oracle:cfg.oracle () in
  let streams = Hashtbl.create 64 in
  let stack = ref [ { wi_prefix = [||]; wi_birth = [] } ] in
  let schedules = ref 0 in
  let pruned = ref 0 in
  let deepest = ref 0 in
  let truncated = ref false in
  let reference = ref None in
  let failures = ref [] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | _ when !schedules >= cfg.max_schedules ->
      truncated := true;
      continue := false
    | item :: rest ->
      stack := rest;
      let run =
        run_once ~spec ~policy ~streams ~prescribed:item.wi_prefix
          ~birth_sleep:item.wi_birth ~strict:true ~mode:M_default
          ~prune:cfg.prune ()
      in
      (match run.ro with
      | R_pruned -> incr pruned
      | _ ->
        incr schedules;
        deepest := max !deepest (Array.length run.points);
        (* a strict prefix that fails to replay ([R_mismatch]) means the
           per-thread op streams themselves depended on the schedule —
           nondeterminism *)
        judge ~header ~reference ~failures run;
        expand ~cfg ~prune:cfg.prune ~streams ~run
          ~prefix_len:(Array.length item.wi_prefix)
          ~push:(fun wi -> stack := wi :: !stack))
  done;
  {
    schedules = !schedules;
    pruned = !pruned;
    deepest = !deepest;
    truncated = !truncated;
    reference = !reference;
    failures = List.rev !failures;
  }

let hunt ?policy ?(config = default_config) wl =
  explore ?policy ~config:{ config with prune = false } wl

(* ---------- seeded random sampling ---------- *)

let sample ?(config = default_config) ?(jobs = 1) ~seed ~n wl =
  let spec = spec config wl in
  let header = Trace.header_of_spec spec in
  let policy = policy_of ~oracle:config.oracle () in
  let schedules = ref 0 in
  let deepest = ref 0 in
  let reference = ref None in
  let failures = ref [] in
  (* With pruning off nothing ever reads the learned-footprint table, so
     each schedule gets its own: a sampled run is a pure function of its
     mode, which is what lets the walks execute on concurrent domains. *)
  let run_of mode =
    run_once ~spec ~policy ~streams:(Hashtbl.create 64) ~prescribed:[||]
      ~birth_sleep:[] ~strict:true ~mode ~prune:false ()
  in
  let fold run =
    incr schedules;
    deepest := max !deepest (Array.length run.points);
    judge ~header ~reference ~failures run
  in
  (* the default schedule provides the reference signature *)
  fold (run_of M_default);
  (* the n seeded walks are independent; run them across [jobs] domains
     and fold the outcomes in walk order, so the stats (and the order
     failures are recorded in) match the sequential sweep exactly *)
  Par.map_ordered ~jobs
    (fun i -> run_of (M_random (Det_rng.create (Int64.add seed (Int64.of_int i)))))
    (List.init n (fun i -> i + 1))
  |> List.iter fold;
  {
    schedules = !schedules;
    pruned = 0;
    deepest = !deepest;
    truncated = false;
    reference = !reference;
    failures = List.rev !failures;
  }

(* ---------- trace replay ---------- *)

type replay_result = {
  r_signature : string option;
  r_choices : int list;
  r_error : string option;
}

let detector_runtime = "race-detector"

(* The spec a trace's header names, and whether it names the race
   detector.  The detector and a forced [opts] stand in for the named
   runtime.  The explorer varies only the schedule, so a header whose
   other lines differ from those of [spec] is rejected, naming the
   field. *)
let resolve ?opts (h : Trace.header) =
  let ( let* ) = Result.bind in
  let detector = h.Trace.runtime = detector_runtime in
  let* s =
    Trace.spec_of_header
      (if detector || opts <> None then
         { h with Trace.runtime = Runner.cli_name Runner.rfdet_ci }
       else h)
  in
  let* opts =
    match (opts, s.Runner.runtime) with
    | Some o, _ | None, Runner.Rfdet o -> Ok o
    | None, _ ->
      Error
        (Printf.sprintf "runtime %S is not an RFDet configuration"
           h.Trace.runtime)
  in
  let fixed =
    spec
      { default_config with opts; threads = s.threads; scale = s.scale;
        input_seed = s.input_seed }
      s.workload
  in
  let lines s =
    Trace.fields_of_string (Trace.header_to_string (Trace.header_of_spec s))
  in
  let ours = lines fixed in
  match
    List.find_opt
      (fun (k, v) -> k <> "runtime" && List.assoc_opt k ours <> Some v)
      (lines s)
  with
  | None -> Ok (fixed, detector)
  | Some (k, v) ->
    Error
      (Printf.sprintf
         "trace header sets %s %s, which the explorer does not vary (it \
          writes %s)"
         k v
         (match List.assoc_opt k ours with
         | Some v' -> k ^ " " ^ v'
         | None -> "no " ^ k))

(* A trace whose runtime is the happens-before race detector runs the
   workload under [Race_detector] with the trace's choices
   prescribed, and reports the race-set digest as the signature.  The
   detector's synchronization order is Kendo-stamped (icount-based), so
   the digest is schedule-invariant — which is exactly what lets the
   ddmin shrinker cut a recorded choice list down to (near) nothing and
   still reproduce the race set: the minimal repro for a race under DLRC
   is the workload itself. *)
let replay ?(strict = true) ?(oracle = true) ?opts (tr : Trace.t) =
  match resolve ?opts tr.Trace.header with
  | Error e -> { r_signature = None; r_choices = []; r_error = Some e }
  | Ok (spec, detector) -> (
    let race = if detector then Some (Race.recorder ()) else None in
    let policy =
      match race with
      | Some (make, _) -> Runner.Policy make
      | None -> policy_of ~oracle ()
    in
    let run =
      run_once ~spec ~policy ~streams:(Hashtbl.create 16)
        ~prescribed:(Array.of_list tr.Trace.choices) ~birth_sleep:[] ~strict
        ~mode:M_default ~prune:false ()
    in
    let r_choices = choices_of run in
    match run.ro with
    | R_ok s ->
      let what, s =
        match race with
        | Some (_, report) -> ("race digest", Race.digest (report ()))
        | None -> ("signature", s)
      in
      let r_error =
        match tr.Trace.expect with
        | Some e when e <> s ->
          Some (Printf.sprintf "%s %s <> expected %s" what s e)
        | _ -> None
      in
      { r_signature = Some s; r_choices; r_error }
    | ro ->
      let e = Option.value (failure_of ro) ~default:"pruned" in
      { r_signature = None; r_choices; r_error = Some e })
