(* Host-time layer attribution, measured from outside the runtime.

   A traced run builds the same policy [Runner.run] would, wraps every
   callback in a pair of monotonic-clock reads, and hands the wrapped
   policy to [Engine.run].  Nothing under lib/ is instrumented, so a
   layer here is a policy callback: the arbiter's on_step poll (split by
   whether it granted a turn), the fence baselines' on_step, and
   [handle] on memory vs synchronization ops.  Whatever the wrappers do
   not cover — scheduling, effect dispatch and the workload's own fiber
   code — is [engine.unattributed]; the wrappers' own cost is
   [trace.probe], calibrated on an empty wrapped call.  Layers + probe +
   unattributed = traced wall. *)

module Engine = Rfdet_sim.Engine
module Op = Rfdet_sim.Op
module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry
module Workload = Rfdet_workloads.Workload
module Arbiter = Rfdet_kendo.Arbiter
module Sync = Rfdet_kendo.Sync

let now () = Int64.to_int (Monotonic_clock.now ())

type slot = { mutable calls : int; mutable ns : int }

let slot_names =
  [|
    "arbiter.idle_poll";
    "arbiter.grant_poll";
    "fence.poll";
    "policy.handle_mem";
    "policy.handle_sync";
    "policy.engine_op";
    "policy.thread_exit";
    "policy.finish";
  |]

let idle_poll = 0
and grant_poll = 1
and fence_poll = 2
and handle_mem = 3
and handle_sync = 4
and engine_op = 5
and thread_exit = 6
and finish = 7

type acc = {
  slots : slot array;
  mutable extra_ns : int;
      (** wrapper work outside the timed intervals that the calibration
          does not cover: the arbiter's [pending_count] reads *)
  mutable wall_ns : int;  (** summed [Engine.run] time *)
}

let fresh () =
  {
    slots = Array.init (Array.length slot_names) (fun _ -> { calls = 0; ns = 0 });
    extra_ns = 0;
    wall_ns = 0;
  }

let stop s t0 =
  let t1 = now () in
  s.ns <- s.ns + (t1 - t0);
  s.calls <- s.calls + 1

let wrap acc arbiter (p : Engine.policy) =
  let sl i = acc.slots.(i) in
  let on_step =
    match arbiter with
    | None ->
      fun () ->
        let t0 = now () in
        p.on_step ();
        stop (sl fence_poll) t0
    | Some arb ->
      fun () ->
        let ta = now () in
        let before = Arbiter.pending_count arb in
        let t0 = now () in
        p.on_step ();
        let t1 = now () in
        let after = Arbiter.pending_count arb in
        let tb = now () in
        let s = sl (if after < before then grant_poll else idle_poll) in
        s.ns <- s.ns + (t1 - t0);
        s.calls <- s.calls + 1;
        acc.extra_ns <- acc.extra_ns + (t0 - ta) + (tb - t1)
  in
  {
    p with
    Engine.handle =
      (fun ~tid op ->
        let s =
          sl (match op with Op.Load _ | Op.Store _ -> handle_mem | _ -> handle_sync)
        in
        let t0 = now () in
        let r = p.handle ~tid op in
        stop s t0;
        r);
    on_engine_op =
      (fun ~tid op o ->
        let t0 = now () in
        let r = p.on_engine_op ~tid op o in
        stop (sl engine_op) t0;
        r);
    on_thread_exit =
      (fun ~tid ->
        let t0 = now () in
        p.on_thread_exit ~tid;
        stop (sl thread_exit) t0);
    on_step;
    on_finish =
      (fun () ->
        let t0 = now () in
        p.on_finish ();
        stop (sl finish) t0);
  }

(* The policy [Runner.run] builds for a fault-free run, plus the Kendo
   arbiter behind it when there is one. *)
let policy runtime engine =
  match runtime with
  | Runner.Rfdet opts ->
    let st, p = Rfdet_core.Rfdet_runtime.make_with_state ~opts engine in
    (Some (Sync.arbiter (Rfdet_core.Rfdet_runtime.sync st)), p)
  | Runner.Kendo ->
    let sync, p = Rfdet_baselines.Kendo_runtime.make_with_sync engine in
    (Some (Sync.arbiter sync), p)
  | Runner.Pthreads | Runner.Dthreads | Runner.Coredet ->
    (None, Runner.make_policy runtime engine)

(* ---------- probe calibration ---------- *)

type probe = {
  inside_ns : float;  (** clock cost that lands inside a timed interval *)
  call_ns : float;  (** whole cost of one empty wrapped call *)
}

let calibrate () =
  let m = 100_000 in
  let f = Sys.opaque_identity (fun () -> ()) in
  let once () =
    let s = { calls = 0; ns = 0 } in
    let start = now () in
    for _ = 1 to m do
      let t0 = now () in
      f ();
      stop s t0
    done;
    let total = now () - start in
    (float_of_int s.ns /. float_of_int m, float_of_int total /. float_of_int m)
  in
  let runs = List.init 5 (fun _ -> once ()) in
  { inside_ns = Stat.median (List.map fst runs); call_ns = Stat.median (List.map snd runs) }

(* ---------- one traced run ---------- *)

let traced_job ~seed acc job =
  match job with
  | Suite.Sim { runtime; wl; threads; scale } ->
    let w = Registry.find wl in
    let config = { Engine.default_config with seed = 1L; jitter_mean = 0. } in
    let main = w.Workload.main { Workload.threads; scale; input_seed = seed } in
    let maker engine =
      let arbiter, p = policy runtime engine in
      wrap acc arbiter p
    in
    let t0 = now () in
    let r = Engine.run ~config maker ~main in
    acc.wall_ns <- acc.wall_ns + (now () - t0);
    Engine.output_signature r
  | Suite.Explore { wl; threads } ->
    (* The explorer builds its policy internally, so its layers cannot be
       wrapped from outside: the whole exploration is unattributed. *)
    let t0 = now () in
    let st =
      Rfdet_check.Explore.explore
        ~config:(Suite.explore_config ~seed threads)
        (Registry.find wl)
    in
    acc.wall_ns <- acc.wall_ns + (now () - t0);
    Option.value st.Rfdet_check.Explore.reference ~default:"none"

(* Per-layer figures of one traced run of [w] and its wall time in ms;
   fails if any job's signature differs from the untraced expectation. *)
let traced_run ~seed ~probe ~expects (w : Suite.t) =
  let acc = fresh () in
  List.iter2
    (fun job (e : Suite.expect) ->
      let s = traced_job ~seed acc job in
      if s <> e.Suite.signature then
        failwith (Printf.sprintf "traced run signature %s, expected %s" s e.Suite.signature))
    w.Suite.jobs expects;
  let wall = float_of_int acc.wall_ns in
  let calls = Array.fold_left (fun n s -> n + s.calls) 0 acc.slots in
  let layer s = Float.max 0. (float_of_int s.ns -. (float_of_int s.calls *. probe.inside_ns)) in
  let probe_ns = (float_of_int calls *. probe.call_ns) +. float_of_int acc.extra_ns in
  let attributed = Array.fold_left (fun a s -> a +. layer s) 0. acc.slots in
  let per_slot =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i s ->
              let n = slot_names.(i) in
              [
                (n ^ ".calls", float_of_int s.calls);
                ( n ^ ".ns_per_call",
                  if s.calls = 0 then 0. else layer s /. float_of_int s.calls );
                (n ^ ".share", layer s /. wall);
              ])
            acc.slots))
  in
  ( per_slot
    @ [
        ("engine.unattributed.share", (wall -. attributed -. probe_ns) /. wall);
        ("trace.probe.share", probe_ns /. wall);
      ],
    wall /. 1e6 )

(* ---------- probes timed by difference ---------- *)

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, float_of_int (now () - t0) /. 1e6)

(* [lib/check]'s DLRC oracle: the share of an exploration's time that
   disappears with the oracle off. *)
let oracle_share ~seed ~runs (w : Suite.t) =
  match w.Suite.jobs with
  | [ Suite.Explore { wl; threads } ] ->
    let fastest_ms oracle =
      let config = { (Suite.explore_config ~seed threads) with oracle } in
      Stat.minimum
        (List.init runs (fun _ ->
             let st, ms =
               time_ms (fun () -> Rfdet_check.Explore.explore ~config (Registry.find wl))
             in
             if st.Rfdet_check.Explore.failures <> [] then failwith "exploration failed";
             ms))
    in
    let on = fastest_ms true in
    1. -. (fastest_ms false /. on)
  | _ -> 0.

let single_sim (w : Suite.t) =
  match w.Suite.jobs with
  | [ Suite.Sim { runtime; wl; threads; scale } ] -> (runtime, wl, threads, scale)
  | _ -> invalid_arg "probe needs a single simulated job"

(* [lib/obs] cost on one workload: runs with an enabled sink against
   the fastest untraced run, then the offline span and critical-path passes
   over its events. *)
let obs_probe ~seed ~runs ~untraced_ms ~expect (w : Suite.t) =
  let runtime, wl, threads, scale = single_sim w in
  let on =
    List.init runs (fun _ ->
        let sink = Rfdet_obs.Sink.create () in
        let r, ms =
          time_ms (fun () ->
              Runner.run ~threads ~scale ~input_seed:seed ~obs:sink runtime
                (Registry.find wl))
        in
        if r.Runner.signature <> expect then failwith "sink-on run diverged";
        (sink, ms))
  in
  let sink = fst (List.hd on) in
  let spans, collect_ms =
    time_ms (fun () -> Rfdet_obs.Span.collect (Rfdet_obs.Sink.events sink))
  in
  let walked, walk_ms =
    time_ms (fun () -> Rfdet_obs.Critpath.walk_all spans.Rfdet_obs.Span.complete)
  in
  (match walked with Ok _ -> () | Error m -> failwith ("critical-path walk: " ^ m));
  [
    ("obs.sink_on.overhead_share", (Stat.minimum (List.map snd on) /. untraced_ms) -. 1.);
    ("obs.events", float_of_int (Rfdet_obs.Sink.total sink));
    ("obs.span_collect_ms", collect_ms);
    ("obs.critpath_walk_ms", walk_ms);
  ]

(* [lib/replay] cost: record a decision journal (kept in the working
   directory, removed afterwards) and replay it under verification. *)
let replay_probe ~seed ~runs ~untraced_ms ~expect (w : Suite.t) =
  let module Session = Rfdet_replay.Session in
  let runtime, wl, threads, scale = single_sim w in
  let spec =
    {
      Session.workload = Registry.find wl;
      runtime;
      threads;
      scale;
      input_seed = seed;
      sched_seed = 1L;
      jitter = 0.;
      fault_mode = Engine.Contain;
      faults = None;
    }
  in
  let path = "perf-journal.tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let record_ms =
        List.init runs (fun _ ->
            let s, ms = time_ms (fun () -> Session.record ~path spec) in
            if s.Session.s_signature <> expect then failwith "recorded run diverged";
            ms)
      in
      let bytes = (Unix.stat path).Unix.st_size in
      let replayed, replay_ms = time_ms (fun () -> Session.replay ~path ()) in
      (match replayed with
      | Ok _ -> ()
      | Error e -> failwith ("replay: " ^ Session.describe_error e));
      [
        ("replay.record.overhead_share", (Stat.minimum record_ms /. untraced_ms) -. 1.);
        ("replay.journal_bytes", float_of_int bytes);
        ("replay.replay_ms", replay_ms);
      ])
