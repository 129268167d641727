(* Public layer functions timed directly, independent of any workload.
   They locate the costs the traced pass attributes: the vclock curve
   against fft-t32's grant polls, diff/apply/snapshot against the memory
   pipeline, the empty engine run against explore's per-schedule
   set-up. *)

module Diff = Rfdet_mem.Diff
module Space = Rfdet_mem.Space
module Page = Rfdet_mem.Page
module Vclock = Rfdet_util.Vclock
module Pqueue = Rfdet_util.Pqueue
module Sink = Rfdet_obs.Sink

(* Median over [batches] of the per-call time of a batch that runs at
   least [min_ns]; the batch size doubles until it does. *)
let ns_per_call ~min_ns ~batches f =
  let batch n =
    let t0 = Layers.now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Layers.now () - t0
  in
  let rec size n = if batch n >= min_ns || n >= 1 lsl 26 then n else size (2 * n) in
  let n = size 1 in
  Stat.median
    (List.init batches (fun _ -> float_of_int (batch n) /. float_of_int n))

let page_with_dirty ~every ~len =
  let snapshot = Bytes.make Page.size 'a' in
  let current = Bytes.copy snapshot in
  let i = ref 0 in
  while !i < Page.size do
    Bytes.fill current !i (min len (Page.size - !i)) 'b';
    i := !i + every
  done;
  (snapshot, current)

let vclock n =
  let a = Vclock.create n and b = Vclock.create n in
  for i = 0 to n - 1 do
    Vclock.set b i (i * 7)
  done;
  (a, b)

let run ~quick =
  let min_ns, batches = if quick then (200_000, 1) else (2_000_000, 7) in
  let time f = ns_per_call ~min_ns ~batches f in
  (* 1% dirty: 41 isolated bytes, a typical slice; 50%: alternating
     64-byte blocks, a barrier merge. *)
  let s1, c1 = page_with_dirty ~every:97 ~len:1 in
  let s50, c50 = page_with_dirty ~every:128 ~len:64 in
  let d1 = Diff.diff_page ~page_id:0 ~snapshot:s1 ~current:c1 in
  let apply_space = Space.create () in
  let snap_space = Space.create () in
  Space.store_byte snap_space 1 7;
  let snap_buf = Bytes.create Page.size in
  let join n =
    let a, b = vclock n in
    time (fun () -> Vclock.join a b)
  in
  let leq_a, leq_b = vclock 32 in
  let pq = Pqueue.create ~cmp:compare in
  for i = 0 to 63 do
    Pqueue.push pq (i * 37 mod 64)
  done;
  let sink = Sink.create ~capacity:4096 () in
  let empty_policy = Rfdet_harness.Runner.make_policy Rfdet_harness.Runner.rfdet_ci in
  [
    ( "mem.diff_page_1pct.ns",
      time (fun () -> Diff.diff_page ~page_id:0 ~snapshot:s1 ~current:c1) );
    ( "mem.diff_page_50pct.ns",
      time (fun () -> Diff.diff_page ~page_id:0 ~snapshot:s50 ~current:c50) );
    ("mem.apply_41runs.ns", time (fun () -> Diff.apply apply_space d1));
    ("mem.snapshot_page_into.ns", time (fun () -> Space.snapshot_page_into snap_space 0 snap_buf));
    ("util.vclock_join_8.ns", join 8);
    ("util.vclock_join_32.ns", join 32);
    ("util.vclock_join_256.ns", join 256);
    ("util.vclock_leq_32.ns", time (fun () -> Vclock.leq leq_a leq_b));
    ( "sim.pqueue_push_pop.ns",
      time (fun () ->
          Pqueue.push pq 32;
          Pqueue.pop_exn pq) );
    ( "obs.sink_emit.ns",
      time (fun () ->
          Sink.emit sink ~tid:1 ~time:100 (Rfdet_obs.Trace.Kendo_wait { cycles = 5 })) );
    ( "sim.engine_empty_run.us",
      time (fun () -> Rfdet_sim.Engine.run empty_policy ~main:(fun () -> ())) /. 1e3 );
  ]
