module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op
module Profile = Rfdet_sim.Profile
module Sync = Rfdet_kendo.Sync
module Space = Rfdet_mem.Space
module Layout = Rfdet_mem.Layout
module Page = Rfdet_mem.Page
module Diff = Rfdet_mem.Diff
module Vclock = Rfdet_util.Vclock

(* The vector-clock width.  Thread ids index clock components, so this
   bounds the number of threads a single run may create.  A
   synchronization copies and joins whole clocks (O(width)), but the
   Figure-5 filter reads one component per scanned slice
   ([Propagate.admits]), so the scan does not grow with the width. *)
let max_threads = 64

type t = {
  engine : Engine.t;
  opts : Options.t;
  meta : Metadata.t;
  diffs : Diff.builder;  (* reused by every slice close *)
  states : (int, Tstate.t) Hashtbl.t;
  last_release : (Sync.obj, int * Vclock.t * int) Hashtbl.t;
  (* lastTid, lastTime, and the releaser's slice-list length at the
     release — the propagation scan bound *)
  mutable sync : Sync.t option;  (* tied after creation (hooks need [t]) *)
  mutable main_forked : bool;
}

let name opts = Options.name opts

let state t ~tid =
  match Hashtbl.find_opt t.states tid with
  | Some ts -> ts
  | None -> invalid_arg (Printf.sprintf "Rfdet_runtime: unknown tid %d" tid)

let metadata t = t.meta

let iter_states t ~f = Hashtbl.iter (fun tid ts -> f ~tid ts) t.states

let last_release t obj = Hashtbl.find_opt t.last_release obj

(* Options.bug_drop_window (test only): the seeded visibility bug is
   active while the engine's global op counter — the one
   schedule-dependent quantity in the runtime — is inside the window. *)
let bug_drop_active t =
  match t.opts.Options.bug_drop_window with
  | None -> false
  | Some (lo, hi) ->
    let ops = Engine.ops_executed t.engine in
    ops >= lo && ops < hi

(* Options.bug_lost_signal (test only): same window mechanism, but the
   defect is a swallowed cond_signal wakeup. *)
let bug_lost_active t =
  match t.opts.Options.bug_lost_signal with
  | None -> false
  | Some (lo, hi) ->
    let ops = Engine.ops_executed t.engine in
    ops >= lo && ops < hi

let clock_size _ = max_threads

let sync_exn t = match t.sync with Some s -> s | None -> assert false

let sync = sync_exn

let prof t = Engine.profile t.engine

let cost t = Engine.cost t.engine

let obs t = Engine.obs t.engine

let vc_of (ts : Tstate.t) = Vclock.to_array ts.time

(* ------------------------------------------------------------------ *)
(* Lazy writes: apply a page's queued page segments on first touch.   *)
(* ------------------------------------------------------------------ *)

(* Apply pending segments in arrival order (so the latest propagated
   value wins), but charge only one write per distinct byte — the whole
   point of postponing the writes (Section 4.5, "Lazy Writes"). *)
let flush_pending ?(bulk = false) t (ts : Tstate.t) page =
  if not (Tstate.has_pending ts page) then 0
  else begin
    let p = prof t in
    if not bulk then p.page_faults <- p.page_faults + 1;
    let touched = Metadata.alloc_page_buf t.meta in
    let distinct = Tstate.flush_pending ts page ~touched in
    Metadata.release_page_buf t.meta touched;
    Space.protect ts.shared page Space.Prot_rw;
    let c = cost t in
    let trap = if bulk then 50 else c.Cost.page_fault in
    trap + (distinct * c.Cost.apply_byte)
  end

(* Bulk application (barrier merge, pre-fork): the runtime walks the
   pending set directly — no traps are taken. *)
let flush_all_pending t (ts : Tstate.t) =
  List.fold_left
    (fun acc page -> acc + flush_pending ~bulk:true t ts page)
    0 (Tstate.pending_pages ts)

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

(* Begin a new slice.  Under the page-fault monitor this is where the
   shared region is write-protected again (one mprotect call). *)
let open_slice t (ts : Tstate.t) =
  match t.opts.monitor with
  | Options.Instrumentation -> 0
  | Options.Page_fault ->
    if ts.monitoring then begin
      let p = prof t in
      p.mprotect_calls <- p.mprotect_calls + 1;
      (cost t).Cost.mprotect_page
    end
    else 0

(* End the current slice: diff every snapshotted page (first-touch
   order), release the snapshots, store the modification list stamped
   with the thread's current clock, and run GC if the metadata space is
   over threshold.  Returns the simulated cycles spent.  The caller ticks
   the clock afterwards. *)
let close_slice t (ts : Tstate.t) =
  let c = cost t in
  let p = prof t in
  let o = obs t in
  let tracing = Rfdet_obs.Sink.enabled o in
  let trace_now = if tracing then Engine.clock t.engine ts.tid else 0 in
  let trace_vc = if tracing then vc_of ts else [||] in
  let cycles = ref c.Cost.slice_overhead in
  let pages = List.rev ts.touch_order in
  List.iter
    (fun page ->
      let snapshot = Hashtbl.find ts.snapshots page in
      let current = Space.page_bytes ts.shared page in
      let diff_cycles = Cost.diff_cost c ~bytes:Page.size in
      cycles := !cycles + diff_cycles;
      p.diff_bytes_scanned <- p.diff_bytes_scanned + Page.size;
      Diff.add_page t.diffs ~page_id:page ~snapshot ~current;
      if tracing then
        Rfdet_obs.Sink.emit o ~tid:ts.tid ~time:trace_now ~vc:trace_vc
          (Rfdet_obs.Trace.Diff
             {
               page;
               bytes = Diff.last_page_bytes t.diffs;
               runs = Diff.last_page_runs t.diffs;
               cycles = diff_cycles;
             });
      Metadata.snapshot_released t.meta;
      Metadata.release_page_buf t.meta snapshot)
    pages;
  let mods = Diff.finish t.diffs in
  Hashtbl.reset ts.snapshots;
  ts.touch_order <- [];
  let closed_slice_id = ref (-1) in
  if not (Diff.is_empty mods) then begin
    let slice =
      Slice.make
        ~id:(Metadata.fresh_slice_id t.meta)
        ~tid:ts.tid ~mods ~time:(Vclock.copy ts.time)
    in
    closed_slice_id := slice.Slice.id;
    Metadata.add_slice t.meta slice;
    Tstate.append_slice ts slice;
    p.slices_created <- p.slices_created + 1;
    if Metadata.needs_gc t.meta then begin
      let frontier = Vclock.create max_threads in
      for i = 0 to max_threads - 1 do
        Vclock.set frontier i max_int
      done;
      (* The frontier must witness that every unfinished thread has
         *merged the bytes* of a slice, not merely that its clock will
         eventually dominate it — so each thread contributes its raw
         current time.  (A tempting refinement — crediting a thread
         blocked in join(X) with X's clock — is unsound: the joiner's
         clock will dominate X's slices after the join, but its memory
         has not absorbed their bytes yet, and freeing them first loses
         updates.  A regression test covers this.) *)
      Hashtbl.iter
        (fun _ (ts' : Tstate.t) ->
          if not (Tstate.exited ts') then Vclock.min_into frontier ts'.time)
        t.states;
      let examined, freed = Metadata.gc t.meta ~frontier in
      p.gc_runs <- p.gc_runs + 1;
      p.gc_slices_freed <- p.gc_slices_freed + freed;
      let gc_cycles = examined * c.Cost.gc_per_slice in
      if tracing then
        Rfdet_obs.Sink.emit o ~tid:ts.tid ~time:trace_now ~vc:trace_vc
          (Rfdet_obs.Trace.Gc { examined; freed; cycles = gc_cycles });
      cycles := !cycles + gc_cycles
    end
  end;
  cycles := !cycles + open_slice t ts;
  if tracing then begin
    Rfdet_obs.Sink.emit o ~tid:ts.tid ~time:trace_now ~vc:trace_vc
      (Rfdet_obs.Trace.Slice_close
         {
           slice = !closed_slice_id;
           pages = List.length pages;
           bytes = Diff.byte_count mods;
           cycles = !cycles;
         });
    Rfdet_obs.Sink.emit o ~tid:ts.tid ~time:trace_now ~vc:trace_vc
      Rfdet_obs.Trace.Slice_open
  end;
  !cycles

(* ------------------------------------------------------------------ *)
(* Acquire / release hooks (wired into the Kendo synchronization layer) *)
(* ------------------------------------------------------------------ *)

(* Extra delay after the grant time [now], given that closing the slice
   really happened when the thread blocked (at its current clock) and
   that with prelock the propagation work overlaps the wait. *)
let settle_delay t ~tid ~now ~close_cycles ~prop_cycles =
  let t0 = Engine.clock t.engine tid in
  let ready = t0 + close_cycles in
  if ready >= now then (ready - now) + prop_cycles
  else begin
    let slack = now - ready in
    if t.opts.prelock && prop_cycles > 0 then max 0 (prop_cycles - slack)
    else prop_cycles
  end

let do_release t ~tid ~obj ~now =
  let ts = state t ~tid in
  let close_cycles = close_slice t ts in
  let stamp = Vclock.copy ts.time in
  ignore (Vclock.tick ts.time tid);
  Hashtbl.replace t.last_release obj
    (tid, stamp, Rfdet_util.Vec.length ts.slices);
  settle_delay t ~tid ~now ~close_cycles ~prop_cycles:0

let do_acquire t ~tid ~obj ~now =
  let ts = state t ~tid in
  match Hashtbl.find_opt t.last_release obj with
  | Some (last_tid, _, _) when last_tid = tid && t.opts.slice_merging ->
    (* Slice merging: re-acquiring a variable we released ourselves —
       keep the current slice open, skip the snapshot/diff cycle. *)
    0
  | last ->
    let close_cycles = close_slice t ts in
    let lower = Vclock.copy ts.time in
    ignore (Vclock.tick ts.time tid);
    let prop_cycles =
      match last with
      | None -> 0
      | Some (last_tid, last_time, last_len) ->
        Vclock.join ts.time last_time;
        if last_tid = tid then 0
        else
          let upper = Vclock.copy ts.time in
          Propagate.run ~drop:(bug_drop_active t) ~obs:(obs t) ~at:now
            ~cost:(cost t) ~opts:t.opts ~prof:(prof t)
            ~from:(state t ~tid:last_tid) ~upto:last_len ~into:ts ~upper
            ~lower ()
    in
    settle_delay t ~tid ~now ~close_cycles ~prop_cycles

(* Barriers merge every arriving thread's happens-before set into the
   smallest-tid thread (in ascending tid order, Section 4.1), then hand
   each party a copy-on-write copy of that thread's memory. *)
let do_barrier t ~tids ~barrier:_ ~now =
  let cycles = ref 0 in
  let states = List.map (fun tid -> state t ~tid) tids in
  List.iter (fun ts -> cycles := !cycles + close_slice t ts) states;
  let joint = Vclock.create max_threads in
  List.iter (fun (ts : Tstate.t) -> Vclock.join joint ts.time) states;
  let sorted = List.sort compare tids in
  let leader =
    match sorted with
    | tid :: _ -> state t ~tid
    | [] -> invalid_arg "Rfdet: barrier with no parties"
  in
  let lower = Vclock.copy leader.time in
  Vclock.join leader.time joint;
  ignore (Vclock.tick leader.time leader.tid);
  let upper = Vclock.copy leader.time in
  List.iter
    (fun tid ->
      if tid <> leader.tid then
        cycles :=
          !cycles
          + (let from = state t ~tid in
             Propagate.run ~drop:(bug_drop_active t) ~obs:(obs t) ~at:now
               ~cost:(cost t) ~opts:t.opts ~prof:(prof t) ~from
               ~upto:(Rfdet_util.Vec.length from.Tstate.slices) ~into:leader
               ~upper ~lower ()))
    sorted;
  (* Everyone must observe the merged memory: flush the leader's pending
     lazy updates before forking its space. *)
  cycles := !cycles + flush_all_pending t leader;
  List.iter
    (fun (ts : Tstate.t) ->
      if ts.tid <> leader.tid then begin
        (* Adopt the leader's merged memory, slice list and resume
           indices (copy-on-write); keep own stack and monitoring flag.
           The clock restarts from the joint time, ticked so the new
           slices of different threads stay concurrent. *)
        Hashtbl.replace t.states ts.tid (Tstate.adopt_view ~leader ~follower:ts);
        Vclock.join ts.time joint;
        ignore (Vclock.tick ts.time ts.tid)
      end)
    states;
  !cycles

let do_spawned t ~parent ~child ~now:_ =
  if child >= max_threads then
    failwith
      (Printf.sprintf
         "RFDet: thread id %d exceeds the configured vector-clock width %d"
         child max_threads);
  let ts = state t ~tid:parent in
  let close_cycles = close_slice t ts in
  let pending_cycles = flush_all_pending t ts in
  Engine.advance t.engine parent (close_cycles + pending_cycles);
  let stamp = Vclock.copy ts.time in
  ignore (Vclock.tick ts.time parent);
  if parent = 0 && not t.main_forked then begin
    t.main_forked <- true;
    if t.opts.skip_premain_monitoring then ts.monitoring <- true
  end;
  let child_state = Tstate.fork ts ~tid:child ~stamp in
  Hashtbl.replace t.states child child_state

let do_exited t ~tid =
  let ts = state t ~tid in
  let cycles = close_slice t ts in
  Engine.advance t.engine tid cycles;
  ts.final_stamp <- Some (Vclock.copy ts.time);
  ts.exit_len <- Rfdet_util.Vec.length ts.slices;
  ignore (Vclock.tick ts.time tid)

(* Discard a crashed thread's open slice by dropping its snapshots
   *without diffing*.  With [restore], first copy each snapshot back into
   the private view, rolling its stores back to the last release point
   (a restart). *)
let drop_open_slice t (ts : Tstate.t) ~restore =
  Hashtbl.iter
    (fun page buf ->
      if restore then
        Space.blit_string ts.shared ~addr:(Page.base_of_id page)
          (Bytes.to_string buf);
      Metadata.snapshot_released t.meta;
      Metadata.release_page_buf t.meta buf)
    ts.snapshots;
  Hashtbl.reset ts.snapshots;
  ts.touch_order <- []

(* Crash containment (an extension beyond the paper; see DESIGN.md).
   Slice privacy makes this sound and cheap: the thread's stores since
   its last release point live only in its private copy-on-write view
   and in its open snapshot set — nothing has been published.  Discard
   the open slice; the thread's previously released slices stay in the
   metadata space and remain visible through the regular acquire-time
   propagation.  The thread is marked exited so it stops pinning the GC
   frontier. *)
let do_crashed t ~tid =
  let ts = state t ~tid in
  drop_open_slice t ts ~restore:false;
  (* Pending lazy writes were already committed by their writers; this
     only drops the crashed thread's private, never-again-read view. *)
  Hashtbl.reset ts.lazy_pending;
  ts.final_stamp <- Some (Vclock.copy ts.time);
  ts.exit_len <- Rfdet_util.Vec.length ts.slices;
  ignore (Vclock.tick ts.time tid)

(* Restart preparation (the Recover failure mode): roll the private
   view back to the last release point by restoring every open page
   snapshot, then drop the snapshot set.  Unlike [do_crashed] the
   thread is not marked exited — its clock keeps running, joiners keep
   waiting, and pending lazy writes stay queued (they carry remote
   data still owed to this view).  After the rollback, replaying the
   lost span from the registered restart point re-executes the same
   deterministic stores against the same pre-span memory, so the
   recovered slices are bit-identical to what the crash destroyed. *)
let crash_recoverable t ~tid = drop_open_slice t (state t ~tid) ~restore:true

(* Engine.I_corrupt: silently flip a byte in the newest live slice the
   thread has published.  Nothing is signalled here — the damage must
   be caught by checksum verification at propagation time, or by the
   end-of-run audit in [on_finish]. *)
let corrupt_metadata t ~tid =
  match Hashtbl.find_opt t.states tid with
  | None -> ()
  | Some ts ->
    let target = ref None in
    Rfdet_util.Vec.iter ts.slices ~f:(fun (s : Slice.t) ->
        if s.tid = tid && (not s.freed) && not (Diff.is_empty s.mods) then
          target := Some s);
    Option.iter Slice.corrupt !target

let do_joined t ~tid ~target ~now =
  let ts = state t ~tid in
  let target_state = state t ~tid:target in
  let final =
    match target_state.final_stamp with
    | Some f -> f
    | None -> invalid_arg "Rfdet: join of a thread that has not exited"
  in
  let close_cycles = close_slice t ts in
  let lower = Vclock.copy ts.time in
  ignore (Vclock.tick ts.time tid);
  Vclock.join ts.time final;
  let upper = Vclock.copy ts.time in
  let prop_cycles =
    Propagate.run ~drop:(bug_drop_active t) ~obs:(obs t) ~at:now
      ~cost:(cost t) ~opts:t.opts ~prof:(prof t) ~from:target_state
      ~upto:target_state.Tstate.exit_len ~into:ts ~upper ~lower ()
  in
  target_state.joined <- true;
  settle_delay t ~tid ~now ~close_cycles ~prop_cycles

(* ------------------------------------------------------------------ *)
(* Memory operations                                                   *)
(* ------------------------------------------------------------------ *)

let do_load t ~tid ~addr ~width =
  let c = cost t in
  let ts = state t ~tid in
  let space, extra =
    if Layout.is_stack addr then (ts.stack, 0)
    else begin
      let len = match width with Op.W8 -> 1 | Op.W64 -> 8 in
      let extra =
        List.fold_left
          (fun acc page ->
            if Tstate.has_pending ts page then acc + flush_pending t ts page
            else acc)
          0
          (Page.span ~addr ~len)
      in
      (ts.shared, extra)
    end
  in
  Engine.advance t.engine tid (c.Cost.load + extra);
  match width with
  | Op.W8 -> Space.load_byte space addr
  | Op.W64 -> Space.load_int space addr

(* Figure 4: the store instrumentation.  First write to a shared page in
   the current slice snapshots the page into the metadata space. *)
let do_store t ~tid ~addr ~value ~width =
  let c = cost t in
  let p = prof t in
  let ts = state t ~tid in
  if Layout.is_stack addr then begin
    Engine.advance t.engine tid c.Cost.store;
    match width with
    | Op.W8 -> Space.store_byte ts.stack addr value
    | Op.W64 -> Space.store_int ts.stack addr value
  end
  else begin
    let extra = ref 0 in
    let len = match width with Op.W8 -> 1 | Op.W64 -> 8 in
    (* Figure 4: "foreach pageid in pagesTouchedBy(addr, len)" — an
       unaligned word store can straddle two pages and both need a
       snapshot, or the second page's bytes vanish from the slice. *)
    let copied = ref false in
    List.iter
      (fun page ->
        if Tstate.has_pending ts page then
          extra := !extra + flush_pending t ts page;
        if ts.monitoring && not (Tstate.has_open_snapshot ts page) then begin
          let buf = Metadata.alloc_page_buf t.meta in
          Space.snapshot_page_into ts.shared page buf;
          Tstate.add_snapshot ts page buf;
          Metadata.snapshot_taken t.meta;
          p.snapshots <- p.snapshots + 1;
          copied := true;
          let snap_cycles = ref (Cost.snapshot_cost c ~bytes:Page.size) in
          (match t.opts.monitor with
          | Options.Instrumentation -> ()
          | Options.Page_fault ->
            p.page_faults <- p.page_faults + 1;
            snap_cycles := !snap_cycles + c.Cost.page_fault);
          extra := !extra + !snap_cycles;
          let o = obs t in
          if Rfdet_obs.Sink.enabled o then
            Rfdet_obs.Sink.emit o ~tid ~time:(Engine.clock t.engine tid)
              ~vc:(vc_of ts)
              (Rfdet_obs.Trace.Snapshot { page; cycles = !snap_cycles })
        end)
      (Page.span ~addr ~len);
    if !copied then p.stores_with_copy <- p.stores_with_copy + 1;
    if ts.monitoring then begin
      match t.opts.monitor with
      | Options.Instrumentation -> extra := !extra + c.Cost.store_check
      | Options.Page_fault -> ()
    end;
    Engine.advance t.engine tid (c.Cost.store + !extra);
    match width with
    | Op.W8 -> Space.store_byte ts.shared addr value
    | Op.W64 -> Space.store_int ts.shared addr value
  end

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

let handle t ~tid (op : Op.t) : Engine.outcome =
  let sync = sync_exn t in
  match op with
  | Op.Load { addr; width } -> Done (do_load t ~tid ~addr ~width)
  | Op.Store { addr; value; width } ->
    do_store t ~tid ~addr ~value ~width;
    Done 0
  | Op.Cond_signal c ->
    Sync.cond_signal ~lose:(bug_lost_active t) sync ~tid ~cond:c
  | Op.Atomic { addr; rmw } ->
    (* Section 4.6/6: a low-level atomic is an acquire followed by a
       release on an internal synchronization variable keyed by the
       address, executed in deterministic-turn order. *)
    Sync.rmw sync ~tid ~action:(fun ~now ->
        let obj = Sync.Atomic_obj addr in
        let acq = do_acquire t ~tid ~obj ~now in
        let prev, next =
          Op.apply_rmw rmw ~current:(do_load t ~tid ~addr ~width:Op.W64)
        in
        do_store t ~tid ~addr ~value:next ~width:Op.W64;
        let rel = do_release t ~tid ~obj ~now:(now + acq) in
        (prev, acq + rel))
  | op -> Sync.handle sync ~tid op

let shared_union_bytes t =
  let pages = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ (ts : Tstate.t) ->
      Space.iter_pages ts.shared ~f:(fun id ->
          if Layout.is_shared (Page.base_of_id id) then
            Hashtbl.replace pages id ()))
    t.states;
  Hashtbl.length pages * Page.size

(* End-of-run metadata audit: verify every still-live published slice,
   so a corruption whose slice was never selected for propagation is
   still detected (the 100%-detection gate).  It re-hashes whatever the
   slice's [verified] record says: it is the reference that record is
   judged against.  Each slice is audited in its publisher's list only —
   propagated copies share the record. *)
let audit_metadata t =
  let p = prof t in
  Hashtbl.iter
    (fun tid (ts : Tstate.t) ->
      Rfdet_util.Vec.iter ts.slices ~f:(fun (s : Slice.t) ->
          if s.tid = tid && not (Slice.checksum_valid s) then begin
            p.corruptions_detected <- p.corruptions_detected + 1;
            Slice.rehash s
          end))
    t.states

let on_finish t () =
  audit_metadata t;
  let p = prof t in
  let n = Engine.peak_live_threads t.engine in
  let shared = shared_union_bytes t in
  p.shared_bytes <- shared;
  (* Column 11 of Table 1: N * SharedMemory + stacks + metadata. *)
  p.private_copy_bytes <- (n - 1) * shared;
  let stack_bytes = ref 0 in
  Hashtbl.iter
    (fun _ (ts : Tstate.t) ->
      stack_bytes := !stack_bytes + 8192 + (Space.mapped_pages ts.stack * Page.size))
    t.states;
  p.stack_bytes <- !stack_bytes;
  p.metadata_peak_bytes <- Metadata.peak t.meta;
  p.gc_runs <- Metadata.gc_runs t.meta

let make_with_state ?(opts = Options.default) engine =
  let t =
    {
      engine;
      opts;
      meta =
        Metadata.create ~capacity:opts.Options.metadata_capacity
          ~gc_threshold:opts.Options.gc_threshold;
      diffs = Diff.builder ();
      states = Hashtbl.create 16;
      last_release = Hashtbl.create 64;
      sync = None;
      main_forked = false;
    }
  in
  let root =
    Tstate.create_root ~clock_size:max_threads
      ~monitoring:(not opts.Options.skip_premain_monitoring)
  in
  Hashtbl.replace t.states 0 root;
  let hooks =
    {
      Sync.acquire = (fun ~tid ~obj ~now -> do_acquire t ~tid ~obj ~now);
      release = (fun ~tid ~obj ~now -> do_release t ~tid ~obj ~now);
      barrier_all = (fun ~tids ~barrier ~now -> do_barrier t ~tids ~barrier ~now);
      spawned = (fun ~parent ~child ~now -> do_spawned t ~parent ~child ~now);
      exited = (fun ~tid -> do_exited t ~tid);
      joined = (fun ~tid ~target ~now -> do_joined t ~tid ~target ~now);
    }
  in
  let sync = Sync.create engine hooks in
  t.sync <- Some sync;
  Engine.set_on_corrupt engine (fun ~tid -> corrupt_metadata t ~tid);
  let policy =
    {
      Engine.policy_name = Options.name opts;
      handle = (fun ~tid op -> handle t ~tid op);
      on_engine_op = (fun ~tid:_ _ outcome -> outcome);
      on_thread_exit = (fun ~tid -> Sync.on_thread_exit sync ~tid);
      on_thread_crash =
        (fun ~tid _exn ->
          do_crashed t ~tid;
          Sync.on_thread_crash sync ~tid ~restart:false);
      on_step = (fun () -> Sync.poll sync);
      on_finish = (fun () -> on_finish t ());
    }
  in
  (t, policy)

let make ?opts engine = snd (make_with_state ?opts engine)
