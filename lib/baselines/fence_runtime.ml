module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op
module Space = Rfdet_mem.Space
module Layout = Rfdet_mem.Layout
module Page = Rfdet_mem.Page
module Diff = Rfdet_mem.Diff
module Twins = Rfdet_mem.Twins

type model = Dthreads | Coredet of { quantum : int }

let coredet = Coredet { quantum = 50_000 }

let name = function Dthreads -> "dthreads" | Coredet _ -> "coredet"

(* What a thread carries to the fence. *)
type arrival =
  | Sync of Op.t
  | Exit
  | Quantum of int
      (** ran out of instruction budget mid-computation; the int is the
          just-completed operation's result, delivered when the next
          round resumes the thread *)

type pending = { tid : int; arrival : arrival; mods : Diff.t }

type fstate = {
  space : Space.t;  (* private view of shared region *)
  stack : Space.t;
  twins : Twins.t;  (* dirty-page twins, this phase *)
  mutable quantum_end : int;  (* icount bound for the current round *)
  mutable live : bool;
  mutable excluded : bool;  (* blocked on a primitive or a join *)
}

(* The fence fires when every live thread that is not excluded has
   arrived.  An arrival is live and not excluded (a thread is marked
   dead or excluded only in its own serial slot, after which it is no
   longer waiting), so three counts decide it. *)
type t = {
  model : model;
  engine : Engine.t;
  prims : Fifo_sync.t;
  pool : Twins.pool;  (* every thread's twin buffers *)
  diffs : Diff.builder;  (* reused by every arrival's commit payload *)
  states : (int, fstate) Hashtbl.t;
  joiners : (int, int list) Hashtbl.t;
  mutable arrived : pending list;  (* reversed arrival order *)
  mutable arrivals : int;  (* length of [arrived] *)
  excluded : int ref;  (* threads whose [excluded] flag is set *)
  mutable live_count : int;
      (* threads whose [live] flag is set.  Dirty-page tracking is off
         while single-threaded, as in DThreads: children inherit memory
         through fork, so there is nothing to commit until a second
         thread exists *)
}

let state t tid =
  match Hashtbl.find_opt t.states tid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "%s: unknown tid %d" (name t.model) tid)

(* --- the five modelling differences between the two fences ----------- *)

(* (a) DThreads detects first touches by mprotect page faults; CoreDet
   models a store buffer, which takes no fault. *)
let faults_on_first_touch t = match t.model with Dthreads -> true | Coredet _ -> false

(* (b) Only DThreads reports the twin pages it scans for diffs. *)
let counts_diff_scan t = match t.model with Dthreads -> true | Coredet _ -> false

(* (c) DThreads remaps each committed page into every peer space, a
   near-constant cost per peer; CoreDet charges the bytes alone. *)
let commit_cost_per_peer t = match t.model with Dthreads -> 80 | Coredet _ -> 0

(* (d) Footprint: DThreads counts its private page copies and mapped
   stacks; CoreDet reports a fixed stack per thread. *)
let report_footprint t (p : Rfdet_sim.Profile.t) =
  match t.model with
  | Dthreads ->
    let copies = ref 0 and stacks = ref 0 in
    Hashtbl.iter
      (fun _ st ->
        copies := !copies + Space.owned_pages st.space;
        stacks := !stacks + 8192 + (Space.mapped_pages st.stack * Page.size))
      t.states;
    p.private_copy_bytes <- !copies * Page.size;
    p.stack_bytes <- !stacks;
    p.metadata_peak_bytes <- 0
  | Coredet _ -> p.stack_bytes <- Engine.thread_count t.engine * 8192

(* (e) CoreDet also ends a thread's parallel phase after a quantum of
   counted instructions, checked after Load/Store and after the
   engine's Tick/Malloc/Free/Output; each serial slot refills it. *)
let quantum_end t tid =
  match t.model with
  | Dthreads -> max_int
  | Coredet { quantum } -> Engine.icount t.engine tid + quantum

let quantum_expired t ~tid =
  match t.model with
  | Dthreads -> false
  | Coredet _ ->
    let st = state t tid in
    st.live && Engine.icount t.engine tid >= st.quantum_end

let add_state t ~tid ~space =
  Hashtbl.replace t.states tid
    {
      space;
      stack = Space.create ();
      twins = Twins.create t.pool;
      quantum_end = quantum_end t tid;
      live = true;
      excluded = false;
    }

(* --- dirty-page tracking (twins, like DThreads) ----------------------- *)

(* Twin each page on its first store of the phase, and widen its window
   to the offsets every store covers. *)
let track_store t st addr ~len =
  let c = Engine.cost t.engine in
  let p = Engine.profile t.engine in
  let cycles = ref 0 in
  let copied = ref false in
  let stop = addr + len - 1 in
  let first = Page.id_of_addr addr and last = Page.id_of_addr stop in
  for page = first to last do
    let lo = if page = first then Page.offset_of_addr addr else 0 in
    let hi = if page = last then Page.offset_of_addr stop + 1 else Page.size in
    if (not (Twins.widen st.twins ~page ~lo ~hi)) && t.live_count > 1 then begin
      Twins.take st.twins st.space ~page ~lo ~hi;
      if faults_on_first_touch t then begin
        p.page_faults <- p.page_faults + 1;
        cycles := !cycles + c.Cost.page_fault
      end;
      p.snapshots <- p.snapshots + 1;
      copied := true;
      cycles := !cycles + Cost.snapshot_cost c ~bytes:Page.size
    end
  done;
  if !copied then p.stores_with_copy <- p.stores_with_copy + 1;
  !cycles

(* Compute this phase's diffs for a thread (its commit payload).  Each
   page's scan covers only the words its stores touched but is charged
   as a full page. *)
let collect_diffs t ~tid st =
  let c = Engine.cost t.engine in
  let p = Engine.profile t.engine in
  let o = Engine.obs t.engine in
  let diff_cycles = Cost.diff_cost c ~bytes:Page.size in
  let pages =
    Twins.diff st.twins st.space t.diffs ~f:(fun page ->
        if counts_diff_scan t then
          p.diff_bytes_scanned <- p.diff_bytes_scanned + Page.size;
        if Rfdet_obs.Sink.enabled o then
          Rfdet_obs.Sink.emit o ~tid ~time:(Engine.clock t.engine tid)
            (Rfdet_obs.Trace.Diff
               {
                 page;
                 bytes = Diff.last_page_bytes t.diffs;
                 runs = Diff.last_page_runs t.diffs;
                 cycles = diff_cycles;
               }))
  in
  (Diff.finish t.diffs, pages * diff_cycles)

(* --- fence ------------------------------------------------------------ *)

let exclude t tid =
  let (st : fstate) = state t tid in
  if not st.excluded then begin
    st.excluded <- true;
    incr t.excluded
  end

(* Wake a thread excluded from the fence at the end of the current
   serial slot [at]; the primitive core wakes through this too. *)
let wake_at_slot_end engine states excluded ~tid ~at =
  (match Hashtbl.find_opt states tid with
  | Some (st : fstate) when st.excluded ->
    st.excluded <- false;
    decr excluded
  | Some _ | None -> ());
  Engine.wake engine ~tid ~value:0 ~not_before:at

(* Execute one thread's arrival during the serial phase.  [at] is the
   simulated time at the end of this thread's token slot. *)
let perform t ~tid ~at = function
  | Exit ->
    let st = state t tid in
    st.live <- false;
    t.live_count <- t.live_count - 1;
    (match Hashtbl.find_opt t.joiners tid with
    | None -> ()
    | Some waiting ->
      Hashtbl.remove t.joiners tid;
      List.iter
        (fun joiner ->
          wake_at_slot_end t.engine t.states t.excluded ~tid:joiner ~at)
        waiting)
  | Quantum v -> Engine.wake t.engine ~tid ~value:v ~not_before:at
  | Sync (Op.Atomic { addr; rmw }) ->
    (* read the committed value from this thread's (post-commit) view,
       write the result through to every live space: atomics are global
       immediately, like a one-word commit *)
    let current = Space.load_int (state t tid).space addr in
    let prev, next = Op.apply_rmw rmw ~current in
    Hashtbl.iter
      (fun _ st' -> if st'.live then Space.store_int st'.space addr next)
      t.states;
    Engine.wake t.engine ~tid ~value:prev ~not_before:at
  | Sync (Op.Spawn body) ->
    let child = Engine.register_thread t.engine ~body ~start_at:at in
    add_state t ~tid:child ~space:(Space.fork (state t tid).space);
    t.live_count <- t.live_count + 1;
    Engine.wake t.engine ~tid ~value:child ~not_before:at
  | Sync (Op.Join target) ->
    (* A thread is marked dead only in its own serial slot, so test
       fence liveness rather than [Engine.is_finished]. *)
    if not (state t target).live then
      Engine.wake t.engine ~tid ~value:0 ~not_before:at
    else begin
      let existing =
        Option.value (Hashtbl.find_opt t.joiners target) ~default:[]
      in
      Hashtbl.replace t.joiners target (existing @ [ tid ]);
      exclude t tid
    end
  | Sync op -> (
    match Fifo_sync.handle t.prims ~tid ~at op with
    | Done value -> Engine.wake t.engine ~tid ~value ~not_before:at
    | Block -> exclude t tid)

(* Run the serial phase: token in ascending tid order; each slot commits
   the thread's diffs into every other live space and performs its
   arrival. *)
let run_serial t =
  let c = Engine.cost t.engine in
  let p = Engine.profile t.engine in
  let o = Engine.obs t.engine in
  p.barrier_stalls <- p.barrier_stalls + 1;
  let fence_time =
    List.fold_left
      (fun acc a -> max acc (Engine.clock t.engine a.tid))
      0 t.arrived
  in
  let order = List.sort (fun a b -> Int.compare a.tid b.tid) t.arrived in
  t.arrived <- [];
  t.arrivals <- 0;
  let clock = ref (fence_time + c.Cost.barrier_overhead) in
  (* Every arrival stalls at the global fence from its own clock until
     the serial phase opens — the cost RFDet's barrier-free design
     removes, made visible in the trace. *)
  if Rfdet_obs.Sink.enabled o then
    List.iter
      (fun a ->
        let arrived_at = Engine.clock t.engine a.tid in
        Rfdet_obs.Sink.emit o ~tid:a.tid ~time:arrived_at
          (Rfdet_obs.Trace.Barrier_stall
             { barrier = -1; cycles = max 0 (!clock - arrived_at) }))
      order;
  List.iter
    (fun { tid; arrival; mods } ->
      clock := !clock + c.Cost.commit_token;
      if not (Diff.is_empty mods) then begin
        (* The diff is patched into the shared global store once; the
           other threads pick the committed pages up by copy-on-write
           remapping.  (Functionally we apply to each private space —
           the simulated machine has no shared mapping — but the
           committed bytes are charged once.) *)
        let bytes = Diff.byte_count mods in
        let peers = ref 0 in
        Hashtbl.iter
          (fun tid' st' ->
            if tid' <> tid && st'.live then begin
              Diff.apply st'.space mods;
              incr peers
            end)
          t.states;
        p.bytes_propagated <- p.bytes_propagated + bytes;
        (* committing is a streaming patch of whole twin pages into the
           shared mapping — cheaper per byte than RFDet's scattered
           byte-run application *)
        let commit_cycles =
          (bytes * max 1 (c.Cost.apply_byte / 4))
          + (!peers * commit_cost_per_peer t)
        in
        if Rfdet_obs.Sink.enabled o then begin
          let pages = Diff.pages_of_mods mods in
          List.iter
            (fun (page, b) ->
              Rfdet_obs.Sink.emit o ~tid ~time:!clock
                (Rfdet_obs.Trace.Prop_page { page; bytes = b }))
            pages;
          Rfdet_obs.Sink.emit o ~tid ~time:!clock
            (Rfdet_obs.Trace.Propagate
               {
                 slice = -1;
                 src = tid;
                 pages = List.length pages;
                 bytes;
                 cycles = commit_cycles;
               })
        end;
        clock := !clock + commit_cycles
      end;
      (state t tid).quantum_end <- quantum_end t tid;
      perform t ~tid ~at:!clock arrival)
    order

(* A fence fires when every live thread that is not excluded has
   arrived (see [t]). *)
let ready t = t.arrivals > 0 && t.arrivals = t.live_count - !(t.excluded)

let maybe_fence t = if ready t then run_serial t

(* A thread reaches its next synchronization point. *)
let arrive t ~tid arrival =
  let mods, cycles = collect_diffs t ~tid (state t tid) in
  Engine.advance t.engine tid (cycles + (Engine.cost t.engine).Cost.sync_op);
  t.arrived <- { tid; arrival; mods } :: t.arrived;
  t.arrivals <- t.arrivals + 1

(* Preempt the thread at the quantum barrier once its instruction
   budget for the round is gone. *)
let check_quantum t ~tid (outcome : Engine.outcome) : Engine.outcome =
  match outcome with
  | Done v when quantum_expired t ~tid ->
    arrive t ~tid (Quantum v);
    Block
  | Done _ | Block -> outcome

let handle t ~tid (op : Op.t) : Engine.outcome =
  let c = Engine.cost t.engine in
  let st = state t tid in
  match op with
  | Op.Load { addr; width } ->
    let space = if Layout.is_stack addr then st.stack else st.space in
    Engine.advance t.engine tid c.Cost.load;
    let v =
      match width with
      | Op.W8 -> Space.load_byte space addr
      | Op.W64 -> Space.load_int space addr
    in
    check_quantum t ~tid (Done v)
  | Op.Store { addr; value; width } ->
    let space, extra =
      if Layout.is_stack addr then (st.stack, 0)
      else
        (st.space,
         track_store t st addr ~len:(match width with Op.W8 -> 1 | Op.W64 -> 8))
    in
    Engine.advance t.engine tid (c.Cost.store + extra);
    (match width with
    | Op.W8 -> Space.store_byte space addr value
    | Op.W64 -> Space.store_int space addr value);
    check_quantum t ~tid (Done 0)
  | Op.Mutex_create | Op.Cond_create | Op.Barrier_create _ | Op.Rwlock_create
  | Op.Sem_create _ | Op.Deque_create | Op.Mutex_heal _ ->
    (* creating an object or validating a heal needs no fence *)
    Fifo_sync.handle t.prims ~tid ~at:(Engine.clock t.engine tid) op
  | op ->
    arrive t ~tid (Sync op);
    Block

let on_engine_op t ~tid (op : Op.t) outcome =
  match op with
  | Op.Tick _ | Op.Malloc _ | Op.Free _ | Op.Output _ ->
    check_quantum t ~tid outcome
  | _ -> outcome

let on_finish t =
  let p = Engine.profile t.engine in
  let pages = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ st ->
      Space.iter_pages st.space ~f:(fun id ->
          if Layout.is_shared (Page.base_of_id id) then
            Hashtbl.replace pages id ()))
    t.states;
  p.shared_bytes <- Hashtbl.length pages * Page.size;
  report_footprint t p

let make_with_state model engine =
  let states = Hashtbl.create 16 and excluded = ref 0 in
  let t =
    {
      model;
      engine;
      prims =
        Fifo_sync.create ~name:(name model)
          ~wake:(wake_at_slot_end engine states excluded);
      pool = Twins.pool ();
      diffs = Diff.builder ();
      states;
      joiners = Hashtbl.create 8;
      arrived = [];
      arrivals = 0;
      excluded;
      live_count = 1;
    }
  in
  add_state t ~tid:0 ~space:(Space.create ());
  let policy =
    {
      Engine.policy_name = name model;
      handle = (fun ~tid op -> handle t ~tid op);
      on_engine_op = (fun ~tid op outcome -> on_engine_op t ~tid op outcome);
      on_thread_exit = (fun ~tid -> arrive t ~tid Exit);
      (* The fence protocol has no per-thread recovery path: a crashed
         party would stall every survivor at the next fence, so a crash
         aborts the run (gracefully, as Thread_failure). *)
      on_thread_crash = Engine.escalate_crash;
      on_step = (fun () -> maybe_fence t);
      on_finish = (fun () -> on_finish t);
    }
  in
  (t, policy)

let make model engine = snd (make_with_state model engine)

(* --- read-only views (tests) ------------------------------------------ *)

let tids t =
  List.sort Int.compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) t.states [])

let live t tid = (state t tid).live

let excluded t tid = (state t tid : fstate).excluded

let arrived t = List.rev_map (fun a -> a.tid) t.arrived

let iter_twins t ~f =
  List.iter
    (fun tid ->
      let st = state t tid in
      f ~tid st.space st.twins)
    (tids t)
