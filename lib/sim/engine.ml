module Allocator = Rfdet_mem.Allocator
module Det_rng = Rfdet_util.Det_rng
module Pqueue = Rfdet_util.Pqueue
module Vec = Rfdet_util.Vec

type failure_mode = Abort | Contain | Recover

let failure_modes =
  [ ("contain", Contain); ("abort", Abort); ("recover", Recover) ]

let failure_mode_name m = fst (List.find (fun (_, m') -> m' = m) failure_modes)

type injection = I_none | I_crash | I_fail | I_delay of int | I_corrupt

type sched_point = {
  sp_ready : int list;
  sp_last : int;
  sp_last_ready : bool;
  sp_last_boundary : bool;
}

type decision = { d_index : int; d_ready : int list; d_chosen : int }

type config = {
  cost : Cost.t;
  seed : int64;
  jitter_mean : float;
  max_ops : int;
  failure_mode : failure_mode;
  inject : (tid:int -> Op.t -> injection) option;
  choose : (sched_point -> int) option;
  sched_tap : (decision -> unit) option;
  observe : (tid:int -> Op.t -> unit) option;
  obs : Rfdet_obs.Sink.t;
}

let default_config =
  {
    cost = Cost.default;
    seed = 1L;
    jitter_mean = 0.;
    max_ops = 200_000_000;
    failure_mode = Abort;
    inject = None;
    choose = None;
    sched_tap = None;
    observe = None;
    obs = Rfdet_obs.Sink.null;
  }

exception Deadlock of string

exception Runaway

exception Thread_failure of int * exn

exception Injected_crash

exception Injected_fault

(* A failure no containment policy may swallow: raised when stored
   metadata fails verification and cannot be re-derived.  It crosses
   every containment catch site untouched, so a corrupted run dies
   loudly and deterministically rather than silently propagating bad
   data. *)
exception Fatal of exn

type outcome = Done of int | Block

type status = Ready | Running | Blocked | Finished | Crashed

(* What to do when the scheduler next picks this thread. *)
type pending =
  | Start of (unit -> unit)
  | Resume of (int, unit) Effect.Deep.continuation * int
  | Raise of (int, unit) Effect.Deep.continuation * exn
      (* deliver an injected failure at the operation's call site *)
  | Nothing  (** running, blocked or finished *)

type thread = {
  tid : int;
  mutable clock : int;
  mutable icount : int;
  mutable status : status;
  mutable pending : pending;
  mutable generation : int;  (* invalidates stale scheduler entries *)
  mutable outputs : int64 list;  (* reversed *)
}

type policy = {
  policy_name : string;
  handle : tid:int -> Op.t -> outcome;
  on_engine_op : tid:int -> Op.t -> outcome -> outcome;
  on_thread_exit : tid:int -> unit;
  on_thread_crash : tid:int -> exn -> unit;
  on_step : unit -> unit;
  on_finish : unit -> unit;
}

let escalate_crash ~tid e = raise (Thread_failure (tid, e))

type result = {
  sim_time : int;
  outputs : (int * int64) list;
  profile : Profile.t;
  threads : int;
  ops : int;
  crashes : (int * string) list;
  thread_clocks : (int * int) list;
}

type t = {
  config : config;
  threads : thread Vec.t;  (* indexed by tid: tids are dense from 0 *)
  queue : (int * int * int) Pqueue.t;  (* clock, tid, generation *)
  alloc : Allocator.t;
  prof : Profile.t;
  rng : Det_rng.t;
  mutable current : int;
  mutable ops : int;
  mutable unfinished : int;
  mutable peak_live : int;
  mutable policy : policy option;
  mutable crashes : (int * string) list;  (* reversed crash order *)
  mutable decisions : int;
      (* free scheduling decisions surfaced to [config.sched_tap] so far *)
  mutable last_run : int;  (* tid of the last thread a scheduling step ran *)
  mutable last_boundary : bool;
      (* did that thread stop at a schedule-relevant boundary (sync op,
         handle creation, or exit)? *)
  mutable on_deadlock : (unit -> bool) option;
      (* consulted when no thread is runnable but some are unfinished;
         returns true iff it made progress (woke, killed or restarted a
         thread) and scheduling should retry *)
  mutable on_corrupt : (tid:int -> unit) option;
      (* applies an [I_corrupt] injection to the runtime's stored
         metadata; [None] makes corruption a no-op (runtimes without
         verifiable metadata) *)
  mutable on_checkpoint : (tid:int -> (unit -> unit) -> unit) option;
      (* records an [Op.Checkpoint] closure as the thread's restart
         point; [None] (no recovery manager) makes checkpoints no-ops *)
}

(* Operations at which the schedule choice can change observable behavior
   of a correct DMT runtime.  Synchronization ops order themselves through
   the arbiter; handle creations assign ids from a shared counter without
   taking a turn, so their interleaving is visible too. *)
let is_boundary (op : Op.t) =
  Op.is_sync op
  || match op with
     | Mutex_create | Cond_create | Barrier_create _ | Rwlock_create
     | Sem_create _ | Deque_create -> true
     | _ -> false

(* Typed at [int] so every [Pqueue] sift step compares integers rather
   than calling the polymorphic compare primitives. *)
let cmp_entry ((c1 : int), (t1 : int), (_ : int))
    ((c2 : int), (t2 : int), (_ : int)) =
  if c1 <> c2 then Int.compare c1 c2 else Int.compare t1 t2

(* Crash records by tid, then message: [output_signature] folds them in
   this order. *)
let cmp_crash ((t1 : int), m1) ((t2 : int), m2) =
  if t1 <> t2 then Int.compare t1 t2 else String.compare m1 m2

let find t tid =
  if tid >= 0 && tid < Vec.length t.threads then Vec.get t.threads tid
  else invalid_arg (Printf.sprintf "Engine: unknown tid %d" tid)

let clock t tid = (find t tid).clock

let icount t tid = (find t tid).icount

let advance t tid cycles =
  let th = find t tid in
  th.clock <- th.clock + cycles

let raise_clock_to t tid c =
  let th = find t tid in
  if c > th.clock then th.clock <- c

let add_icount t tid n =
  let th = find t tid in
  th.icount <- th.icount + n

let current_tid t = t.current

let set_on_deadlock t f = t.on_deadlock <- Some f

let set_on_corrupt t f = t.on_corrupt <- Some f

let set_on_checkpoint t f = t.on_checkpoint <- Some f

let enqueue t th =
  th.generation <- th.generation + 1;
  Pqueue.push t.queue (th.clock, th.tid, th.generation)

let register_thread t ~body ~start_at =
  let tid = Vec.length t.threads in
  let th =
    {
      tid;
      clock = start_at;
      icount = 0;
      status = Ready;
      pending = Start body;
      generation = 0;
      outputs = [];
    }
  in
  Vec.push t.threads th;
  t.unfinished <- t.unfinished + 1;
  if t.unfinished > t.peak_live then t.peak_live <- t.unfinished;
  enqueue t th;
  tid

let seed_icount t tid c = (find t tid).icount <- c

let wake t ~tid ~value ~not_before =
  let th = find t tid in
  match th.status with
  | Crashed ->
    (* A wake racing a contained crash (e.g. a stale grant) is dropped:
       the thread is gone and must not be rescheduled. *)
    ()
  | Ready | Running | Finished ->
    invalid_arg (Printf.sprintf "Engine.wake: tid %d is not blocked" tid)
  | Blocked ->
    (match th.pending with
    | Resume (k, _) -> th.pending <- Resume (k, value)
    | Raise _ | Start _ | Nothing ->
      invalid_arg "Engine.wake: no stored continuation");
    if not_before > th.clock then th.clock <- not_before;
    th.status <- Ready;
    enqueue t th

let is_finished t tid = (find t tid).status = Finished

let is_crashed t tid = (find t tid).status = Crashed

let thread_count t = Vec.length t.threads

let peak_live_threads t = t.peak_live

let live_tids t =
  List.filter_map
    (fun th ->
      match th.status with
      | Finished | Crashed -> None
      | Ready | Running | Blocked -> Some th.tid)
    (Vec.to_list t.threads)

let profile t = t.prof

let cost t = t.config.cost

let allocator t = t.alloc

let obs t = t.config.obs

let ops_executed t = t.ops

let jitter t =
  if t.config.jitter_mean <= 0. then 0
  else
    int_of_float (Det_rng.exponential t.rng ~mean:t.config.jitter_mean)

let policy_exn t =
  match t.policy with Some p -> p | None -> assert false

(* Account the generic counters and the Kendo instruction count for an
   operation, and apply engine-level semantics where the operation is
   policy-independent.  Returns [Some outcome] when fully handled here. *)
let pre_handle t th (op : Op.t) =
  let c = t.config.cost in
  let p = t.prof in
  (* The Kendo instruction count advances in proportion to the cycles an
     operation's *application-level* work costs (runtime-internal work —
     diffing, propagation — does not count, matching the paper's
     compile-time instrTick instrumentation).  Proportionality to cycles
     keeps the logical clocks of concurrently running threads advancing
     at similar rates, as retired-instruction counts do on real
     hardware; it is exactly as deterministic, since the cost table is
     fixed and jitter is excluded. *)
  match op with
  | Tick { instrs; loads; stores } ->
    p.loads <- p.loads + loads;
    p.stores <- p.stores + stores;
    let cycles = (instrs * c.instr) + (loads * c.load) + (stores * c.store) in
    th.icount <- th.icount + cycles;
    th.clock <- th.clock + cycles;
    Some (Done 0)
  | Output v ->
    th.icount <- th.icount + c.output;
    th.clock <- th.clock + c.output;
    th.outputs <- v :: th.outputs;
    Some (Done 0)
  | Self -> Some (Done th.tid)
  | Yield ->
    th.icount <- th.icount + 1;
    th.clock <- th.clock + 1;
    Some (Done 0)
  | Checkpoint body ->
    th.icount <- th.icount + 1;
    th.clock <- th.clock + 1;
    (match t.on_checkpoint with
    | Some f -> f ~tid:th.tid body
    | None -> ());
    Some (Done 0)
  | Server_mark { ev; n } ->
    th.icount <- th.icount + 1;
    th.clock <- th.clock + 1;
    (match ev with
    | Op.Sv_served -> p.requests_served <- p.requests_served + n
    | Op.Sv_shed -> p.requests_shed <- p.requests_shed + n
    | Op.Sv_retried -> p.requests_retried <- p.requests_retried + n
    | Op.Sv_timed_out -> p.requests_timed_out <- p.requests_timed_out + n
    | Op.Sv_breaker_transition ->
      p.breaker_transitions <- p.breaker_transitions + n
    | Op.Sv_stale_read -> p.stale_reads <- p.stale_reads + n);
    Some (Done 0)
  | Span { phase; req; a; b } ->
    (* Free instrumentation: no cycle or instruction-count charge, so the
       icount stream seen by the arbiter between real operations — and
       with it every lock grant, stamp order and timeout expiry — is the
       same as if the span were not performed at all.  The only effect is
       a trace emission when the run has a live sink. *)
    if Rfdet_obs.Sink.enabled t.config.obs then
      Rfdet_obs.Sink.emit t.config.obs ~tid:th.tid ~time:th.clock
        (Rfdet_obs.Trace.Span
           { phase = Op.span_phase_name phase; req; a; b });
    Some (Done 0)
  | Malloc n ->
    th.icount <- th.icount + c.malloc;
    th.clock <- th.clock + c.malloc;
    Some (Done (Allocator.malloc t.alloc n))
  | Free addr ->
    th.icount <- th.icount + c.free;
    th.clock <- th.clock + c.free;
    Allocator.free t.alloc addr;
    Some (Done 0)
  | Load _ ->
    p.loads <- p.loads + 1;
    th.icount <- th.icount + c.load;
    None
  | Store _ ->
    p.stores <- p.stores + 1;
    th.icount <- th.icount + c.store;
    None
  | Lock _ | Trylock _ | Lock_timed _ ->
    p.locks <- p.locks + 1;
    th.icount <- th.icount + 1;
    None
  | Mutex_heal _ ->
    th.icount <- th.icount + 1;
    None
  | Unlock _ ->
    p.unlocks <- p.unlocks + 1;
    th.icount <- th.icount + 1;
    None
  | Cond_wait _ ->
    p.waits <- p.waits + 1;
    th.icount <- th.icount + 1;
    None
  | Cond_signal _ | Cond_broadcast _ ->
    p.signals <- p.signals + 1;
    th.icount <- th.icount + 1;
    None
  | Barrier_wait _ ->
    p.barriers <- p.barriers + 1;
    th.icount <- th.icount + 1;
    None
  | Spawn _ ->
    p.forks <- p.forks + 1;
    th.icount <- th.icount + 1;
    None
  | Join _ ->
    p.joins <- p.joins + 1;
    th.icount <- th.icount + 1;
    None
  | Atomic _ ->
    p.atomics <- p.atomics + 1;
    th.icount <- th.icount + 1;
    None
  | Rdlock _ | Wrlock _ ->
    p.locks <- p.locks + 1;
    th.icount <- th.icount + 1;
    None
  | Rwunlock _ ->
    p.unlocks <- p.unlocks + 1;
    th.icount <- th.icount + 1;
    None
  | Sem_acquire _ ->
    p.locks <- p.locks + 1;
    th.icount <- th.icount + 1;
    None
  | Sem_post _ ->
    p.unlocks <- p.unlocks + 1;
    th.icount <- th.icount + 1;
    None
  | Deque_push _ | Deque_pop _ | Deque_steal _ ->
    p.atomics <- p.atomics + 1;
    th.icount <- th.icount + 1;
    None
  | Mutex_create | Cond_create | Barrier_create _ | Rwlock_create
  | Sem_create _ | Deque_create ->
    th.icount <- th.icount + 1;
    None

(* Kill one simulated thread, keep the rest of the run going.  The
   thread publishes nothing it had not already published: its stored
   continuation is dropped without resuming, so no cleanup handler (e.g.
   [with_lock]'s unlock) runs — exactly a crash, not an unwind.  The
   policy's [on_thread_crash] hook then repairs shared runtime state
   (release held locks as poisoned, discard the open slice, wake
   joiners); a policy that cannot contain re-raises from the hook and
   the whole run aborts as before. *)
let crash_thread t th e =
  match th.status with
  | Finished | Crashed -> ()
  | Ready | Running | Blocked ->
    th.status <- Crashed;
    th.pending <- Nothing;
    t.unfinished <- t.unfinished - 1;
    t.crashes <- (th.tid, Printexc.to_string e) :: t.crashes;
    if Rfdet_obs.Sink.enabled t.config.obs then
      Rfdet_obs.Sink.emit t.config.obs ~tid:th.tid ~time:th.clock
        Rfdet_obs.Trace.Thread_crash;
    (policy_exn t).on_thread_crash ~tid:th.tid e;
    (policy_exn t).on_step ()

(* Force-crash a thread from outside its own execution (deadlock victim
   selection).  Same path as a contained fault: continuation dropped, no
   unwind, policy repairs shared state. *)
let kill t ~tid e = crash_thread t (find t tid) e

(* Resurrect a crashed tid with a fresh body.  The instruction counter is
   deliberately preserved — Kendo stamps must stay monotone per thread or
   the arbiter's turn order could move backwards — and outputs emitted
   after the registered restart point are truncated so the replay
   re-emits them.  [not_before] charges the recovery latency (backoff)
   in simulated cycles. *)
let restart_thread t ~tid ~body ~not_before ~keep_outputs =
  let th = find t tid in
  (match th.status with
  | Crashed -> ()
  | Ready | Running | Blocked | Finished ->
    invalid_arg (Printf.sprintf "Engine.restart_thread: tid %d not crashed" tid));
  th.status <- Ready;
  th.pending <- Start body;
  if not_before > th.clock then th.clock <- not_before;
  let n = List.length th.outputs in
  if keep_outputs < n then begin
    (* [outputs] is newest-first; drop everything past the restart mark *)
    let rec drop k l =
      if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl
    in
    th.outputs <- drop (n - keep_outputs) th.outputs
  end;
  t.unfinished <- t.unfinished + 1;
  if t.unfinished > t.peak_live then t.peak_live <- t.unfinished;
  enqueue t th

let output_count t tid = List.length (find t tid).outputs

let handle_op t th op k =
  th.pending <- Resume (k, 0);
  t.ops <- t.ops + 1;
  if t.ops > t.config.max_ops then raise Runaway;
  t.last_boundary <- is_boundary op;
  (match t.config.observe with
  | None -> ()
  | Some f -> f ~tid:th.tid op);
  let injection =
    match t.config.inject with
    | None -> I_none
    | Some f -> f ~tid:th.tid op
  in
  (if Rfdet_obs.Sink.enabled t.config.obs then
     match injection with
     | I_none -> ()
     | I_crash | I_fail | I_delay _ | I_corrupt ->
       let action =
         match injection with
         | I_crash -> "crash"
         | I_fail -> "fail"
         | I_delay _ -> "delay"
         | I_corrupt -> "corrupt"
         | I_none -> assert false
       in
       Rfdet_obs.Sink.emit t.config.obs ~tid:th.tid ~time:th.clock
         (Rfdet_obs.Trace.Fault { op = Op.name op; action }));
  match injection with
  | I_crash when t.config.failure_mode <> Abort ->
    crash_thread t th Injected_crash
  | I_crash -> raise (Thread_failure (th.tid, Injected_crash))
  | I_fail when (match op with Op.Malloc _ -> false | _ -> true) ->
    (* Operations without an in-band error code surface the fault as an
       exception at the call site; the fiber unwinds through its own
       handlers and may recover. *)
    th.pending <- Raise (k, Injected_fault);
    th.status <- Ready;
    enqueue t th
  | (I_none | I_fail | I_delay _ | I_corrupt) as injection ->
    (match injection with
    | I_delay d -> th.clock <- th.clock + max 0 d
    | I_corrupt -> (
      (* Damage the runtime's stored metadata, then let the operation
         itself run normally: the corruption is only observable when the
         damaged bytes are next consumed (propagation or the end-of-run
         audit), exactly like silent media corruption. *)
      match t.on_corrupt with
      | None -> ()
      | Some f -> f ~tid:th.tid)
    | I_none | I_fail | I_crash -> ());
    let dispatch () =
      match injection, op with
      | I_fail, Op.Malloc _ -> Done 0  (* allocation failure: null *)
      | _ -> (
        match pre_handle t th op with
        | Some o -> (policy_exn t).on_engine_op ~tid:th.tid op o
        | None -> (policy_exn t).handle ~tid:th.tid op)
    in
    (* Policy code runs on the scheduler stack, outside the fiber's
       [exnc]; attribute its failures to the faulting thread here. *)
    let verdict =
      try Ok (dispatch ()) with
      | (Runaway | Deadlock _ | Fatal _) as e -> raise e
      | Thread_failure (tid, e) ->
        if t.config.failure_mode <> Abort then Error e
        else raise (Thread_failure (tid, e))
      | e ->
        if t.config.failure_mode <> Abort then Error e
        else raise (Thread_failure (th.tid, e))
    in
    (match verdict with
    | Error e -> crash_thread t th e
    | Ok outcome ->
      th.clock <- th.clock + jitter t;
      (match outcome with
      | Done v ->
        th.pending <- Resume (k, v);
        th.status <- Ready;
        enqueue t th
      | Block -> th.status <- Blocked);
      (* on_step runs global arbiters whose grant callbacks execute policy
         code; attribute their failures to the thread being stepped *)
      (try (policy_exn t).on_step () with
      | (Runaway | Deadlock _ | Fatal _) as e -> raise e
      | Thread_failure (_, e) when t.config.failure_mode <> Abort ->
        crash_thread t th e
      | Thread_failure _ as e -> raise e
      | e ->
        if t.config.failure_mode <> Abort then crash_thread t th e
        else raise (Thread_failure (th.tid, e))))

let run_thread t th =
  t.current <- th.tid;
  t.last_run <- th.tid;
  th.status <- Running;
  let pending = th.pending in
  th.pending <- Nothing;
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc =
        (fun () ->
          th.status <- Finished;
          t.unfinished <- t.unfinished - 1;
          if Rfdet_obs.Sink.enabled t.config.obs then
            Rfdet_obs.Sink.emit t.config.obs ~tid:th.tid ~time:th.clock
              Rfdet_obs.Trace.Thread_exit;
          (policy_exn t).on_thread_exit ~tid:th.tid;
          (policy_exn t).on_step ());
      exnc =
        (fun e ->
          (* The fiber body itself raised and fully unwound. *)
          match e, t.config.failure_mode with
          | Fatal _, _ -> raise e
          | _, (Contain | Recover) -> crash_thread t th e
          | _, Abort -> raise (Thread_failure (th.tid, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Api.Op op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                handle_op t th op k)
          | _ -> None);
    }
  in
  match pending with
  | Start body -> Effect.Deep.match_with body () handler
  | Resume (k, v) -> Effect.Deep.continue k v
  | Raise (k, e) -> Effect.Deep.discontinue k e
  | Nothing -> assert false

let describe_blocked t =
  let live = live_tids t in
  let parts =
    List.map
      (fun tid ->
        let th = find t tid in
        Printf.sprintf "tid=%d status=%s clock=%d icount=%d" tid
          (match th.status with
          | Ready -> "ready"
          | Running -> "running"
          | Blocked -> "blocked"
          | Finished -> "finished"
          | Crashed -> "crashed")
          th.clock th.icount)
      live
  in
  String.concat "; " parts

(* When every thread is stuck the recovery hook gets one chance per
   stall to make progress (fire a lock timeout, kill a deadlock victim);
   it must only return true after actually waking, killing or restarting
   a thread, so each retry re-enters with a changed system state. *)
let stalled t =
  match t.on_deadlock with
  | Some f when f () -> true
  | _ ->
    raise
      (Deadlock (Printf.sprintf "no runnable thread: %s" (describe_blocked t)))

let ready_tids t =
  List.filter_map
    (fun th -> if th.status = Ready then Some th.tid else None)
    (Vec.to_list t.threads)

(* Surface one clock-order scheduling step to [config.sched_tap], but only
   when it is a *decision point* — the schedule could have run a different
   thread with observable consequences.  Between boundaries a continuing
   thread's interleaving is invisible to a correct DMT runtime (and
   mid-segment switches forced by jitter are reproduced by the seeded
   jitter stream, not the log), so those steps are not decisions.  The
   predicate mirrors the explorer's branch rule: first step, last thread
   stopped at a schedule-relevant boundary, or last thread no longer
   ready.  Singleton ready sets are forced moves and are skipped too —
   this is what makes the journal minimal. *)
let tap_decision t tap tid =
  if
    t.last_run < 0 || t.last_boundary || (find t t.last_run).status <> Ready
  then
    match ready_tids t with
    | [] | [ _ ] -> ()
    | ready ->
      let d = { d_index = t.decisions; d_ready = ready; d_chosen = tid } in
      t.decisions <- t.decisions + 1;
      tap d

let rec schedule t =
  match Pqueue.pop t.queue with
  | None -> if t.unfinished > 0 && stalled t then schedule t
  | Some (_, tid, generation) ->
    let th = find t tid in
    (* Skip stale entries (thread re-queued with a newer generation or no
       longer ready). *)
    if th.generation = generation && th.status = Ready then begin
      (match t.config.sched_tap with
      | None -> ()
      | Some tap -> tap_decision t tap tid);
      run_thread t th
    end;
    schedule t

(* Chooser-driven scheduling for the systematic explorer: the clock order
   is ignored entirely and the installed chooser picks which ready thread
   runs each step.  The chooser is consulted on *every* step — including
   forced ones with a single ready thread — so an explorer can account for
   moves it had no say in. *)
let rec schedule_chosen t choose =
  match ready_tids t with
  | [] -> if t.unfinished > 0 && stalled t then schedule_chosen t choose
  | ready ->
    let sp =
      {
        sp_ready = ready;
        sp_last = t.last_run;
        sp_last_ready = List.mem t.last_run ready;
        sp_last_boundary = t.last_boundary;
      }
    in
    let tid = choose sp in
    if not (List.mem tid ready) then
      invalid_arg
        (Printf.sprintf "Engine: chooser picked tid %d, not ready ([%s])" tid
           (String.concat "," (List.map string_of_int ready)));
    run_thread t (find t tid);
    schedule_chosen t choose

let collect_outputs t =
  List.concat_map
    (fun th -> List.rev_map (fun v -> (th.tid, v)) th.outputs)
    (Vec.to_list t.threads)

let run ?(config = default_config) make_policy ~main =
  (if config.choose <> None && config.sched_tap <> None then
     invalid_arg
       "Engine.run: choose and sched_tap are mutually exclusive (the tap \
        records clock-order decisions; a chooser replaces clock order)");
  let t =
    {
      config;
      threads = Vec.create ();
      queue = Pqueue.create ~cmp:cmp_entry;
      alloc = Allocator.create ();
      prof = Profile.create ();
      rng = Det_rng.create config.seed;
      current = 0;
      ops = 0;
      unfinished = 0;
      peak_live = 0;
      policy = None;
      crashes = [];
      decisions = 0;
      last_run = -1;
      last_boundary = true;
      on_deadlock = None;
      on_corrupt = None;
      on_checkpoint = None;
    }
  in
  let (_ : int) = register_thread t ~body:main ~start_at:0 in
  t.policy <- Some (make_policy t);
  (match config.choose with
  | None -> schedule t
  | Some choose -> schedule_chosen t choose);
  (policy_exn t).on_finish ();
  let sim_time =
    List.fold_left (fun acc th -> max acc th.clock) 0 (Vec.to_list t.threads)
  in
  let thread_clocks =
    List.map (fun th -> (th.tid, th.clock)) (Vec.to_list t.threads)
  in
  (* A saturated trace ring silently truncates offline analysis — record
     how much was lost so `rfdet trace`/`rfdet spans` can warn loudly.
     Always 0 for the shared null sink and for unbounded sinks, so
     tracing on/off keeps profiles bit-identical. *)
  t.prof.trace_dropped <- Rfdet_obs.Sink.dropped t.config.obs;
  {
    sim_time;
    outputs = collect_outputs t;
    profile = t.prof;
    threads = Vec.length t.threads;
    ops = t.ops;
    crashes = List.sort cmp_crash t.crashes;
    thread_clocks;
  }

(* Crash outcomes are part of the observable behavior: a deterministic
   runtime under a deterministic fault plan must crash the same threads
   for the same reasons on every run. *)
let output_signature r =
  let buf = Buffer.create 256 in
  List.iter
    (fun (tid, v) -> Buffer.add_string buf (Printf.sprintf "%d:%Lx;" tid v))
    r.outputs;
  List.iter
    (fun (tid, msg) -> Buffer.add_string buf (Printf.sprintf "!%d:%s;" tid msg))
    r.crashes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Outputs alone, ignoring crash records: a recovered run whose restarts
   replayed every lost span matches the fault-free run here even though
   the signatures differ (the crash history is still observable). *)
let outputs_checksum r =
  let buf = Buffer.create 256 in
  List.iter
    (fun (tid, v) -> Buffer.add_string buf (Printf.sprintf "%d:%Lx;" tid v))
    r.outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))
