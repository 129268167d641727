module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op

type obj =
  | Mutex_obj of int
  | Cond_obj of int
  | Barrier_obj of int
  | Thread_obj of int
  | Atomic_obj of int
  | Rwlock_obj of int
  | Sem_obj of int
  | Deque_obj of int

type hooks = {
  acquire : tid:int -> obj:obj -> now:int -> int;
  release : tid:int -> obj:obj -> now:int -> int;
  barrier_all : tids:int list -> barrier:int -> now:int -> int;
  spawned : parent:int -> child:int -> now:int -> unit;
  exited : tid:int -> unit;
  joined : tid:int -> target:int -> now:int -> int;
}

let trivial_hooks =
  {
    acquire = (fun ~tid:_ ~obj:_ ~now:_ -> 0);
    release = (fun ~tid:_ ~obj:_ ~now:_ -> 0);
    barrier_all = (fun ~tids:_ ~barrier:_ ~now:_ -> 0);
    spawned = (fun ~parent:_ ~child:_ ~now:_ -> ());
    exited = (fun ~tid:_ -> ());
    joined = (fun ~tid:_ ~target:_ ~now:_ -> 0);
  }

(* Result values delivered to woken threads: [ok] for a normal grant,
   [fault] when the grant carries a crash consequence — a poisoned
   mutex, a broken barrier, or a join on a crashed thread — and [busy]
   when a trylock found the mutex held or a timed lock expired.  The Api
   layer maps them to [`Ok]/[`Poisoned]/[`Broken]/[`Crashed]/[`Busy]/
   [`Timed_out]. *)
let ok = 0

let fault = 1

let busy = 2

(* Lock poisoning (à la Rust's): a crash that releases a mutex, rwlock,
   semaphore or deque marks it with the crashed tid.  The mark is sticky
   until healed and observed by every later acquirer.  A clean release
   by that same (restarted) thread heals it — it held the object and
   re-established the invariant. *)
type poison = { mutable poisoned_by : int option }

type mutex_state = {
  mutable owner : int option;
  queue : (int * int * int) Queue.t;
      (* (tid, asked_at, enqueued_at): when the waiter first requested
         the lock and when its deterministic turn put it in this queue —
         the trace splits its total wait into arbiter vs. queue time *)
  mutable acquired_at : int;  (* grant time of the current owner *)
  poison : poison;
}

(* Condvar waiters carry the Kendo stamp ((icount, tid)) they entered
   the wait with; signal wakes the minimum stamp, broadcast drains in
   ascending stamp order.  The list is kept sorted, so the wakeup order
   is a pure function of the stamps — never of insertion order. *)
type cond_state = {
  mutable cond_waiters : (int * int * (int * int)) list;
      (* (waiter tid, mutex to reacquire, stamp), ascending stamp *)
}

type rw_mode = Rd | Wr

type rw_waiter = {
  rw_tid : int;
  rw_mode : rw_mode;
  rw_stamp : int * int;
  rw_asked : int;  (* when the thread first requested the lock *)
  rw_enq : int;  (* when its deterministic turn queued it *)
}

type rwlock_state = {
  mutable rw_writer : int option;
  mutable rw_readers : int list;  (* current batch, admission order *)
  mutable rw_waiting : rw_waiter list;  (* ascending stamp *)
  mutable rw_acquired_at : int;  (* grant time of writer / batch start *)
  rw_poison : poison;
}

type sem_state = {
  mutable sem_permits : int;
  mutable sem_held : (int * int) list;  (* tid -> permits held *)
  mutable sem_waiting : (int * (int * int) * int * int) list;
      (* (tid, stamp, asked, enqueued), ascending stamp *)
  sem_poison : poison;
}

type deque_state = {
  dq_owner : int;
  mutable dq_items : (int * (int * int)) list;
      (* (value, push stamp), oldest first: the owner pushes/pops at the
         back (LIFO), thieves steal from the front (the oldest item) *)
  dq_poison : poison;
}

type barrier_state = {
  parties : int;
  mutable arrived : (int * int) list; (* (tid, arrival time), reversed *)
  participants : (int, unit) Hashtbl.t;
      (* every tid that has ever waited here: the barrier's parties.  A
         crash of any of them breaks the barrier — a stranded waiter
         cannot tell (and must not depend on) whether the crashed party
         would have come back. *)
  mutable broken : bool;  (* a party crashed; sticky *)
}

type t = {
  engine : Engine.t;
  arb : Arbiter.t;
  hooks : hooks;
  mutexes : (int, mutex_state) Hashtbl.t;
  conds : (int, cond_state) Hashtbl.t;
  barriers : (int, barrier_state) Hashtbl.t;
  rwlocks : (int, rwlock_state) Hashtbl.t;
  sems : (int, sem_state) Hashtbl.t;
  deques : (int, deque_state) Hashtbl.t;
  joiners : (int, int list) Hashtbl.t;  (* target tid -> blocked joiners *)
  crashed : (int, unit) Hashtbl.t;
  mutable next_handle : int;
}

let create engine hooks =
  let t =
    {
      engine;
      arb = Arbiter.create engine;
      hooks;
      mutexes = Hashtbl.create 16;
      conds = Hashtbl.create 16;
      barriers = Hashtbl.create 4;
      rwlocks = Hashtbl.create 8;
      sems = Hashtbl.create 8;
      deques = Hashtbl.create 8;
      joiners = Hashtbl.create 8;
      crashed = Hashtbl.create 4;
      next_handle = 1;
    }
  in
  Arbiter.thread_started t.arb ~tid:0;
  t

let arbiter t = t.arb

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

let mutex_state t m =
  match Hashtbl.find_opt t.mutexes m with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sync: unknown mutex %d" m)

let cond_state t c =
  match Hashtbl.find_opt t.conds c with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sync: unknown cond %d" c)

let rwlock_state t rw =
  match Hashtbl.find_opt t.rwlocks rw with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sync: unknown rwlock %d" rw)

let sem_state t s =
  match Hashtbl.find_opt t.sems s with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Sync: unknown semaphore %d" s)

let deque_state t dq =
  match Hashtbl.find_opt t.deques dq with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Sync: unknown deque %d" dq)

(* The Kendo stamp that orders every wakeup/steal decision: the thread's
   deterministic instruction count, tid as the tie-break.  Pure function
   of the thread's own progress — never of physical timing. *)
let stamp_of t tid = (Engine.icount t.engine tid, tid)

(* Lexicographic stamp order, typed at [int] so it compiles to integer
   compares rather than the polymorphic tuple compare. *)
let stamp_compare ((c1 : int), (t1 : int)) ((c2 : int), (t2 : int)) =
  if c1 <> c2 then Int.compare c1 c2 else Int.compare t1 t2

let insert_sorted ~stamp_of_elt e l =
  let k = stamp_of_elt e in
  let rec go = function
    | [] -> [ e ]
    | x :: _ as rest when stamp_compare (stamp_of_elt x) k > 0 -> e :: rest
    | x :: rest -> x :: go rest
  in
  go l

let barrier_state t b =
  match Hashtbl.find_opt t.barriers b with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sync: unknown barrier %d" b)

let sync_cost t = (Engine.cost t.engine).Cost.sync_op

let obs t = Engine.obs t.engine

let mutex_create t =
  let h = fresh_handle t in
  Hashtbl.replace t.mutexes h
    {
      owner = None;
      queue = Queue.create ();
      acquired_at = 0;
      poison = { poisoned_by = None };
    };
  Engine.Done h

let cond_create t =
  let h = fresh_handle t in
  Hashtbl.replace t.conds h { cond_waiters = [] };
  Engine.Done h

let rwlock_create t =
  let h = fresh_handle t in
  Hashtbl.replace t.rwlocks h
    {
      rw_writer = None;
      rw_readers = [];
      rw_waiting = [];
      rw_acquired_at = 0;
      rw_poison = { poisoned_by = None };
    };
  Engine.Done h

let sem_create t ~permits =
  if permits < 0 then invalid_arg "Sync.sem_create: permits < 0";
  let h = fresh_handle t in
  Hashtbl.replace t.sems h
    {
      sem_permits = permits;
      sem_held = [];
      sem_waiting = [];
      sem_poison = { poisoned_by = None };
    };
  Engine.Done h

let deque_create t ~tid =
  let h = fresh_handle t in
  Hashtbl.replace t.deques h
    { dq_owner = tid; dq_items = []; dq_poison = { poisoned_by = None } };
  Engine.Done h

let barrier_create t ~parties =
  if parties <= 0 then invalid_arg "Sync.barrier_create: parties <= 0";
  let h = fresh_handle t in
  Hashtbl.replace t.barriers h
    {
      parties;
      arrived = [];
      participants = Hashtbl.create (max 4 parties);
      broken = false;
    };
  Engine.Done h

(* [o = Some tid], typed at int. *)
let is_tid (o : int option) tid =
  match o with Some x -> x = tid | None -> false

let emit_acquire_ev t ~tid ~obj ~handle ~now ~asked ~enq =
  let o = obs t in
  if Rfdet_obs.Sink.enabled o then
    Rfdet_obs.Sink.emit o ~tid ~time:now
      (Rfdet_obs.Trace.Lock_acquire
         {
           obj;
           handle;
           wait = max 0 (now - asked);
           queued = max 0 (now - enq);
         })

let emit_release_ev t ~tid ~obj ~handle ~now ~held_since =
  let o = obs t in
  if Rfdet_obs.Sink.enabled o then
    Rfdet_obs.Sink.emit o ~tid ~time:now
      (Rfdet_obs.Trace.Lock_release
         { obj; handle; hold = max 0 (now - held_since) })

let emit_recovery t ~tid ~now ~action ~target ~attempt ~cycles =
  let o = obs t in
  if Rfdet_obs.Sink.enabled o then
    Rfdet_obs.Sink.emit o ~tid ~time:now
      (Rfdet_obs.Trace.Recovery { action; target; attempt; cycles })

let poisoned p = Option.is_some p.poisoned_by

(* What a grant wakes its thread with: [fault] while poisoned. *)
let grant_value p = if poisoned p then fault else ok

(* Un-poison the object [handle] names: the caller vouches for the
   protected invariant — explicitly through the heal op, or implicitly
   as the restarted crasher completing a clean release. *)
let heal t ~tid ~handle ~now p =
  if poisoned p then begin
    p.poisoned_by <- None;
    let prof = Engine.profile t.engine in
    prof.heals <- prof.heals + 1;
    emit_recovery t ~tid ~now ~action:"heal" ~target:handle ~attempt:0
      ~cycles:0
  end

(* Grant the mutex to [tid] at time [now]: run the acquire hook and wake
   the thread.  The thread is currently inactive/blocked.  [asked] is
   when the thread first requested the lock, [enq] when its turn put it
   in the wait queue ([= now] for an uncontended grant). *)
let grant_mutex t ~tid ~mutex ~now ~asked ~enq =
  let st = mutex_state t mutex in
  assert (st.owner = None);
  st.owner <- Some tid;
  st.acquired_at <- now;
  (* the wait completed before any lock_timed deadline *)
  Arbiter.cancel_timer t.arb ~tid;
  emit_acquire_ev t ~tid ~obj:"mutex" ~handle:mutex ~now ~asked ~enq;
  let extra = t.hooks.acquire ~tid ~obj:(Mutex_obj mutex) ~now in
  Arbiter.set_active t.arb ~tid;
  Engine.wake t.engine ~tid ~value:(grant_value st.poison)
    ~not_before:(now + sync_cost t + extra)

let emit_release t ~tid ~mutex ~now st =
  emit_release_ev t ~tid ~obj:"mutex" ~handle:mutex ~now
    ~held_since:st.acquired_at

let remove_from_queue q ~tid =
  let kept =
    Queue.fold
      (fun acc (((w : int), _, _) as e) -> if w = tid then acc else e :: acc)
      [] q
  in
  Queue.clear q;
  List.iter (fun x -> Queue.add x q) (List.rev kept)

let lock t ~tid ~mutex =
  Engine.advance t.engine tid (sync_cost t);
  let asked = Engine.clock t.engine tid in
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = mutex_state t mutex in
      match st.owner with
      | None -> grant_mutex t ~tid ~mutex ~now ~asked ~enq:now
      | Some _ ->
        (* Queue in deterministic reservation order; stay blocked. *)
        Queue.add (tid, asked, now) st.queue;
        Arbiter.set_inactive t.arb ~tid);
  Engine.Block

let trylock t ~tid ~mutex =
  Engine.advance t.engine tid (sync_cost t);
  let asked = Engine.clock t.engine tid in
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = mutex_state t mutex in
      match st.owner with
      | None -> grant_mutex t ~tid ~mutex ~now ~asked ~enq:now
      | Some _ ->
        (* Held: report busy without queueing.  The answer depends only
           on the arbiter state at this deterministic turn. *)
        Engine.wake t.engine ~tid ~value:busy ~not_before:(now + sync_cost t));
  Engine.Block

let lock_timed t ~tid ~mutex ~timeout =
  Engine.advance t.engine tid (sync_cost t);
  let asked = Engine.clock t.engine tid in
  (* Absolute icount deadline, fixed at the request: expiry is granted
     through the arbiter's min-stamp order, so whether the lock or the
     timeout wins is jitter-independent. *)
  let deadline = Engine.icount t.engine tid + max 0 timeout in
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = mutex_state t mutex in
      match st.owner with
      | None -> grant_mutex t ~tid ~mutex ~now ~asked ~enq:now
      | Some _ ->
        Queue.add (tid, asked, now) st.queue;
        Arbiter.set_inactive t.arb ~tid;
        Arbiter.add_timer t.arb ~tid ~deadline ~fire:(fun ~now ->
            remove_from_queue st.queue ~tid;
            Arbiter.set_active t.arb ~tid;
            Engine.wake t.engine ~tid ~value:busy
              ~not_before:(max now (Engine.clock t.engine tid) + sync_cost t)));
  Engine.Block

(* Pass a free mutex to the head of its queue, if any. *)
let pass_mutex t ~mutex ~now =
  let st = mutex_state t mutex in
  assert (st.owner = None);
  match Queue.take_opt st.queue with
  | None -> ()
  | Some (waiter, asked, enq) ->
    grant_mutex t ~tid:waiter ~mutex ~now ~asked ~enq

let unlock t ~tid ~mutex =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = mutex_state t mutex in
      (match st.owner with
      | Some owner when owner = tid -> ()
      | Some _ | None ->
        invalid_arg
          (Printf.sprintf "Sync.unlock: tid %d does not hold mutex %d" tid
             mutex));
      (* The thread whose crash poisoned this mutex completed a clean
         critical section after restarting: invariant re-established. *)
      if is_tid st.poison.poisoned_by tid then
        heal t ~tid ~handle:mutex ~now st.poison;
      emit_release t ~tid ~mutex ~now st;
      let extra = t.hooks.release ~tid ~obj:(Mutex_obj mutex) ~now in
      st.owner <- None;
      pass_mutex t ~mutex ~now:(now + extra);
      Engine.wake t.engine ~tid ~value:0 ~not_before:(now + extra));
  Engine.Block

let cond_wait t ~tid ~cond ~mutex =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let mst = mutex_state t mutex in
      (match mst.owner with
      | Some owner when owner = tid -> ()
      | Some _ | None ->
        invalid_arg
          (Printf.sprintf "Sync.cond_wait: tid %d does not hold mutex %d" tid
             mutex));
      (* Waiting releases the mutex: a release point on the mutex. *)
      emit_release t ~tid ~mutex ~now mst;
      let extra = t.hooks.release ~tid ~obj:(Mutex_obj mutex) ~now in
      mst.owner <- None;
      pass_mutex t ~mutex ~now:(now + extra);
      let cst = cond_state t cond in
      cst.cond_waiters <-
        insert_sorted
          ~stamp_of_elt:(fun (_, _, s) -> s)
          (tid, mutex, stamp_of t tid)
          cst.cond_waiters;
      Arbiter.set_inactive t.arb ~tid);
  Engine.Block

(* Wake one queued waiter: acquire point on the condvar (see the
   signaller's updates), then contend for the mutex again. *)
let wake_cond_waiter t ~waiter ~mutex ~cond ~now =
  let extra = t.hooks.acquire ~tid:waiter ~obj:(Cond_obj cond) ~now in
  let now = now + extra in
  let mst = mutex_state t mutex in
  match mst.owner with
  | None -> grant_mutex t ~tid:waiter ~mutex ~now ~asked:now ~enq:now
  | Some _ -> Queue.add (waiter, now, now) mst.queue

(* [lose] is the seeded negative control ([Options.bug_lost_signal]):
   the signal's release side happens but the min-stamp waiter is never
   woken — the classic lost wakeup, which the conformance wall must
   catch as a deterministic divergence or deadlock. *)
let cond_signal ?(lose = false) t ~tid ~cond =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let extra = t.hooks.release ~tid ~obj:(Cond_obj cond) ~now in
      let cst = cond_state t cond in
      (match cst.cond_waiters with
      | [] ->
        (* A signal nobody heard: the lost-wakeup-prone pattern.  Count
           it so the profile makes silent hand-off bugs visible. *)
        let p = Engine.profile t.engine in
        p.cond_unheard_signals <- p.cond_unheard_signals + 1
      | _ :: _ when lose -> ()
      | (waiter, mutex, _) :: rest ->
        cst.cond_waiters <- rest;
        wake_cond_waiter t ~waiter ~mutex ~cond ~now:(now + extra));
      Engine.wake t.engine ~tid ~value:0 ~not_before:(now + extra));
  Engine.Block

let cond_broadcast t ~tid ~cond =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let extra = t.hooks.release ~tid ~obj:(Cond_obj cond) ~now in
      let cst = cond_state t cond in
      let sleeping = cst.cond_waiters in
      cst.cond_waiters <- [];
      (* already ascending by stamp: min-stamp waiter contends first *)
      List.iter
        (fun (waiter, mutex, _) ->
          wake_cond_waiter t ~waiter ~mutex ~cond ~now:(now + extra))
        sleeping;
      Engine.wake t.engine ~tid ~value:0 ~not_before:(now + extra));
  Engine.Block

(* --- reader-writer locks --------------------------------------------- *)

let grant_rd t ~tid ~rwlock ~now ~asked ~enq =
  let st = rwlock_state t rwlock in
  assert (st.rw_writer = None);
  let p = Engine.profile t.engine in
  if st.rw_readers = [] then begin
    p.rw_reader_batches <- p.rw_reader_batches + 1;
    st.rw_acquired_at <- now
  end;
  p.rw_batch_readers <- p.rw_batch_readers + 1;
  st.rw_readers <- st.rw_readers @ [ tid ];
  emit_acquire_ev t ~tid ~obj:"rwlock_r" ~handle:rwlock ~now ~asked ~enq;
  let extra = t.hooks.acquire ~tid ~obj:(Rwlock_obj rwlock) ~now in
  Arbiter.set_active t.arb ~tid;
  Engine.wake t.engine ~tid
    ~value:(grant_value st.rw_poison)
    ~not_before:(now + sync_cost t + extra)

let grant_wr t ~tid ~rwlock ~now ~asked ~enq =
  let st = rwlock_state t rwlock in
  assert (st.rw_writer = None && st.rw_readers = []);
  st.rw_writer <- Some tid;
  st.rw_acquired_at <- now;
  emit_acquire_ev t ~tid ~obj:"rwlock_w" ~handle:rwlock ~now ~asked ~enq;
  let extra = t.hooks.acquire ~tid ~obj:(Rwlock_obj rwlock) ~now in
  Arbiter.set_active t.arb ~tid;
  Engine.wake t.engine ~tid
    ~value:(grant_value st.rw_poison)
    ~not_before:(now + sync_cost t + extra)

(* Admission when the lock is fully free, in pure stamp order: a writer
   at the head enters alone; a reader at the head brings in the whole
   consecutive run of waiting readers up to the first waiting writer —
   one deterministic batch. *)
let admit_rw t ~rwlock ~now =
  let st = rwlock_state t rwlock in
  if st.rw_writer = None && st.rw_readers = [] then
    match st.rw_waiting with
    | [] -> ()
    | { rw_mode = Wr; rw_tid; rw_asked; rw_enq; _ } :: rest ->
      st.rw_waiting <- rest;
      grant_wr t ~tid:rw_tid ~rwlock ~now ~asked:rw_asked ~enq:rw_enq
    | _ :: _ ->
      let rec split acc = function
        | ({ rw_mode = Rd; _ } as w) :: rest -> split (w :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let batch, rest = split [] st.rw_waiting in
      st.rw_waiting <- rest;
      List.iter
        (fun w ->
          grant_rd t ~tid:w.rw_tid ~rwlock ~now ~asked:w.rw_asked
            ~enq:w.rw_enq)
        batch

let holds_read st tid = List.exists (fun (r : int) -> r = tid) st.rw_readers

let rw_insert_waiter st w =
  st.rw_waiting <-
    insert_sorted ~stamp_of_elt:(fun x -> x.rw_stamp) w st.rw_waiting

let rdlock t ~tid ~rwlock =
  Engine.advance t.engine tid (sync_cost t);
  let asked = Engine.clock t.engine tid in
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = rwlock_state t rwlock in
      (* Stamp-ordered writer preference: a reader arriving after a
         writer started waiting queues behind it — even while other
         readers hold the lock — so writers cannot starve, and the
         queue drains in stamp order. *)
      let writer_waiting =
        List.exists (fun w -> w.rw_mode = Wr) st.rw_waiting
      in
      if st.rw_writer = None && not writer_waiting then
        grant_rd t ~tid ~rwlock ~now ~asked ~enq:now
      else begin
        rw_insert_waiter st
          {
            rw_tid = tid;
            rw_mode = Rd;
            rw_stamp = stamp_of t tid;
            rw_asked = asked;
            rw_enq = now;
          };
        Arbiter.set_inactive t.arb ~tid
      end);
  Engine.Block

let wrlock t ~tid ~rwlock =
  Engine.advance t.engine tid (sync_cost t);
  let asked = Engine.clock t.engine tid in
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = rwlock_state t rwlock in
      if st.rw_writer = None && st.rw_readers = [] && st.rw_waiting = []
      then grant_wr t ~tid ~rwlock ~now ~asked ~enq:now
      else begin
        rw_insert_waiter st
          {
            rw_tid = tid;
            rw_mode = Wr;
            rw_stamp = stamp_of t tid;
            rw_asked = asked;
            rw_enq = now;
          };
        Arbiter.set_inactive t.arb ~tid
      end);
  Engine.Block

let rwunlock t ~tid ~rwlock =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = rwlock_state t rwlock in
      let mode =
        if is_tid st.rw_writer tid then Wr
        else if holds_read st tid then Rd
        else
          invalid_arg
            (Printf.sprintf "Sync.rwunlock: tid %d does not hold rwlock %d"
               tid rwlock)
      in
      (* clean critical section by the restarted crasher: healed *)
      if is_tid st.rw_poison.poisoned_by tid then
        heal t ~tid ~handle:rwlock ~now st.rw_poison;
      emit_release_ev t ~tid
        ~obj:(match mode with Wr -> "rwlock_w" | Rd -> "rwlock_r")
        ~handle:rwlock ~now ~held_since:st.rw_acquired_at;
      let extra = t.hooks.release ~tid ~obj:(Rwlock_obj rwlock) ~now in
      (match mode with
      | Wr -> st.rw_writer <- None
      | Rd -> st.rw_readers <- List.filter (fun r -> r <> tid) st.rw_readers);
      admit_rw t ~rwlock ~now:(now + extra);
      Engine.wake t.engine ~tid ~value:0 ~not_before:(now + extra));
  Engine.Block

(* --- counting semaphores --------------------------------------------- *)

let sem_held_count st tid =
  Option.value (List.assoc_opt tid st.sem_held) ~default:0

let sem_set_held st tid n =
  st.sem_held <-
    (if n = 0 then List.remove_assoc tid st.sem_held
     else (tid, n) :: List.remove_assoc tid st.sem_held)

let grant_sem t ~tid ~sem ~now ~asked ~enq =
  let st = sem_state t sem in
  sem_set_held st tid (sem_held_count st tid + 1);
  emit_acquire_ev t ~tid ~obj:"sem" ~handle:sem ~now ~asked ~enq;
  let extra = t.hooks.acquire ~tid ~obj:(Sem_obj sem) ~now in
  Arbiter.set_active t.arb ~tid;
  Engine.wake t.engine ~tid
    ~value:(grant_value st.sem_poison)
    ~not_before:(now + sync_cost t + extra)

let sem_acquire t ~tid ~sem =
  Engine.advance t.engine tid (sync_cost t);
  let asked = Engine.clock t.engine tid in
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = sem_state t sem in
      if st.sem_permits > 0 then begin
        st.sem_permits <- st.sem_permits - 1;
        grant_sem t ~tid ~sem ~now ~asked ~enq:now
      end
      else begin
        st.sem_waiting <-
          insert_sorted
            ~stamp_of_elt:(fun (_, s, _, _) -> s)
            (tid, stamp_of t tid, asked, now)
            st.sem_waiting;
        Arbiter.set_inactive t.arb ~tid
      end);
  Engine.Block

let sem_post t ~tid ~sem =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = sem_state t sem in
      (* a clean post by the thread whose crash poisoned it heals *)
      if is_tid st.sem_poison.poisoned_by tid then
        heal t ~tid ~handle:sem ~now st.sem_poison;
      emit_release_ev t ~tid ~obj:"sem" ~handle:sem ~now ~held_since:now;
      let extra = t.hooks.release ~tid ~obj:(Sem_obj sem) ~now in
      sem_set_held st tid (max 0 (sem_held_count st tid - 1));
      (match st.sem_waiting with
      | (waiter, _, asked, enq) :: rest ->
        (* hand the permit straight to the lowest-stamp waiter *)
        st.sem_waiting <- rest;
        grant_sem t ~tid:waiter ~sem ~now:(now + extra) ~asked ~enq
      | [] -> st.sem_permits <- st.sem_permits + 1);
      Engine.wake t.engine ~tid ~value:0 ~not_before:(now + extra));
  Engine.Block

(* --- work-stealing deques -------------------------------------------- *)

let deque_push t ~tid ~deque ~value =
  if value < 0 then invalid_arg "Sync.deque_push: negative value";
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = deque_state t deque in
      if st.dq_owner <> tid then
        invalid_arg
          (Printf.sprintf "Sync.deque_push: tid %d does not own deque %d"
             tid deque);
      (* the restarted owner producing work again heals its deque *)
      if is_tid st.dq_poison.poisoned_by tid then
        heal t ~tid ~handle:deque ~now st.dq_poison;
      (* a push is a release: thieves must see the published item *)
      let extra = t.hooks.release ~tid ~obj:(Deque_obj deque) ~now in
      st.dq_items <- st.dq_items @ [ (value, stamp_of t tid) ];
      Engine.wake t.engine ~tid ~value:0
        ~not_before:(now + sync_cost t + extra));
  Engine.Block

let deque_pop t ~tid ~deque =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = deque_state t deque in
      if st.dq_owner <> tid then
        invalid_arg
          (Printf.sprintf "Sync.deque_pop: tid %d does not own deque %d" tid
             deque);
      if poisoned st.dq_poison then
        Engine.wake t.engine ~tid ~value:(-2)
          ~not_before:(now + sync_cost t)
      else
        match List.rev st.dq_items with
        | [] ->
          Engine.wake t.engine ~tid ~value:(-1)
            ~not_before:(now + sync_cost t)
        | (v, _) :: older_rev ->
          st.dq_items <- List.rev older_rev;
          let extra = t.hooks.acquire ~tid ~obj:(Deque_obj deque) ~now in
          Engine.wake t.engine ~tid ~value:v
            ~not_before:(now + sync_cost t + extra));
  Engine.Block

let deque_steal t ~tid ~own =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let p = Engine.profile t.engine in
      p.steals_attempted <- p.steals_attempted + 1;
      (* Victim selection: the non-empty, non-poisoned deque whose
         oldest item carries the lowest push stamp (handle breaks the
         impossible tie) — the thief always takes the globally oldest
         runnable work, a pure function of stamps. *)
      let best =
        Hashtbl.fold
          (fun h st acc ->
            if h = own || poisoned st.dq_poison then acc
            else
              match st.dq_items with
              | [] -> acc
              | (_, stamp) :: _ -> (
                match acc with
                | Some (bstamp, bh, _)
                  when let c = stamp_compare bstamp stamp in
                       c < 0 || (c = 0 && bh <= h) ->
                  acc
                | _ -> Some (stamp, h, st)))
          t.deques None
      in
      match best with
      | None ->
        Engine.wake t.engine ~tid ~value:(-1)
          ~not_before:(now + sync_cost t)
      | Some (_, victim, st) ->
        let v, _ = List.hd st.dq_items in
        st.dq_items <- List.tl st.dq_items;
        p.steals_succeeded <- p.steals_succeeded + 1;
        (let o = obs t in
         if Rfdet_obs.Sink.enabled o then
           Rfdet_obs.Sink.emit o ~tid ~time:now
             (Rfdet_obs.Trace.Steal
                { deque = victim; victim = st.dq_owner; value = v }));
        (* stealing is an acquire on the victim deque: the thief must
           see everything published up to the push it just took *)
        let extra = t.hooks.acquire ~tid ~obj:(Deque_obj victim) ~now in
        Engine.wake t.engine ~tid ~value:v
          ~not_before:(now + sync_cost t + extra));
  Engine.Block

(* The heal op: un-poison by handle, whatever kind of object the handle
   names (handles are unique across kinds, so dispatch is unambiguous).
   The caller must hold a mutex, rwlock or semaphore it heals; anyone
   may heal a deque (its owner is dead). *)
let heal_op t ~tid ~handle =
  let refuse fmt = invalid_arg (Printf.sprintf fmt tid handle) in
  (* the kind is resolved now; ownership is checked at the grant *)
  let vouch =
    match
      ( Hashtbl.find_opt t.mutexes handle,
        Hashtbl.find_opt t.rwlocks handle,
        Hashtbl.find_opt t.sems handle,
        Hashtbl.find_opt t.deques handle )
    with
    | Some st, _, _, _ ->
      fun () ->
        if not (is_tid st.owner tid) then
          refuse "Sync.mutex_heal: tid %d does not hold mutex %d";
        st.poison
    | _, Some st, _, _ ->
      fun () ->
        if not (is_tid st.rw_writer tid || holds_read st tid) then
          refuse "Sync.heal: tid %d does not hold rwlock %d";
        st.rw_poison
    | _, _, Some st, _ ->
      fun () ->
        if sem_held_count st tid = 0 then
          refuse "Sync.heal: tid %d holds no permit of semaphore %d";
        st.sem_poison
    | _, _, _, Some st -> fun () -> st.dq_poison
    | None, None, None, None ->
      invalid_arg (Printf.sprintf "Sync.heal: unknown handle %d" handle)
  in
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      heal t ~tid ~handle ~now (vouch ());
      Engine.wake t.engine ~tid ~value:0 ~not_before:(now + sync_cost t));
  Engine.Block

let barrier_wait t ~tid ~barrier =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let st = barrier_state t barrier in
      Hashtbl.replace st.participants tid ();
      if st.broken then
        (* A party crashed at this barrier: it can never complete.
           Fail fast and deterministically instead of deadlocking. *)
        Engine.wake t.engine ~tid ~value:fault
          ~not_before:(now + sync_cost t)
      else begin
      st.arrived <- (tid, now) :: st.arrived;
      if List.length st.arrived < st.parties then
        Arbiter.set_inactive t.arb ~tid
      else begin
        let parties = List.rev st.arrived in
        let tids = List.map fst parties in
        st.arrived <- [];
        let extra = t.hooks.barrier_all ~tids ~barrier ~now in
        let release_at =
          now + extra + (Engine.cost t.engine).Cost.barrier_overhead
        in
        (let o = obs t in
         if Rfdet_obs.Sink.enabled o then
           List.iter
             (fun (tid', arrived_at) ->
               Rfdet_obs.Sink.emit o ~tid:tid' ~time:arrived_at
                 (Rfdet_obs.Trace.Barrier_stall
                    { barrier; cycles = max 0 (release_at - arrived_at) }))
             parties);
        List.iter
          (fun tid' ->
            if tid' <> tid then begin
              Arbiter.set_active t.arb ~tid:tid';
              Engine.wake t.engine ~tid:tid' ~value:0 ~not_before:release_at
            end)
          tids;
        Engine.wake t.engine ~tid ~value:0 ~not_before:release_at
      end
      end);
  Engine.Block

let spawn t ~tid ~body =
  let cost = Engine.cost t.engine in
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let start_at = now + cost.Cost.spawn in
      let child = Engine.register_thread t.engine ~body ~start_at in
      (* Children inherit the parent's deterministic instruction count so
         the Kendo logical clocks stay comparable. *)
      Engine.seed_icount t.engine child (Engine.icount t.engine tid);
      Arbiter.thread_started t.arb ~tid:child;
      t.hooks.spawned ~parent:tid ~child ~now;
      Engine.wake t.engine ~tid ~value:child ~not_before:start_at);
  Engine.Block

let rmw t ~tid ~action =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      let value, extra = action ~now in
      Engine.wake t.engine ~tid ~value ~not_before:(now + sync_cost t + extra));
  Engine.Block

let complete_join t ~tid ~target ~now =
  let extra = t.hooks.joined ~tid ~target ~now in
  Arbiter.set_active t.arb ~tid;
  Engine.wake t.engine ~tid ~value:0
    ~not_before:(now + (Engine.cost t.engine).Cost.join + extra)

(* A join on a crashed target completes immediately with an error value;
   the [joined] hook is NOT run — the joiner must not absorb anything
   beyond the target's already-released slices (which remain reachable
   through the regular acquire paths). *)
let complete_join_crashed t ~tid ~now =
  Arbiter.set_active t.arb ~tid;
  Engine.wake t.engine ~tid ~value:fault
    ~not_before:(now + (Engine.cost t.engine).Cost.join)

let join t ~tid ~target =
  Engine.advance t.engine tid (sync_cost t);
  Arbiter.request t.arb ~tid ~grant:(fun ~now ->
      if Hashtbl.mem t.crashed target then
        complete_join_crashed t ~tid ~now
      else if Engine.is_finished t.engine target then
        complete_join t ~tid ~target ~now
      else begin
        let existing =
          Option.value (Hashtbl.find_opt t.joiners target) ~default:[]
        in
        Hashtbl.replace t.joiners target (existing @ [ tid ]);
        Arbiter.set_inactive t.arb ~tid
      end);
  Engine.Block

(* The one Op -> primitive table of the Kendo runtimes.  Each runtime
   keeps its memory ops (Load, Store and the closure it runs for an
   Atomic) and delegates everything else here; engine ops never reach a
   policy. *)
let handle t ~tid (op : Op.t) =
  match op with
  | Op.Mutex_create -> mutex_create t
  | Op.Cond_create -> cond_create t
  | Op.Barrier_create parties -> barrier_create t ~parties
  | Op.Lock m -> lock t ~tid ~mutex:m
  | Op.Trylock m -> trylock t ~tid ~mutex:m
  | Op.Lock_timed { mutex; timeout } -> lock_timed t ~tid ~mutex ~timeout
  | Op.Mutex_heal h -> heal_op t ~tid ~handle:h
  | Op.Unlock m -> unlock t ~tid ~mutex:m
  | Op.Cond_wait { cond; mutex } -> cond_wait t ~tid ~cond ~mutex
  | Op.Cond_signal cond -> cond_signal t ~tid ~cond
  | Op.Cond_broadcast cond -> cond_broadcast t ~tid ~cond
  | Op.Barrier_wait b -> barrier_wait t ~tid ~barrier:b
  | Op.Spawn body -> spawn t ~tid ~body
  | Op.Join target -> join t ~tid ~target
  | Op.Rwlock_create -> rwlock_create t
  | Op.Rdlock rw -> rdlock t ~tid ~rwlock:rw
  | Op.Wrlock rw -> wrlock t ~tid ~rwlock:rw
  | Op.Rwunlock rw -> rwunlock t ~tid ~rwlock:rw
  | Op.Sem_create permits -> sem_create t ~permits
  | Op.Sem_acquire s -> sem_acquire t ~tid ~sem:s
  | Op.Sem_post s -> sem_post t ~tid ~sem:s
  | Op.Deque_create -> deque_create t ~tid
  | Op.Deque_push { deque; value } -> deque_push t ~tid ~deque ~value
  | Op.Deque_pop dq -> deque_pop t ~tid ~deque:dq
  | Op.Deque_steal own -> deque_steal t ~tid ~own
  | Op.Load _ | Op.Store _ | Op.Atomic _ | Op.Tick _ | Op.Output _ | Op.Self
  | Op.Yield | Op.Checkpoint _ | Op.Server_mark _ | Op.Span _ | Op.Malloc _
  | Op.Free _ ->
    invalid_arg "Sync.handle: not a synchronization op"

let on_thread_exit t ~tid =
  t.hooks.exited ~tid;
  Arbiter.thread_finished t.arb ~tid;
  let now = Engine.clock t.engine tid in
  (match Hashtbl.find_opt t.joiners tid with
  | None -> ()
  | Some waiting ->
    Hashtbl.remove t.joiners tid;
    List.iter
      (fun joiner ->
        let now = max now (Engine.clock t.engine joiner) in
        complete_join t ~tid:joiner ~target:tid ~now)
      waiting);
  Arbiter.poll t.arb

(* Crash repair, for containment and for a restart alike.  Under DLRC a
   crashed thread has published nothing since its last release, so both
   need the same sync-layer repair; [restart] decides the three ways
   they differ.  A contained thread is marked crashed, breaks its
   barriers and fails its joiners.  A thread about to restart keeps its
   joiners waiting for the restarted body and retracts its barrier
   arrivals, so it can arrive again.  Everything here iterates objects
   in ascending handle order, so the repair sequence — and therefore
   which survivor observes what — is a pure function of the crash point,
   never of the physical interleaving that led to it. *)
let on_thread_crash t ~tid ~restart =
  if not restart then Hashtbl.replace t.crashed tid ();
  (* The arbiter must forget the thread: a crashed thread's logical
     clock never advances, and leaving it Active would block every
     later turn grant forever. *)
  Arbiter.thread_finished t.arb ~tid;
  let sorted_handles tbl pred =
    Hashtbl.fold
      (fun (h : int) st acc -> if pred st then h :: acc else acc)
      tbl []
    |> List.sort Int.compare
  in
  (* 1. Purge the crashed thread from every wait queue so no later
     hand-off resurrects it. *)
  Hashtbl.iter (fun _ st -> remove_from_queue st.queue ~tid) t.mutexes;
  Hashtbl.iter
    (fun _ st ->
      st.cond_waiters <-
        List.filter (fun (w, _, _) -> w <> tid) st.cond_waiters)
    t.conds;
  Hashtbl.iter
    (fun _ st ->
      st.rw_waiting <- List.filter (fun w -> w.rw_tid <> tid) st.rw_waiting)
    t.rwlocks;
  Hashtbl.iter
    (fun _ st ->
      st.sem_waiting <-
        List.filter (fun (w, _, _, _) -> w <> tid) st.sem_waiting)
    t.sems;
  Hashtbl.filter_map_inplace
    (fun _ joiners ->
      match List.filter (fun j -> j <> tid) joiners with
      | [] -> None
      | l -> Some l)
    t.joiners;
  if restart then
    Hashtbl.iter
      (fun _ st ->
        st.arrived <- List.filter (fun (p, _) -> p <> tid) st.arrived)
      t.barriers;
  let now = Engine.clock t.engine tid in
  (* 2. Release held mutexes as poisoned, ascending handle order; each
     passes to the deterministically-next waiter, who observes the
     poison in its lock result.  The crasher is recorded, so its clean
     unlock after a restart heals them. *)
  List.iter
    (fun m ->
      let st = mutex_state t m in
      emit_release t ~tid ~mutex:m ~now st;
      st.poison.poisoned_by <- Some tid;
      st.owner <- None;
      pass_mutex t ~mutex:m ~now)
    (sorted_handles t.mutexes (fun st -> is_tid st.owner tid));
  (* 2b. Same for rwlocks the crashed thread held (as writer or reader):
     poison, drop the hold, admit the deterministically-next batch. *)
  List.iter
    (fun rw ->
      let st = rwlock_state t rw in
      let mode = if is_tid st.rw_writer tid then Wr else Rd in
      emit_release_ev t ~tid
        ~obj:(match mode with Wr -> "rwlock_w" | Rd -> "rwlock_r")
        ~handle:rw ~now ~held_since:st.rw_acquired_at;
      st.rw_poison.poisoned_by <- Some tid;
      (match mode with
      | Wr -> st.rw_writer <- None
      | Rd -> st.rw_readers <- List.filter (fun r -> r <> tid) st.rw_readers);
      admit_rw t ~rwlock:rw ~now)
    (sorted_handles t.rwlocks (fun st ->
         is_tid st.rw_writer tid || holds_read st tid));
  (* 2c. Semaphores: permits died with their holder.  Return them (so
     the pool keeps its capacity), poison the semaphore, and serve
     waiters that the returned permits can now admit. *)
  List.iter
    (fun s ->
      let st = sem_state t s in
      let n = sem_held_count st tid in
      sem_set_held st tid 0;
      st.sem_poison.poisoned_by <- Some tid;
      st.sem_permits <- st.sem_permits + n;
      let rec drain () =
        if st.sem_permits > 0 then
          match st.sem_waiting with
          | (waiter, _, asked, enq) :: rest ->
            st.sem_waiting <- rest;
            st.sem_permits <- st.sem_permits - 1;
            grant_sem t ~tid:waiter ~sem:s ~now ~asked ~enq;
            drain ()
          | [] -> ()
      in
      drain ())
    (sorted_handles t.sems (fun st -> sem_held_count st tid > 0));
  (* 2d. Deques the crashed thread owned are poisoned: their queued work
     may be half-constructed, so pops/steals observe the poison until a
     heal (or the restarted owner pushing again) vouches for it. *)
  List.iter
    (fun dq -> (deque_state t dq).dq_poison.poisoned_by <- Some tid)
    (sorted_handles t.deques (fun st -> st.dq_owner = tid));
  if not restart then begin
    (* 3. Break every barrier the crashed thread was a party to (it has
       waited there at least once): release the stranded waiters with an
       error now, and fail all future waits.  Without this, survivors of
       an iterative barrier loop would wait forever for a party that is
       never coming back. *)
    List.iter
      (fun b ->
        let st = barrier_state t b in
        st.broken <- true;
        let stranded =
          List.rev_map fst (List.filter (fun (p, _) -> p <> tid) st.arrived)
          |> List.rev
        in
        st.arrived <- [];
        List.iter
          (fun party ->
            Arbiter.set_active t.arb ~tid:party;
            Engine.wake t.engine ~tid:party ~value:fault
              ~not_before:(max now (Engine.clock t.engine party)))
          stranded)
      (sorted_handles t.barriers (fun st -> Hashtbl.mem st.participants tid));
    (* 4. Joiners of the crashed thread get an error instead of waiting
       forever. *)
    match Hashtbl.find_opt t.joiners tid with
    | None -> ()
    | Some waiting ->
      Hashtbl.remove t.joiners tid;
      List.iter
        (fun joiner ->
          complete_join_crashed t ~tid:joiner
            ~now:(max now (Engine.clock t.engine joiner)))
        waiting
  end;
  Arbiter.poll t.arb

(* The restarted tid rejoins the arbiter's active set with its preserved
   (monotone) instruction count. *)
let on_thread_restarted t ~tid = Arbiter.thread_started t.arb ~tid

(* Deadlock victim selection over the wait-for graph.  Each blocked
   thread waits on at most one thing, so the graph is functional: mutex
   queue waiter -> owner, joiner -> join target (condition variables
   have no owner and contribute no edge).  Called at a total stall —
   a schedule-independent point for a deterministic runtime — and the
   victim is the cycle node with the lowest Kendo logical time
   ((icount, tid) order), so the choice is deterministic too. *)
let deadlock_victim t =
  let next = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ st ->
      match st.owner with
      | Some o -> Queue.iter (fun (w, _, _) -> Hashtbl.replace next w o) st.queue
      | None -> ())
    t.mutexes;
  Hashtbl.iter
    (fun _ st ->
      (* A blocked rwlock waiter waits on the writer when one holds the
         lock, else on the lowest-tid reader — one representative edge
         keeps the graph functional while still exposing the cycle. *)
      let holder =
        match st.rw_writer with
        | Some w -> Some w
        | None -> (
          match List.sort Int.compare st.rw_readers with
          | r :: _ -> Some r
          | [] -> None)
      in
      match holder with
      | Some h ->
        List.iter (fun w -> Hashtbl.replace next w.rw_tid h) st.rw_waiting
      | None -> ())
    t.rwlocks;
  Hashtbl.iter
    (fun _ st ->
      (* A blocked semaphore waiter waits on the lowest-tid permit
         holder, when there is one. *)
      match
        List.sort Int.compare
          (List.filter_map
             (fun (h, n) -> if n > 0 then Some h else None)
             st.sem_held)
      with
      | h :: _ ->
        List.iter (fun (w, _, _, _) -> Hashtbl.replace next w h) st.sem_waiting
      | [] -> ())
    t.sems;
  Hashtbl.iter
    (fun target joiners ->
      List.iter (fun j -> Hashtbl.replace next j target) joiners)
    t.joiners;
  let color = Hashtbl.create 16 in
  let run = ref 0 in
  let cyc = ref [] in
  let starts =
    Hashtbl.fold (fun n _ acc -> n :: acc) next [] |> List.sort Int.compare
  in
  List.iter
    (fun start ->
      incr run;
      let rec chase node =
        match Hashtbl.find_opt color node with
        | Some r when r = !run ->
          (* back-edge into this walk: the loop from [node] is a cycle *)
          let rec loop x acc =
            let nx = Hashtbl.find next x in
            if nx = node then x :: acc else loop nx (x :: acc)
          in
          cyc := loop node [] @ !cyc
        | Some _ -> ()
        | None ->
          Hashtbl.replace color node !run;
          (match Hashtbl.find_opt next node with
          | Some nx -> chase nx
          | None -> ());
          Hashtbl.replace color node 0
      in
      chase start)
    starts;
  match !cyc with
  | [] -> None
  | hd :: tl ->
    let key tid = stamp_of t tid in
    Some
      (List.fold_left
         (fun b x -> if stamp_compare (key x) (key b) < 0 then x else b)
         hd tl)

let poll t = Arbiter.poll t.arb
