module Engine = Rfdet_sim.Engine
module Op = Rfdet_sim.Op

type mutex_state = { mutable owner : int option; queue : int Queue.t }

type cond_state = { cond_waiters : (int * int) Queue.t }  (* (waiter, mutex) *)

type barrier_state = { parties : int; mutable arrived : int list }

type rw_state = {
  mutable rw_writer : int option;
  mutable rw_readers : int list;
  rw_queue : (int * [ `Rd | `Wr ]) Queue.t;  (* FIFO arrival order *)
}

type sem_state = { mutable sem_permits : int; sem_queue : int Queue.t }

type deque_state = {
  dq_owner : int;
  mutable dq_items : (int * int) list;  (* (value, push seq), oldest first *)
}

type t = {
  name : string;
  wake : tid:int -> at:int -> unit;
  mutexes : (int, mutex_state) Hashtbl.t;
  conds : (int, cond_state) Hashtbl.t;
  barriers : (int, barrier_state) Hashtbl.t;
  rwlocks : (int, rw_state) Hashtbl.t;
  sems : (int, sem_state) Hashtbl.t;
  deques : (int, deque_state) Hashtbl.t;
  mutable next_handle : int;
  mutable push_seq : int;  (* global push order, for oldest-first steals *)
}

let create ~name ~wake =
  {
    name;
    wake;
    mutexes = Hashtbl.create 16;
    conds = Hashtbl.create 16;
    barriers = Hashtbl.create 4;
    rwlocks = Hashtbl.create 8;
    sems = Hashtbl.create 8;
    deques = Hashtbl.create 8;
    next_handle = 1;
    push_seq = 0;
  }

let fail t fmt = Printf.ksprintf (fun msg -> invalid_arg (t.name ^ ": " ^ msg)) fmt

let find t kind tbl h =
  match Hashtbl.find_opt tbl h with
  | Some st -> st
  | None -> fail t "unknown %s %d" kind h

(* Handles are unique across object kinds. *)
let fresh t tbl st : Engine.outcome =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Hashtbl.replace tbl h st;
  Done h

let holds (st : mutex_state) tid =
  match st.owner with Some owner -> owner = tid | None -> false

(* Hand a free mutex to [w], waking it. *)
let grant t (st : mutex_state) w ~at =
  st.owner <- Some w;
  t.wake ~tid:w ~at

let pass_mutex t st ~at =
  match Queue.take_opt st.queue with None -> () | Some w -> grant t st w ~at

(* A woken condvar waiter contends for its mutex again. *)
let reacquire t (w, m) ~at =
  let st = find t "mutex" t.mutexes m in
  match st.owner with None -> grant t st w ~at | Some _ -> Queue.add w st.queue

(* Admit the FIFO queue head after a full release: a writer alone, or
   the consecutive run of readers at the head as a group. *)
let admit_rw t st ~at =
  match st.rw_writer, st.rw_readers with
  | None, [] -> (
    match Queue.peek_opt st.rw_queue with
    | None -> ()
    | Some (_, `Wr) ->
      let w, _ = Queue.pop st.rw_queue in
      st.rw_writer <- Some w;
      t.wake ~tid:w ~at
    | Some (_, `Rd) ->
      let rec run () =
        match Queue.peek_opt st.rw_queue with
        | Some (r, `Rd) ->
          ignore (Queue.pop st.rw_queue);
          st.rw_readers <- r :: st.rw_readers;
          t.wake ~tid:r ~at;
          run ()
        | _ -> ()
      in
      run ())
  | _ -> ()

let handle t ~tid ~at (op : Op.t) : Engine.outcome =
  match op with
  | Op.Mutex_create -> fresh t t.mutexes { owner = None; queue = Queue.create () }
  | Op.Cond_create -> fresh t t.conds { cond_waiters = Queue.create () }
  | Op.Barrier_create parties -> fresh t t.barriers { parties; arrived = [] }
  | Op.Rwlock_create ->
    fresh t t.rwlocks
      { rw_writer = None; rw_readers = []; rw_queue = Queue.create () }
  | Op.Sem_create permits ->
    if permits < 0 then fail t "negative initial permits";
    fresh t t.sems { sem_permits = permits; sem_queue = Queue.create () }
  | Op.Deque_create -> fresh t t.deques { dq_owner = tid; dq_items = [] }
  | Op.Lock m | Op.Lock_timed { mutex = m; timeout = _ } -> (
    (* Queue order is the only time base here: a timed lock behaves as
       an infinite-timeout lock, the conservative pthread_mutex_timedlock
       behaviour under a patient deadline. *)
    let st = find t "mutex" t.mutexes m in
    match st.owner with
    | None ->
      st.owner <- Some tid;
      Done 0
    | Some _ ->
      Queue.add tid st.queue;
      Block)
  | Op.Trylock m -> (
    let st = find t "mutex" t.mutexes m in
    match st.owner with
    | None ->
      st.owner <- Some tid;
      Done 0
    | Some _ -> Done 2 (* busy; these mutexes are never poisoned *))
  | Op.Mutex_heal h ->
    (* Heal dispatches on the handle kind.  Nothing is ever poisoned
       without containment, so this only validates the handle and, for
       a mutex, its holder. *)
    (match Hashtbl.find_opt t.mutexes h with
    | Some st -> if not (holds st tid) then fail t "heal of unheld mutex %d" h
    | None ->
      if
        not
          (Hashtbl.mem t.rwlocks h || Hashtbl.mem t.sems h
          || Hashtbl.mem t.deques h)
      then fail t "heal of unknown handle %d" h);
    Done 0
  | Op.Unlock m ->
    let st = find t "mutex" t.mutexes m in
    if not (holds st tid) then fail t "unlock of unheld mutex %d" m;
    st.owner <- None;
    pass_mutex t st ~at;
    Done 0
  | Op.Cond_wait { cond; mutex } ->
    let st = find t "mutex" t.mutexes mutex in
    if not (holds st tid) then fail t "cond_wait without holding the mutex";
    st.owner <- None;
    pass_mutex t st ~at;
    Queue.add (tid, mutex) (find t "cond" t.conds cond).cond_waiters;
    Block
  | Op.Cond_signal c ->
    (match Queue.take_opt (find t "cond" t.conds c).cond_waiters with
    | None -> ()
    | Some waiter -> reacquire t waiter ~at);
    Done 0
  | Op.Cond_broadcast c ->
    let waiters = (find t "cond" t.conds c).cond_waiters in
    while not (Queue.is_empty waiters) do
      reacquire t (Queue.pop waiters) ~at
    done;
    Done 0
  | Op.Barrier_wait b ->
    let st = find t "barrier" t.barriers b in
    st.arrived <- tid :: st.arrived;
    if List.length st.arrived < st.parties then Block
    else begin
      List.iter (fun w -> if w <> tid then t.wake ~tid:w ~at) st.arrived;
      st.arrived <- [];
      Done 0
    end
  | Op.Rdlock rw -> (
    let st = find t "rwlock" t.rwlocks rw in
    match st.rw_writer with
    | None when Queue.is_empty st.rw_queue ->
      st.rw_readers <- tid :: st.rw_readers;
      Done 0
    | _ ->
      Queue.add (tid, `Rd) st.rw_queue;
      Block)
  | Op.Wrlock rw -> (
    let st = find t "rwlock" t.rwlocks rw in
    match st.rw_writer, st.rw_readers with
    | None, [] when Queue.is_empty st.rw_queue ->
      st.rw_writer <- Some tid;
      Done 0
    | _ ->
      Queue.add (tid, `Wr) st.rw_queue;
      Block)
  | Op.Rwunlock rw ->
    let st = find t "rwlock" t.rwlocks rw in
    (match st.rw_writer with
    | Some w when w = tid -> st.rw_writer <- None
    | _ ->
      if List.mem tid st.rw_readers then
        st.rw_readers <- List.filter (fun r -> r <> tid) st.rw_readers
      else fail t "rwunlock of unheld %d" rw);
    admit_rw t st ~at;
    Done 0
  | Op.Sem_acquire s ->
    let st = find t "semaphore" t.sems s in
    if st.sem_permits > 0 then begin
      st.sem_permits <- st.sem_permits - 1;
      Done 0
    end
    else begin
      Queue.add tid st.sem_queue;
      Block
    end
  | Op.Sem_post s ->
    let st = find t "semaphore" t.sems s in
    (match Queue.take_opt st.sem_queue with
    | Some w -> t.wake ~tid:w ~at
    | None -> st.sem_permits <- st.sem_permits + 1);
    Done 0
  | Op.Deque_push { deque; value } ->
    let st = find t "deque" t.deques deque in
    if st.dq_owner <> tid then fail t "push into deque %d by non-owner" deque;
    let seq = t.push_seq in
    t.push_seq <- seq + 1;
    st.dq_items <- st.dq_items @ [ (value, seq) ];
    Done 0
  | Op.Deque_pop dq -> (
    let st = find t "deque" t.deques dq in
    if st.dq_owner <> tid then fail t "pop from deque %d by non-owner" dq;
    match List.rev st.dq_items with
    | [] -> Done (-1)
    | (v, _) :: rest ->
      st.dq_items <- List.rev rest;
      Done v)
  | Op.Deque_steal own -> (
    (* Steal the globally oldest item (lowest push sequence number),
       excluding the thief's own deque. *)
    let victim =
      Hashtbl.fold
        (fun h st best ->
          if h = own then best
          else
            match st.dq_items, best with
            | [], _ -> best
            | (_, seq) :: _, Some (_, best_seq) when best_seq <= seq -> best
            | (_, seq) :: _, _ -> Some (st, seq))
        t.deques None
    in
    match victim with
    | Some (({ dq_items = (v, _) :: rest; _ } as st), _) ->
      st.dq_items <- rest;
      Done v
    | Some _ | None -> Done (-1))
  | Op.Load _ | Op.Store _ | Op.Atomic _ | Op.Spawn _ | Op.Join _ | Op.Tick _
  | Op.Output _ | Op.Self | Op.Yield | Op.Checkpoint _ | Op.Server_mark _
  | Op.Span _ | Op.Malloc _ | Op.Free _ ->
    invalid_arg "Fifo_sync.handle: not a synchronization primitive"
