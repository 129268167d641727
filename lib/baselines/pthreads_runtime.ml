module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op
module Space = Rfdet_mem.Space
module Layout = Rfdet_mem.Layout
module Page = Rfdet_mem.Page

let name = "pthreads"

type t = {
  engine : Engine.t;
  space : Space.t;  (* one shared space: stores are visible immediately *)
  prims : Fifo_sync.t;
  joiners : (int, int list) Hashtbl.t;
}

let handle t ~tid (op : Op.t) : Engine.outcome =
  let cost = Engine.cost t.engine in
  match op with
  | Op.Load { addr; width } ->
    Engine.advance t.engine tid cost.Cost.load;
    let v =
      match width with
      | Op.W8 -> Space.load_byte t.space addr
      | Op.W64 -> Space.load_int t.space addr
    in
    Done v
  | Op.Store { addr; value; width } ->
    Engine.advance t.engine tid cost.Cost.store;
    (match width with
    | Op.W8 -> Space.store_byte t.space addr value
    | Op.W64 -> Space.store_int t.space addr value);
    Done 0
  | Op.Atomic { addr; rmw } ->
    Engine.advance t.engine tid cost.Cost.sync_op;
    let current = Space.load_int t.space addr in
    let prev, next = Op.apply_rmw rmw ~current in
    Space.store_int t.space addr next;
    Done prev
  | Op.Spawn body ->
    Engine.advance t.engine tid cost.Cost.spawn;
    let start_at = Engine.clock t.engine tid in
    Done (Engine.register_thread t.engine ~body ~start_at)
  | Op.Join target ->
    Engine.advance t.engine tid cost.Cost.join;
    if Engine.is_finished t.engine target then Done 0
    else begin
      let existing =
        Option.value (Hashtbl.find_opt t.joiners target) ~default:[]
      in
      Hashtbl.replace t.joiners target (existing @ [ tid ]);
      Block
    end
  | op ->
    (* creating an object is free; every other primitive costs one sync
       op, and a barrier also pays its release overhead *)
    (match op with
    | Op.Mutex_create | Op.Cond_create | Op.Barrier_create _ | Op.Rwlock_create
    | Op.Sem_create _ | Op.Deque_create ->
      ()
    | Op.Barrier_wait _ ->
      Engine.advance t.engine tid
        (cost.Cost.sync_op + cost.Cost.barrier_overhead)
    | _ -> Engine.advance t.engine tid cost.Cost.sync_op);
    Fifo_sync.handle t.prims ~tid ~at:(Engine.clock t.engine tid) op

let on_thread_exit t ~tid =
  match Hashtbl.find_opt t.joiners tid with
  | None -> ()
  | Some waiting ->
    Hashtbl.remove t.joiners tid;
    let now = Engine.clock t.engine tid in
    List.iter
      (fun joiner ->
        Engine.wake t.engine ~tid:joiner ~value:0 ~not_before:now)
      waiting

let shared_touched_bytes space =
  let count = ref 0 in
  Space.iter_pages space ~f:(fun id ->
      if Rfdet_mem.Layout.is_shared (Page.base_of_id id) then incr count);
  !count * Page.size

let on_finish t () =
  let prof = Engine.profile t.engine in
  prof.shared_bytes <- shared_touched_bytes t.space;
  prof.stack_bytes <- Engine.thread_count t.engine * 8192;
  prof.metadata_peak_bytes <- 0;
  prof.private_copy_bytes <- 0

let make engine : Engine.policy =
  let t =
    {
      engine;
      space = Space.create ();
      prims =
        Fifo_sync.create ~name ~wake:(fun ~tid ~at ->
            Engine.wake engine ~tid ~value:0 ~not_before:at);
      joiners = Hashtbl.create 8;
    }
  in
  {
    Engine.policy_name = name;
    handle = (fun ~tid op -> handle t ~tid op);
    on_engine_op = (fun ~tid:_ _ outcome -> outcome);
    on_thread_exit = (fun ~tid -> on_thread_exit t ~tid);
    on_thread_crash = Engine.escalate_crash;
    on_step = (fun () -> ());
    on_finish = (fun () -> on_finish t ());
  }
