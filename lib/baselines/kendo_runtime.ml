module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op
module Space = Rfdet_mem.Space
module Page = Rfdet_mem.Page
module Sync = Rfdet_kendo.Sync

let name = "kendo"

type t = { engine : Engine.t; space : Space.t; sync : Sync.t }

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
    Sync.rmw t.sync ~tid ~action:(fun ~now:_ ->
        let current = Space.load_int t.space addr in
        let prev, next = Op.apply_rmw rmw ~current in
        Space.store_int t.space addr next;
        (prev, 0))
  | op -> Sync.handle t.sync ~tid op

let on_finish t () =
  let prof = Engine.profile t.engine in
  let shared = ref 0 in
  Space.iter_pages t.space ~f:(fun id ->
      if Rfdet_mem.Layout.is_shared (Page.base_of_id id) then incr shared);
  prof.shared_bytes <- !shared * Page.size;
  prof.stack_bytes <- Engine.thread_count t.engine * 8192

let make_with_sync engine : Sync.t * Engine.policy =
  let t =
    {
      engine;
      space = Space.create ();
      sync = Sync.create engine Sync.trivial_hooks;
    }
  in
  ( t.sync,
    {
      Engine.policy_name = name;
      handle = (fun ~tid op -> handle t ~tid op);
      on_engine_op = (fun ~tid:_ _ outcome -> outcome);
      on_thread_exit = (fun ~tid -> Sync.on_thread_exit t.sync ~tid);
      (* Weak determinism shares memory directly, so a crashed thread has
         no private state to discard — the sync-layer repair (poisoned
         mutexes, broken barriers, failed joiners) is the whole story. *)
      on_thread_crash =
        (fun ~tid _exn -> Sync.on_thread_crash t.sync ~tid ~restart:false);
      on_step = (fun () -> Sync.poll t.sync);
      on_finish = (fun () -> on_finish t ());
    } )

let make engine : Engine.policy = snd (make_with_sync engine)
