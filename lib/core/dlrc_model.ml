module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op
module Sync = Rfdet_kendo.Sync
module Layout = Rfdet_mem.Layout
module Vclock = Rfdet_util.Vclock

let name = "dlrc-model"

let clock_width = 64

(* A model slice: exact byte writes, in write order. *)
type mslice = {
  s_tid : int;
  s_mods : (int * int) list;  (* (addr, byte value), ascending addr *)
  s_time : Vclock.t;
}

type mstate = {
  tid : int;
  mem : (int, int) Hashtbl.t;  (* byte map: private view of shared region *)
  stack_mem : (int, int) Hashtbl.t;
  time : Vclock.t;
  mutable seen : mslice list;  (* slice pointers, reversed append order *)
  started : (int, int) Hashtbl.t;  (* addr -> value at slice start *)
  mutable final_stamp : Vclock.t option;
  mutable final_seen : mslice list;
}

type t = {
  engine : Engine.t;
  states : (int, mstate) Hashtbl.t;
  last_release : (Sync.obj, int * Vclock.t) Hashtbl.t;
  mutable sync : Sync.t option;
  checked : bool;
      (* assert the Figure-5 redundancy-elimination property on every
         propagation: a slice never enters a seen-list twice *)
  slice_merging : bool;  (* RFDet's merge rule, as [Options.slice_merging] *)
}

exception Propagated_twice of string

let sync_exn t = match t.sync with Some s -> s | None -> assert false

let state t tid =
  match Hashtbl.find_opt t.states tid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "dlrc-model: unknown tid %d" tid)

let read_byte ms addr =
  Option.value (Hashtbl.find_opt ms.mem addr) ~default:0

let write_byte ms addr v =
  (* remember the slice-start value on first touch *)
  if not (Hashtbl.mem ms.started addr) then
    Hashtbl.replace ms.started addr (read_byte ms addr);
  Hashtbl.replace ms.mem addr (v land 0xff)

(* Close the current slice: exact modification list = touched bytes whose
   final value differs from their slice-start value. *)
let close_slice ms =
  let mods =
    Hashtbl.fold
      (fun addr start acc ->
        let now = read_byte ms addr in
        if now <> start then (addr, now) :: acc else acc)
      ms.started []
    |> List.sort compare
  in
  Hashtbl.reset ms.started;
  if mods <> [] then begin
    let s = { s_tid = ms.tid; s_mods = mods; s_time = Vclock.copy ms.time } in
    ms.seen <- s :: ms.seen
  end

(* Figure 5, naively: walk the whole remote list in order.  Only the
   lower-limit filter stands between this full rescan and applying a
   slice twice; with [checked] that is asserted per append (physical
   membership — slices are shared by pointer, as in the runtime). *)
let propagate ~checked ~(from_slices : mslice list) ~(into : mstate) ~upper
    ~lower =
  let in_order = List.rev from_slices in
  List.iter
    (fun s ->
      if Vclock.lt s.s_time upper && not (Vclock.lt s.s_time lower) then begin
        if checked && List.memq s into.seen then
          raise
            (Propagated_twice
               (Printf.sprintf
                  "dlrc-model: slice of tid %d (time %s) propagated twice \
                   into tid %d"
                  s.s_tid
                  (String.concat ","
                     (List.map string_of_int (Vclock.to_list s.s_time)))
                  into.tid));
        List.iter (fun (addr, v) -> Hashtbl.replace into.mem addr v) s.s_mods;
        into.seen <- s :: into.seen
      end)
    in_order

let do_release t ~tid ~obj =
  let ms = state t tid in
  close_slice ms;
  let stamp = Vclock.copy ms.time in
  ignore (Vclock.tick ms.time tid);
  Hashtbl.replace t.last_release obj (tid, stamp)

let do_acquire t ~tid ~obj =
  match Hashtbl.find_opt t.last_release obj with
  | Some (last_tid, _) when last_tid = tid && t.slice_merging ->
    (* Slice merging: re-acquiring what this thread released last keeps
       its slice open — no close, no tick.  A store that restores the
       slice-start value is then published by neither slice. *)
    ()
  | last -> (
    let ms = state t tid in
    close_slice ms;
    let lower = Vclock.copy ms.time in
    ignore (Vclock.tick ms.time tid);
    match last with
    | None -> ()
    | Some (last_tid, last_time) ->
      Vclock.join ms.time last_time;
      if last_tid <> tid then begin
        let upper = Vclock.copy ms.time in
        let from = state t last_tid in
        let from_slices =
          match from.final_stamp with
          | Some _ -> from.final_seen
          | None -> from.seen
        in
        propagate ~checked:t.checked ~from_slices ~into:ms ~upper ~lower
      end)

let do_barrier t ~tids =
  let states = List.map (state t) tids in
  List.iter close_slice states;
  let joint = Vclock.create clock_width in
  List.iter (fun ms -> Vclock.join joint ms.time) states;
  let sorted = List.sort compare tids in
  let leader = state t (List.hd sorted) in
  let lower = Vclock.copy leader.time in
  Vclock.join leader.time joint;
  ignore (Vclock.tick leader.time leader.tid);
  let upper = Vclock.copy leader.time in
  List.iter
    (fun tid ->
      if tid <> leader.tid then
        propagate ~checked:t.checked ~from_slices:(state t tid).seen ~into:leader ~upper ~lower)
    sorted;
  List.iter
    (fun ms ->
      if ms.tid <> leader.tid then begin
        Hashtbl.reset ms.mem;
        Hashtbl.iter (fun a v -> Hashtbl.replace ms.mem a v) leader.mem;
        ms.seen <- leader.seen;
        Vclock.join ms.time joint;
        ignore (Vclock.tick ms.time ms.tid)
      end)
    states

let do_spawned t ~parent ~child =
  let ps = state t parent in
  close_slice ps;
  let stamp = Vclock.copy ps.time in
  ignore (Vclock.tick ps.time parent);
  let time = Vclock.copy stamp in
  ignore (Vclock.tick time child);
  let mem = Hashtbl.copy ps.mem in
  Hashtbl.replace t.states child
    {
      tid = child;
      mem;
      stack_mem = Hashtbl.create 16;
      time;
      seen = ps.seen;
      started = Hashtbl.create 16;
      final_stamp = None;
      final_seen = [];
    }

let do_exited t ~tid =
  let ms = state t tid in
  close_slice ms;
  ms.final_stamp <- Some (Vclock.copy ms.time);
  ms.final_seen <- ms.seen;
  ignore (Vclock.tick ms.time tid)

let do_joined t ~tid ~target =
  let ms = state t tid in
  let tg = state t target in
  close_slice ms;
  let lower = Vclock.copy ms.time in
  ignore (Vclock.tick ms.time tid);
  (match tg.final_stamp with
  | Some f -> Vclock.join ms.time f
  | None -> invalid_arg "dlrc-model: join before exit");
  let upper = Vclock.copy ms.time in
  propagate ~checked:t.checked ~from_slices:tg.final_seen ~into:ms ~upper ~lower

let handle t ~tid (op : Op.t) : Engine.outcome =
  let sync = sync_exn t in
  let c = Engine.cost t.engine in
  let ms = state t tid in
  match op with
  | Op.Load { addr; width } ->
    Engine.advance t.engine tid c.Cost.load;
    let mem = if Layout.is_stack addr then ms.stack_mem else ms.mem in
    let byte a = Option.value (Hashtbl.find_opt mem a) ~default:0 in
    let v =
      match width with
      | Op.W8 -> byte addr
      | Op.W64 ->
        let acc = ref 0 in
        for i = 7 downto 0 do
          acc := (!acc lsl 8) lor byte (addr + i)
        done;
        !acc
    in
    Done v
  | Op.Store { addr; value; width } ->
    Engine.advance t.engine tid c.Cost.store;
    (if Layout.is_stack addr then
       match width with
       | Op.W8 -> Hashtbl.replace ms.stack_mem addr (value land 0xff)
       | Op.W64 ->
         for i = 0 to 7 do
           Hashtbl.replace ms.stack_mem (addr + i) ((value asr (8 * i)) land 0xff)
         done
     else
       match width with
       | Op.W8 -> write_byte ms addr value
       | Op.W64 ->
         for i = 0 to 7 do
           write_byte ms (addr + i) ((value asr (8 * i)) land 0xff)
         done);
    Done 0
  | Op.Atomic { addr; rmw } ->
    Sync.rmw sync ~tid ~action:(fun ~now:_ ->
        let obj = Sync.Atomic_obj addr in
        do_acquire t ~tid ~obj;
        let byte a = Option.value (Hashtbl.find_opt ms.mem a) ~default:0 in
        let current = ref 0 in
        for i = 7 downto 0 do
          current := (!current lsl 8) lor byte (addr + i)
        done;
        let prev, next = Op.apply_rmw rmw ~current:!current in
        for i = 0 to 7 do
          write_byte ms (addr + i) ((next asr (8 * i)) land 0xff)
        done;
        do_release t ~tid ~obj;
        (prev, 0))
  | op -> Sync.handle sync ~tid op

let make_gen ~checked ~slice_merging engine : Engine.policy =
  let t =
    {
      engine;
      states = Hashtbl.create 8;
      last_release = Hashtbl.create 32;
      sync = None;
      checked;
      slice_merging;
    }
  in
  Hashtbl.replace t.states 0
    {
      tid = 0;
      mem = Hashtbl.create 64;
      stack_mem = Hashtbl.create 16;
      time = Vclock.create clock_width;
      seen = [];
      started = Hashtbl.create 16;
      final_stamp = None;
      final_seen = [];
    };
  let hooks =
    {
      Sync.acquire = (fun ~tid ~obj ~now:_ -> do_acquire t ~tid ~obj; 0);
      release = (fun ~tid ~obj ~now:_ -> do_release t ~tid ~obj; 0);
      barrier_all = (fun ~tids ~barrier:_ ~now:_ -> do_barrier t ~tids; 0);
      spawned = (fun ~parent ~child ~now:_ -> do_spawned t ~parent ~child);
      exited = (fun ~tid -> do_exited t ~tid);
      joined = (fun ~tid ~target ~now:_ -> do_joined t ~tid ~target; 0);
    }
  in
  let sync = Sync.create engine hooks in
  t.sync <- Some sync;
  {
    Engine.policy_name = name;
    handle = (fun ~tid op -> handle t ~tid op);
    on_engine_op = (fun ~tid:_ _ outcome -> outcome);
    on_thread_exit = (fun ~tid -> Sync.on_thread_exit sync ~tid);
    on_thread_crash = Engine.escalate_crash;
    on_step = (fun () -> Sync.poll sync);
    on_finish = (fun () -> ());
  }

let make_with ~slice_merging engine =
  make_gen ~checked:false ~slice_merging engine

let make engine = make_with ~slice_merging:false engine

let make_checked engine = make_gen ~checked:true ~slice_merging:false engine
