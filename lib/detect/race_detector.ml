module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op
module Sync = Rfdet_kendo.Sync
module Space = Rfdet_mem.Space
module Layout = Rfdet_mem.Layout
module Vclock = Rfdet_util.Vclock

type kind = Write_write | Read_write | Write_read

type race = { addr : int; kind : kind; prior_tid : int; racing_tid : int }

let kind_to_string = function
  | Write_write -> "write-write"
  | Read_write -> "read-write"
  | Write_read -> "write-read"

type report = {
  races : race list;
  racy_addresses : int;
  accesses_checked : int;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%d racy address(es), %d race pair(s), %d accesses checked"
    r.racy_addresses (List.length r.races) r.accesses_checked;
  List.iteri
    (fun i race ->
      if i < 16 then
        Format.fprintf ppf "@ %#x: %s (tid %d vs tid %d)" race.addr
          (kind_to_string race.kind) race.prior_tid race.racing_tid)
    r.races;
  Format.fprintf ppf "@]"

let clock_width = 64

(* FastTrack-style access metadata: epochs (tid, count) for writes, an
   epoch per reader tid for reads.  Epoch (t, c) happens-before thread
   T's current clock iff clock(T)[t] >= c. *)
type access = {
  mutable write : (int * int) option;
  reads : (int, int) Hashtbl.t;
}

type tclock = { tid : int; time : Vclock.t }

type t = {
  engine : Engine.t;
  space : Space.t;  (* shared memory: detection needs no isolation *)
  clocks : (int, tclock) Hashtbl.t;
  accesses : (int, access) Hashtbl.t;  (* keyed by accessed address *)
  last_release : (Sync.obj, Vclock.t) Hashtbl.t;
  final : (int, Vclock.t) Hashtbl.t;  (* exited threads *)
  mutable races_rev : race list;
  seen_races : (int * kind, unit) Hashtbl.t;
  mutable checked : int;
  mutable sync : Sync.t option;
}

let sync_exn t = match t.sync with Some s -> s | None -> assert false

let clock t tid =
  match Hashtbl.find_opt t.clocks tid with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "race_detector: unknown tid %d" tid)

let access_of t addr =
  match Hashtbl.find_opt t.accesses addr with
  | Some a -> a
  | None ->
    let a = { write = None; reads = Hashtbl.create 2 } in
    Hashtbl.replace t.accesses addr a;
    a

let report_race t ~addr ~kind ~prior_tid ~racing_tid =
  if not (Hashtbl.mem t.seen_races (addr, kind)) then begin
    Hashtbl.replace t.seen_races (addr, kind) ();
    t.races_rev <- { addr; kind; prior_tid; racing_tid } :: t.races_rev
  end

let epoch_hb (etid, ecount) time = Vclock.get time etid >= ecount

let on_read t ~tid ~addr =
  if Layout.is_shared addr then begin
    t.checked <- t.checked + 1;
    let tc = clock t tid in
    let a = access_of t addr in
    (match a.write with
    | Some ((wtid, _) as epoch) when wtid <> tid && not (epoch_hb epoch tc.time)
      ->
      report_race t ~addr ~kind:Write_read ~prior_tid:wtid ~racing_tid:tid
    | Some _ | None -> ());
    Hashtbl.replace a.reads tid (Vclock.get tc.time tid)
  end

let on_write t ~tid ~addr =
  if Layout.is_shared addr then begin
    t.checked <- t.checked + 1;
    let tc = clock t tid in
    let a = access_of t addr in
    (match a.write with
    | Some ((wtid, _) as epoch) when wtid <> tid && not (epoch_hb epoch tc.time)
      ->
      report_race t ~addr ~kind:Write_write ~prior_tid:wtid ~racing_tid:tid
    | Some _ | None -> ());
    Hashtbl.iter
      (fun rtid rcount ->
        if rtid <> tid && not (epoch_hb (rtid, rcount) tc.time) then
          report_race t ~addr ~kind:Read_write ~prior_tid:rtid ~racing_tid:tid)
      a.reads;
    a.write <- Some (tid, Vclock.get tc.time tid);
    Hashtbl.reset a.reads
  end

(* --- the RFDet clock discipline over the Kendo sync layer ------------- *)

let do_release t ~tid ~obj =
  let tc = clock t tid in
  let stamp = Vclock.copy tc.time in
  ignore (Vclock.tick tc.time tid);
  Hashtbl.replace t.last_release obj stamp

let do_acquire t ~tid ~obj =
  let tc = clock t tid in
  ignore (Vclock.tick tc.time tid);
  match Hashtbl.find_opt t.last_release obj with
  | Some stamp -> Vclock.join tc.time stamp
  | None -> ()

let do_barrier t ~tids =
  let joint = Vclock.create clock_width in
  List.iter (fun tid -> Vclock.join joint (clock t tid).time) tids;
  List.iter
    (fun tid ->
      let tc = clock t tid in
      Vclock.join tc.time joint;
      ignore (Vclock.tick tc.time tid))
    tids

let do_spawned t ~parent ~child =
  let pc = clock t parent in
  let stamp = Vclock.copy pc.time in
  ignore (Vclock.tick pc.time parent);
  let time = Vclock.copy stamp in
  ignore (Vclock.tick time child);
  Hashtbl.replace t.clocks child { tid = child; time }

let do_exited t ~tid =
  let tc = clock t tid in
  Hashtbl.replace t.final tid (Vclock.copy tc.time);
  ignore (Vclock.tick tc.time tid)

let do_joined t ~tid ~target =
  let tc = clock t tid in
  ignore (Vclock.tick tc.time tid);
  match Hashtbl.find_opt t.final target with
  | Some f -> Vclock.join tc.time f
  | None -> invalid_arg "race_detector: join before exit"

let handle t ~tid (op : Op.t) : Engine.outcome =
  let sync = sync_exn t in
  let c = Engine.cost t.engine in
  match op with
  | Op.Load { addr; width } ->
    Engine.advance t.engine tid c.Cost.load;
    on_read t ~tid ~addr;
    let v =
      match width with
      | Op.W8 -> Space.load_byte t.space addr
      | Op.W64 -> Space.load_int t.space addr
    in
    Done v
  | Op.Store { addr; value; width } ->
    Engine.advance t.engine tid c.Cost.store;
    on_write t ~tid ~addr;
    (match width with
    | Op.W8 -> Space.store_byte t.space addr value
    | Op.W64 -> Space.store_int t.space addr value);
    Done 0
  | Op.Atomic { addr; rmw } ->
    (* synchronization, never a race; acquire + release on the address *)
    Sync.rmw sync ~tid ~action:(fun ~now:_ ->
        let obj = Sync.Atomic_obj addr in
        do_acquire t ~tid ~obj;
        let current = Space.load_int t.space addr in
        let prev, next = Op.apply_rmw rmw ~current in
        Space.store_int t.space addr next;
        do_release t ~tid ~obj;
        (prev, 0))
  | op -> Sync.handle sync ~tid op

let make engine =
  let t =
    {
      engine;
      space = Space.create ();
      clocks = Hashtbl.create 8;
      accesses = Hashtbl.create 1024;
      last_release = Hashtbl.create 32;
      final = Hashtbl.create 8;
      races_rev = [];
      seen_races = Hashtbl.create 16;
      checked = 0;
      sync = None;
    }
  in
  Hashtbl.replace t.clocks 0 { tid = 0; time = Vclock.create clock_width };
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
  let policy =
    {
      Engine.policy_name = "race-detector";
      handle = (fun ~tid op -> handle t ~tid op);
      on_engine_op = (fun ~tid:_ _ outcome -> outcome);
      on_thread_exit = (fun ~tid -> Sync.on_thread_exit sync ~tid);
      on_thread_crash = Engine.escalate_crash;
      on_step = (fun () -> Sync.poll sync);
      on_finish = (fun () -> ());
    }
  in
  let report () =
    {
      races = List.rev t.races_rev;
      racy_addresses =
        List.length
          (List.sort_uniq compare (List.map (fun r -> r.addr) t.races_rev));
      accesses_checked = t.checked;
    }
  in
  (policy, report)

let canonical_lines report =
  report.races
  |> List.map (fun r ->
         Printf.sprintf "addr=0x%x kind=%s prior=%d racing=%d" r.addr
           (kind_to_string r.kind) r.prior_tid r.racing_tid)
  |> List.sort String.compare

(* The digest deliberately covers only the racy-address set.  Which
   *pairs* get witnessed depends on the interleaving (the per-address
   access history keeps the last write plus reads-since, so an
   intervening ordered access can mask a pair one schedule exposes and
   another hides), but whether an address races at all does not. *)
let digest report =
  let addrs =
    report.races
    |> List.map (fun r -> r.addr)
    |> List.sort_uniq compare
    |> List.map (Printf.sprintf "0x%x")
  in
  Printf.sprintf "%d:%s" (List.length addrs)
    (Digest.to_hex (Digest.string (String.concat "\n" addrs)))

let recorder () =
  let report = ref (fun () -> invalid_arg "Race_detector.recorder: no run") in
  let make engine =
    let policy, rep = make engine in
    report := rep;
    policy
  in
  (make, fun () -> !report ())
