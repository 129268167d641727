module Engine = Rfdet_sim.Engine
module Op = Rfdet_sim.Op
module Sync = Rfdet_kendo.Sync
module Det_rng = Rfdet_util.Det_rng

exception Deadlock_victim

type config = { max_restarts : int; backoff_base : int; seed : int64 }

let default_config = { max_restarts = 3; backoff_base = 1_000; seed = 0x5EEDL }

type registration = { mutable body : unit -> unit; mutable mark : int }

type t = {
  engine : Engine.t;
  config : config;
  sync : Sync.t;
  prepare_restart : tid:int -> unit;
  registry : (int, registration) Hashtbl.t;
  attempts : (int, int) Hashtbl.t;
}

let attempts t ~tid = Option.value (Hashtbl.find_opt t.attempts tid) ~default:0

let emit t ~tid ~action ~target ~attempt ~cycles =
  let obs = Engine.obs t.engine in
  if Rfdet_obs.Sink.enabled obs then
    Rfdet_obs.Sink.emit obs ~tid
      ~time:(Engine.clock t.engine tid)
      (Rfdet_obs.Trace.Recovery { action; target; attempt; cycles })

(* Register (or move) [tid]'s restart closure, recording its current
   output count as the replay mark: outputs emitted after it are
   truncated on restart, so the replay re-emits them. *)
let register t ~tid body =
  let mark = Engine.output_count t.engine tid in
  match Hashtbl.find_opt t.registry tid with
  | Some r ->
    r.body <- body;
    r.mark <- mark
  | None -> Hashtbl.replace t.registry tid { body; mark }

(* Deterministic exponential backoff in simulated cycles: base doubles
   per attempt, plus a jitter term drawn from a generator keyed by
   (seed, tid, attempt) — no global RNG state, so concurrent restarts
   cannot perturb each other's delays. *)
let backoff_cycles t ~tid ~attempt =
  let base = max 1 t.config.backoff_base in
  let expo = base * (1 lsl min attempt 16) in
  let key =
    Int64.logxor t.config.seed
      (Int64.of_int ((tid * 0x9E3779B9) lxor (attempt * 0x85EBCA6B)))
  in
  expo + Det_rng.int (Det_rng.create key) base

let try_restart t ~tid =
  match Hashtbl.find_opt t.registry tid with
  | None -> false
  | Some r ->
    let attempt = attempts t ~tid in
    if attempt >= t.config.max_restarts then false
    else begin
      Hashtbl.replace t.attempts tid (attempt + 1);
      let prof = Engine.profile t.engine in
      (* memory first (discard the open slice, roll the private view
         back to the last release point), then the sync layer (purge
         queues, poison held objects and pass them on, retract barrier
         arrivals) — same order as the containment path *)
      t.prepare_restart ~tid;
      Sync.on_thread_crash t.sync ~tid ~restart:true;
      let backoff = backoff_cycles t ~tid ~attempt in
      prof.restarts <- prof.restarts + 1;
      prof.backoff_cycles <- prof.backoff_cycles + backoff;
      emit t ~tid ~action:"restart" ~target:tid ~attempt:(attempt + 1)
        ~cycles:0;
      emit t ~tid ~action:"backoff" ~target:tid ~attempt:(attempt + 1)
        ~cycles:backoff;
      Sync.on_thread_restarted t.sync ~tid;
      Engine.restart_thread t.engine ~tid ~body:r.body
        ~not_before:(Engine.clock t.engine tid + backoff)
        ~keep_outputs:r.mark;
      true
    end

let on_deadlock t () =
  match Sync.deadlock_victim t.sync with
  | None -> false
  | Some victim ->
    let prof = Engine.profile t.engine in
    prof.deadlock_victims <- prof.deadlock_victims + 1;
    emit t ~tid:victim ~action:"victim" ~target:victim
      ~attempt:(attempts t ~tid:victim + 1)
      ~cycles:0;
    (* crash the victim through the regular fault path: if it is
       restartable it replays (its poisoned locks pass to the other
       cycle members, breaking the cycle); otherwise containment
       applies.  Either way the stall is resolved, satisfying the
       progress contract of [Engine.set_on_deadlock]. *)
    Engine.kill t.engine ~tid:victim Deadlock_victim;
    true

let manage ?(config = default_config) engine ~sync ~prepare_restart ~main
    (policy : Engine.policy) : Engine.policy =
  let t =
    {
      engine;
      config;
      sync;
      prepare_restart;
      registry = Hashtbl.create 8;
      attempts = Hashtbl.create 8;
    }
  in
  register t ~tid:0 main;
  Engine.set_on_deadlock engine (fun () -> on_deadlock t ());
  (* [Api.checkpoint] moves a thread's restart point forward, past
     one-shot prologue work (a start gate, a handshake) that must not
     be replayed into its own post-state. *)
  Engine.set_on_checkpoint engine (fun ~tid body -> register t ~tid body);
  let handle ~tid op =
    match (op : Op.t) with
    | Op.Spawn body ->
      (* every spawned thread is restartable from its entry point by
         default; a checkpoint later moves the restart point forward *)
      let rec wrapped () =
        register t ~tid:(Engine.current_tid engine) wrapped;
        body ()
      in
      policy.handle ~tid (Op.Spawn wrapped)
    | _ -> policy.handle ~tid op
  in
  let on_thread_crash ~tid e =
    if not (try_restart t ~tid) then policy.on_thread_crash ~tid e
  in
  { policy with Engine.handle; on_thread_crash }
