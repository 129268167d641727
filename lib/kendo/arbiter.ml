module Engine = Rfdet_sim.Engine

(* A stamp is the pair (icount, tid), ordered lexicographically.  Every
   comparison below is written out on the two ints: a polymorphic
   compare on the tuple costs a C call per test. *)
let stamp_lt (c : int) (tid : int) c' tid' = c < c' || (c = c' && tid < tid')

let stamp_le (c : int) (tid : int) c' tid' = c < c' || (c = c' && tid <= tid')

type pending_req = {
  icount : int;  (* stamp = (icount at request, tid) *)
  asked_at : int;  (* simulated clock when filed, for stats *)
  grant : now:int -> unit;
}

type state = Active | Inactive | Pending of pending_req

(* A deadline filed alongside the turn requests: fires (at most once)
   when its stamp becomes grantable, i.e. when every other active thread
   is deterministically past the deadline instruction count.  Backs
   [lock_timed]: the expiry point depends only on instruction counts, so
   whether the lock or the timeout wins is jitter-independent. *)
type timer = {
  deadline : int;  (* stamp = (deadline icount, tid) *)
  fire : now:int -> unit;
}

(* The minimal pending request and minimal timer are cached between
   polls; [Stale] forces a rescan.  Every mutation of [states] goes
   through [set_state], and every mutation of [timers] is followed by
   [timers_changed], which is what keeps the caches exact. *)
type 'a cached = Stale | Fresh of 'a

type t = {
  engine : Engine.t;
  states : (int, state) Hashtbl.t;
  timers : (int, timer) Hashtbl.t;  (* at most one per waiting tid *)
  mutable npending : int;
  mutable min_req : (int * pending_req) option cached;
  mutable min_tm : (int * timer) option cached;
  mutable blocker : int;
      (* -1, or an active thread last found at or below the minimal
         stamp: checked first, since it usually still blocks.  Any state
         change of that thread clears it, so it is always active. *)
}

let create engine =
  {
    engine;
    states = Hashtbl.create 16;
    timers = Hashtbl.create 4;
    npending = 0;
    min_req = Stale;
    min_tm = Stale;
    blocker = -1;
  }

let is_pending = function Some (Pending _) -> true | _ -> false

let set_state t tid st =
  let was = Hashtbl.find_opt t.states tid in
  if tid = t.blocker then t.blocker <- -1;
  (match st with
  | Some s -> Hashtbl.replace t.states tid s
  | None -> Hashtbl.remove t.states tid);
  if is_pending was || is_pending st then begin
    if is_pending was then t.npending <- t.npending - 1;
    if is_pending st then t.npending <- t.npending + 1;
    t.min_req <- Stale
  end

let timers_changed t = t.min_tm <- Stale

let thread_started t ~tid = set_state t tid (Some Active)

let thread_finished t ~tid =
  set_state t tid None;
  Hashtbl.remove t.timers tid;
  timers_changed t

let add_timer t ~tid ~deadline ~fire =
  Hashtbl.replace t.timers tid { deadline; fire };
  timers_changed t

let cancel_timer t ~tid =
  Hashtbl.remove t.timers tid;
  timers_changed t

let set_inactive t ~tid = set_state t tid (Some Inactive)

let set_active t ~tid = set_state t tid (Some Active)

let is_active t ~tid =
  match Hashtbl.find_opt t.states tid with
  | Some Active -> true
  | Some (Inactive | Pending _) | None -> false

let request t ~tid ~grant =
  (match Hashtbl.find_opt t.states tid with
  | Some Active -> ()
  | Some (Pending _) -> invalid_arg "Arbiter.request: already pending"
  | Some Inactive | None -> invalid_arg "Arbiter.request: thread not active");
  let icount = Engine.icount t.engine tid in
  let asked_at = Engine.clock t.engine tid in
  set_state t tid (Some (Pending { icount; asked_at; grant }))

let reservation_rank t ~tid =
  match Hashtbl.find_opt t.states tid with
  | Some (Pending p) ->
    Hashtbl.fold
      (fun tid' st acc ->
        match st with
        | Pending p' when tid' <> tid && stamp_lt p'.icount tid' p.icount tid ->
          acc + 1
        | Pending _ | Active | Inactive -> acc)
      t.states 0
  | Some (Active | Inactive) | None -> 0

(* The minimal pending request, if any. *)
let min_pending t =
  match t.min_req with
  | Fresh m -> m
  | Stale ->
    let m =
      Hashtbl.fold
        (fun tid st acc ->
          match st, acc with
          | Pending p, None -> Some (tid, p)
          | Pending p, Some (btid, best)
            when stamp_lt p.icount tid best.icount btid ->
            Some (tid, p)
          | _ -> acc)
        t.states None
    in
    t.min_req <- Fresh m;
    m

let min_timer t =
  match t.min_tm with
  | Fresh m -> m
  | Stale ->
    let m =
      Hashtbl.fold
        (fun tid tm acc ->
          match acc with
          | None -> Some (tid, tm)
          | Some (btid, best) when stamp_lt tm.deadline tid best.deadline btid ->
            Some (tid, tm)
          | Some _ -> acc)
        t.timers None
    in
    t.min_tm <- Fresh m;
    m

(* A request is grantable when every *other active* thread is logically
   past its stamp.  Other pending requests necessarily have larger stamps
   (we only test the minimum), and inactive/finished threads are ignored
   exactly as Kendo ignores blocked threads.  Any one blocker decides the
   answer, so the cached blocker is tried first.  A scan remembers the
   furthest-behind blocker: it is the last to pass the stamp, so it
   stays the witness for the most polls. *)
let grantable t tid c =
  let b = t.blocker in
  if b >= 0 && b <> tid && stamp_le (Engine.icount t.engine b) b c tid then
    false
  else begin
    let behind = ref (-1) and behind_ic = ref max_int in
    Hashtbl.iter
      (fun tid' st ->
        match st with
        | Active when tid' <> tid ->
          let ic = Engine.icount t.engine tid' in
          if stamp_lt ic tid' !behind_ic !behind then begin
            behind := tid';
            behind_ic := ic
          end
        | Active | Inactive | Pending _ -> ())
      t.states;
    if !behind >= 0 && stamp_le !behind_ic !behind c tid then begin
      t.blocker <- !behind;
      false
    end
    else true
  end

(* The turn became available when the last other active thread's
   instruction count passed the stamp.  Instruction counts advance
   in proportion to app cycles, so the crossing moment can be
   interpolated from (clock, icount) instead of being quantized to
   whole-operation completions — without this, one coarse Tick in a
   peer thread would inflate every waiter's grant time. *)
let crossing_time t tid c ~floor =
  Hashtbl.fold
    (fun tid' st acc ->
      match st with
      | Active when tid' <> tid ->
        let crossed =
          Engine.clock t.engine tid'
          - max 0 (Engine.icount t.engine tid' - c)
        in
        max acc crossed
      | Active | Inactive | Pending _ -> acc)
    t.states floor

(* Requests and timers share one deterministic grant order: the globally
   minimal stamp goes first, so a timeout cannot leapfrog a turn that
   deterministically precedes it (or vice versa). *)
let rec poll t =
  match min_pending t, min_timer t with
  | None, None -> ()
  | Some (tid, p), None -> poll_request t tid p
  | None, Some (tid, tm) -> poll_timer t tid tm
  | Some (rtid, p), Some (ttid, tm) ->
    if stamp_le p.icount rtid tm.deadline ttid then poll_request t rtid p
    else poll_timer t ttid tm

and poll_request t tid p =
  if grantable t tid p.icount then begin
    set_state t tid (Some Active);
    let mine = Engine.clock t.engine tid in
    let now = crossing_time t tid p.icount ~floor:mine in
    if now > p.asked_at then begin
      let prof = Engine.profile t.engine in
      prof.kendo_waits <- prof.kendo_waits + 1;
      let obs = Engine.obs t.engine in
      if Rfdet_obs.Sink.enabled obs then
        Rfdet_obs.Sink.emit obs ~tid ~time:p.asked_at
          (Rfdet_obs.Trace.Kendo_wait { cycles = now - p.asked_at })
    end;
    p.grant ~now;
    poll t
  end

and poll_timer t tid tm =
  if grantable t tid tm.deadline then begin
    Hashtbl.remove t.timers tid;
    timers_changed t;
    let now =
      crossing_time t tid tm.deadline ~floor:(Engine.clock t.engine tid)
    in
    tm.fire ~now;
    poll t
  end

let pending_count t = t.npending
