module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Kendo_rt = Rfdet_baselines.Kendo_runtime
module Arbiter = Rfdet_kendo.Arbiter

let run ?config main = Engine.run ?config Kendo_rt.make ~main

let with_seed seed jitter =
  { Engine.default_config with seed; jitter_mean = jitter }

let test_lock_counter () =
  let r =
    run (fun () ->
        let addr = Layout.globals_base in
        let m = Api.mutex_create () in
        let body () =
          for _ = 1 to 25 do
            Api.with_lock m (fun () -> Api.store addr (Api.load addr + 1))
          done
        in
        let c1 = Api.spawn body and c2 = Api.spawn body in
        Api.join c1;
        Api.join c2;
        Api.output_int (Api.load addr))
  in
  Alcotest.(check bool) "counter correct" true (r.Engine.outputs = [ (0, 50L) ])

let test_deterministic_across_seeds () =
  (* Race-free program whose *order-sensitive* result is observed: each
     thread appends its tid to a shared log under a lock.  Kendo must
     produce the same log for every scheduler seed. *)
  let program () =
    let log_len = Layout.globals_base in
    let log = Layout.globals_base + 8 in
    let m = Api.mutex_create () in
    let body k () =
      for _ = 1 to 10 do
        Api.tick (50 * k);
        Api.with_lock m (fun () ->
            let n = Api.load log_len in
            Api.store (log + (8 * n)) (Api.self ());
            Api.store log_len (n + 1))
      done
    in
    let c1 = Api.spawn (body 1) and c2 = Api.spawn (body 3) in
    let c3 = Api.spawn (body 7) in
    Api.join c1;
    Api.join c2;
    Api.join c3;
    let n = Api.load log_len in
    for i = 0 to n - 1 do
      Api.output_int (Api.load (log + (8 * i)))
    done
  in
  let sig_of seed = Engine.output_signature (run ~config:(with_seed seed 10.) program) in
  let s1 = sig_of 1L in
  for i = 2 to 8 do
    Alcotest.(check string) "same log across seeds" s1 (sig_of (Int64.of_int i))
  done

let test_grant_order_by_icount () =
  (* Two threads request the same lock; the one with fewer executed
     instructions wins regardless of simulated-time arrival. *)
  let r =
    run (fun () ->
        let addr = Layout.globals_base in
        let m = Api.mutex_create () in
        let slow =
          Api.spawn (fun () ->
              Api.tick 10_000;
              (* high icount *)
              Api.with_lock m (fun () -> Api.store addr (Api.load addr + 1));
              Api.output_int 100)
        in
        let fast =
          Api.spawn (fun () ->
              Api.tick 10;
              (* low icount: must acquire first *)
              Api.with_lock m (fun () ->
                  Api.output_int (Api.load addr);
                  Api.store addr (Api.load addr + 1)))
        in
        Api.join slow;
        Api.join fast)
  in
  (* fast (tid 2) observed addr before slow's increment -> saw 0 *)
  Alcotest.(check bool) "low-icount thread acquired first" true
    (List.mem (2, 0L) r.Engine.outputs)

let test_cond_deterministic_wakeup () =
  (* Three waiters, one broadcast: wakeup order (hence the order of log
     appends) must be identical across seeds. *)
  let program () =
    let flag = Layout.globals_base in
    let log_len = Layout.globals_base + 8 in
    let log = Layout.globals_base + 16 in
    let m = Api.mutex_create () in
    let c = Api.cond_create () in
    let waiter k () =
      Api.tick (13 * k);
      Api.lock m;
      while Api.load flag = 0 do
        Api.cond_wait c m
      done;
      let n = Api.load log_len in
      Api.store (log + (8 * n)) (Api.self ());
      Api.store log_len (n + 1);
      Api.unlock m
    in
    let ws = List.map (fun k -> Api.spawn (waiter k)) [ 1; 2; 3 ] in
    Api.tick 5_000;
    Api.lock m;
    Api.store flag 1;
    Api.cond_broadcast c;
    Api.unlock m;
    List.iter Api.join ws;
    let n = Api.load log_len in
    for i = 0 to n - 1 do
      Api.output_int (Api.load (log + (8 * i)))
    done
  in
  let sig_of seed =
    Engine.output_signature (run ~config:(with_seed seed 12.) program)
  in
  let s1 = sig_of 100L in
  for i = 101 to 105 do
    Alcotest.(check string) "same wakeup order" s1 (sig_of (Int64.of_int i))
  done

let test_barrier_releases_all () =
  let r =
    run (fun () ->
        let b = Api.barrier_create 2 in
        let c =
          Api.spawn (fun () ->
              Api.barrier_wait b;
              Api.output_int 7)
        in
        Api.tick 1_000;
        Api.barrier_wait b;
        Api.output_int 9;
        Api.join c)
  in
  Alcotest.(check int) "both passed" 2 (List.length r.Engine.outputs)

let test_spawn_inherits_icount () =
  (* A child created late must not stall other threads' Kendo turns: its
     icount is seeded from the parent's, so it is already "past" earlier
     synchronization stamps. *)
  let r =
    run (fun () ->
        let m = Api.mutex_create () in
        Api.tick 50_000;
        let child =
          Api.spawn (fun () -> Api.with_lock m (fun () -> Api.output_int 1))
        in
        Api.with_lock m (fun () -> Api.output_int 2);
        Api.join child)
  in
  Alcotest.(check int) "completed" 2 (List.length r.Engine.outputs)

let test_arbiter_unit () =
  (* Drive the arbiter directly through a minimal engine run. *)
  let result =
    Engine.run
      (fun engine ->
        let arb = Arbiter.create engine in
        Arbiter.thread_started arb ~tid:0;
        let granted = ref [] in
        {
          Engine.policy_name = "arbiter-test";
          handle =
            (fun ~tid op ->
              match op with
              | Rfdet_sim.Op.Lock _ ->
                Arbiter.request arb ~tid ~grant:(fun ~now ->
                    granted := (tid, now) :: !granted;
                    Arbiter.set_active arb ~tid;
                    Engine.wake engine ~tid ~value:0 ~not_before:now);
                Engine.Block
              | Rfdet_sim.Op.Output _ | _ -> Engine.Done 0)
          ;
          on_engine_op = (fun ~tid:_ _ outcome -> outcome);
          on_thread_exit = (fun ~tid -> Arbiter.thread_finished arb ~tid);
          on_thread_crash = Engine.escalate_crash;
          on_step = (fun () -> Arbiter.poll arb);
          on_finish = (fun () -> ());
        })
      ~main:(fun () ->
        Api.lock (Api.Handle.mutex_of_int 1);
        Api.lock (Api.Handle.mutex_of_int 1))
  in
  Alcotest.(check int) "ran to completion" 1 result.Engine.threads

(* --- the arbiter against its fold-based reference ---------------------

   [Model] is the arbiter as it was before the min-stamp and blocker
   caches: every poll folds over all threads with polymorphic stamp
   compares.  It is kept as the reference for the cached arbiter, the
   same way [Diff.diff_page_bytewise] is kept for [Diff.diff_page]. *)

module Model = struct
  type pending_req = {
    stamp : int * int;
    asked_at : int;
    grant : now:int -> unit;
  }

  type state = Active | Inactive | Pending of pending_req

  type timer = { tm_stamp : int * int; tm_fire : now:int -> unit }

  type t = {
    engine : Engine.t;
    states : (int, state) Hashtbl.t;
    timers : (int, timer) Hashtbl.t;
  }

  let create engine =
    { engine; states = Hashtbl.create 16; timers = Hashtbl.create 4 }

  let thread_started t ~tid = Hashtbl.replace t.states tid Active

  let thread_finished t ~tid =
    Hashtbl.remove t.states tid;
    Hashtbl.remove t.timers tid

  let add_timer t ~tid ~deadline ~fire =
    Hashtbl.replace t.timers tid { tm_stamp = (deadline, tid); tm_fire = fire }

  let cancel_timer t ~tid = Hashtbl.remove t.timers tid

  let set_inactive t ~tid = Hashtbl.replace t.states tid Inactive

  let set_active t ~tid = Hashtbl.replace t.states tid Active

  let is_active t ~tid =
    match Hashtbl.find_opt t.states tid with Some Active -> true | _ -> false

  let request t ~tid ~grant =
    (match Hashtbl.find_opt t.states tid with
    | Some Active -> ()
    | Some (Pending _) -> invalid_arg "Arbiter.request: already pending"
    | Some Inactive | None -> invalid_arg "Arbiter.request: thread not active");
    let stamp = (Engine.icount t.engine tid, tid) in
    let asked_at = Engine.clock t.engine tid in
    Hashtbl.replace t.states tid (Pending { stamp; asked_at; grant })

  let reservation_rank t ~tid =
    match Hashtbl.find_opt t.states tid with
    | Some (Pending { stamp; _ }) ->
      Hashtbl.fold
        (fun tid' st acc ->
          match st with
          | Pending { stamp = stamp'; _ } when tid' <> tid && stamp' < stamp ->
            acc + 1
          | Pending _ | Active | Inactive -> acc)
        t.states 0
    | Some (Active | Inactive) | None -> 0

  let min_pending t =
    Hashtbl.fold
      (fun tid st acc ->
        match st, acc with
        | Pending p, None -> Some (tid, p)
        | Pending p, Some (_, best) when p.stamp < best.stamp -> Some (tid, p)
        | _ -> acc)
      t.states None

  let grantable t tid stamp =
    Hashtbl.fold
      (fun tid' st ok ->
        ok
        &&
        match st with
        | Active when tid' <> tid -> (Engine.icount t.engine tid', tid') > stamp
        | Active | Inactive | Pending _ -> true)
      t.states true

  let crossing_time t tid c ~floor =
    Hashtbl.fold
      (fun tid' st acc ->
        match st with
        | Active when tid' <> tid ->
          max acc
            (Engine.clock t.engine tid' - max 0 (Engine.icount t.engine tid' - c))
        | Active | Inactive | Pending _ -> acc)
      t.states floor

  let min_timer t =
    Hashtbl.fold
      (fun tid tm acc ->
        match acc with
        | None -> Some (tid, tm)
        | Some (_, best) when tm.tm_stamp < best.tm_stamp -> Some (tid, tm)
        | Some _ -> acc)
      t.timers None

  let rec poll t =
    let next =
      match min_pending t, min_timer t with
      | None, None -> None
      | Some (tid, p), None -> Some (`Req (tid, p))
      | None, Some (tid, tm) -> Some (`Timer (tid, tm))
      | Some (rtid, p), Some (ttid, tm) ->
        if p.stamp <= tm.tm_stamp then Some (`Req (rtid, p))
        else Some (`Timer (ttid, tm))
    in
    match next with
    | None -> ()
    | Some (`Req (tid, p)) ->
      if grantable t tid p.stamp then begin
        Hashtbl.replace t.states tid Active;
        let c, _ = p.stamp in
        let now = crossing_time t tid c ~floor:(Engine.clock t.engine tid) in
        if now > p.asked_at then begin
          let prof = Engine.profile t.engine in
          prof.kendo_waits <- prof.kendo_waits + 1
        end;
        p.grant ~now;
        poll t
      end
    | Some (`Timer (tid, tm)) ->
      if grantable t tid tm.tm_stamp then begin
        Hashtbl.remove t.timers tid;
        let c, _ = tm.tm_stamp in
        let now = crossing_time t tid c ~floor:(Engine.clock t.engine tid) in
        tm.tm_fire ~now;
        poll t
      end

  let pending_count t =
    Hashtbl.fold
      (fun _ st acc -> match st with Pending _ -> acc + 1 | Active | Inactive -> acc)
      t.states 0
end

(* What the lockstep comparison drives: the model and the real arbiter
   both match this signature. *)
module type ARBITER = sig
  type t

  val create : Engine.t -> t
  val thread_started : t -> tid:int -> unit
  val thread_finished : t -> tid:int -> unit
  val set_inactive : t -> tid:int -> unit
  val set_active : t -> tid:int -> unit
  val is_active : t -> tid:int -> bool
  val request : t -> tid:int -> grant:(now:int -> unit) -> unit
  val reservation_rank : t -> tid:int -> int
  val add_timer : t -> tid:int -> deadline:int -> fire:(now:int -> unit) -> unit
  val cancel_timer : t -> tid:int -> unit
  val poll : t -> unit
  val pending_count : t -> int
end

(* One side of the comparison: an arbiter, a log of grants and timer
   fires with their times, and the Kendo-wait count its polls added. *)
type side = {
  log : (string * int * int) list ref;
  waits : int ref;
  apply : int -> int -> int -> unit;  (* kind, tid, arg *)
  poll : unit -> unit;
  pending : unit -> int;
  rank : int -> int;
  active : int -> bool;
}

let make_side (module A : ARBITER) engine =
  let arb = A.create engine in
  let log = ref [] in
  (* each request grants and each timer fires at most once, so a longer
     log means a poll that never stops: fail instead of growing *)
  let record ev =
    if List.length !log > 1_000 then failwith "arbiter: runaway poll";
    log := ev :: !log
  in
  let apply kind tid arg =
    match kind with
    | 0 -> A.thread_started arb ~tid
    | 1 -> A.thread_finished arb ~tid
    | 2 -> A.set_inactive arb ~tid
    | 3 -> A.set_active arb ~tid
    | 4 ->
      (* an odd arg makes the grantee block right away, as a contended
         lock does: a state change from inside the poll *)
      A.request arb ~tid ~grant:(fun ~now ->
          record ("grant", tid, now);
          if arg land 1 = 1 then A.set_inactive arb ~tid)
    | 5 ->
      A.add_timer arb ~tid ~deadline:(Engine.icount engine tid + arg)
        ~fire:(fun ~now ->
          record ("fire", tid, now);
          A.set_active arb ~tid)
    | _ -> A.cancel_timer arb ~tid
  in
  let waits = ref 0 in
  {
    log;
    waits;
    apply;
    poll =
      (fun () ->
        let prof = Engine.profile engine in
        let before = prof.kendo_waits in
        A.poll arb;
        waits := !waits + prof.kendo_waits - before);
    pending = (fun () -> A.pending_count arb);
    rank = (fun tid -> A.reservation_rank arb ~tid);
    active = (fun tid -> A.is_active arb ~tid);
  }

let outcome f = match f () with () -> "ok" | exception Invalid_argument m -> m

let arbiter_agrees (nthreads, ops) =
  let verdict = ref (Ok ()) in
  let factory engine =
    for _ = 1 to nthreads - 1 do
      ignore (Engine.register_thread engine ~body:(fun () -> ()) ~start_at:0)
    done;
    let model = make_side (module Model) engine
    and real = make_side (module Arbiter) engine in
    let check i what a b =
      if a <> b && !verdict = Ok () then
        verdict := Error (Printf.sprintf "op %d: %s differs" i what)
    in
    List.iteri
      (fun i (kind, who, arg) ->
        let tid = who mod nthreads in
        (* kinds 7-11 advance the thread: icount always, clock too *)
        if kind >= 7 then begin
          Engine.add_icount engine tid (1 + (arg mod 40));
          Engine.advance engine tid (arg mod 100)
        end
        else
          check i "apply outcome"
            (outcome (fun () -> model.apply kind tid (arg mod 60)))
            (outcome (fun () -> real.apply kind tid (arg mod 60)));
        (* most steps end in a poll, as every engine step does; some
           stack several changes before the next one *)
        if arg mod 3 <> 0 then begin
          model.poll ();
          real.poll ()
        end;
        check i "grant/fire log" !(model.log) !(real.log);
        check i "kendo waits" !(model.waits) !(real.waits);
        check i "pending_count" (model.pending ()) (real.pending ());
        for t = 0 to nthreads - 1 do
          check i "reservation_rank" (model.rank t) (real.rank t);
          check i "is_active" (model.active t) (real.active t)
        done)
      ops;
    {
      Engine.policy_name = "arbiter-reference";
      handle = (fun ~tid:_ _ -> Engine.Done 0);
      on_engine_op = (fun ~tid:_ _ outcome -> outcome);
      on_thread_exit = (fun ~tid:_ -> ());
      on_thread_crash = Engine.escalate_crash;
      on_step = (fun () -> ());
      on_finish = (fun () -> ());
    }
  in
  ignore (Engine.run factory ~main:(fun () -> ()));
  match !verdict with
  | Ok () -> true
  | Error e -> QCheck2.Test.fail_report e

let prop_arbiter_matches_model =
  QCheck2.Test.make ~name:"arbiter: cached polls == fold-based reference"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 2 40)
        (list_size (int_range 1 300)
           (triple (int_bound 11) (int_bound 63) (int_bound 999))))
    arbiter_agrees

let suites =
  [
    ( "kendo",
      [
        Alcotest.test_case "lock counter" `Quick test_lock_counter;
        Alcotest.test_case "deterministic across seeds" `Quick
          test_deterministic_across_seeds;
        Alcotest.test_case "grant order by icount" `Quick
          test_grant_order_by_icount;
        Alcotest.test_case "cond deterministic wakeup" `Quick
          test_cond_deterministic_wakeup;
        Alcotest.test_case "barrier releases all" `Quick
          test_barrier_releases_all;
        Alcotest.test_case "spawn inherits icount" `Quick
          test_spawn_inherits_icount;
        Alcotest.test_case "arbiter unit" `Quick test_arbiter_unit;
        QCheck_alcotest.to_alcotest prop_arbiter_matches_model;
      ] );
  ]
