(** Deterministic recovery manager: thread restart, deadlock victims,
    and the retry/backoff policy (see DESIGN.md section 11).

    [manage] wraps a runtime's [Engine.policy] so that, under
    [Engine.Recover], a crashed thread with a registered restart
    closure is resurrected instead of contained: its open slice is
    discarded ([prepare_restart]), its synchronization state gets the
    same repair as containment minus the three contain-only steps
    ([Sync.on_thread_crash ~restart:true]: joiners keep waiting,
    barriers stay whole), and the same tid re-runs the closure after a
    deterministic exponential backoff charged in simulated cycles.
    Outputs emitted after the restart point are truncated so the replay
    re-emits them — a restartable workload's recovered run reproduces
    the fault-free [Engine.outputs_checksum].

    Everything here is a pure function of (seed, fault plan, program):
    restart order, backoff delays and deadlock-victim choice contain no
    wall-clock or scheduling-jitter dependence. *)

exception Deadlock_victim
(** The exception a deadlock victim is crashed with. *)

type config = {
  max_restarts : int;  (** per-thread retry budget (default 3) *)
  backoff_base : int;
      (** first-attempt backoff in simulated cycles; doubles per
          attempt (default 1000) *)
  seed : int64;  (** keys the per-(tid, attempt) backoff jitter *)
}

val default_config : config

val manage :
  ?config:config ->
  Rfdet_sim.Engine.t ->
  sync:Rfdet_kendo.Sync.t ->
  prepare_restart:(tid:int -> unit) ->
  main:(unit -> unit) ->
  Rfdet_sim.Engine.policy ->
  Rfdet_sim.Engine.policy
(** [manage engine ~sync ~prepare_restart ~main policy] puts the run
    under one recovery manager ([config] defaults to
    [default_config]) and returns the wrapped policy.  Call it once
    per engine, from the policy maker.
    - [sync] is the runtime's Kendo synchronization layer: the manager
      repairs it on a restart and selects deadlock victims from it.
    - [prepare_restart ~tid] is the runtime's memory cleanup for a
      thread about to restart (RFDet: [Rfdet_runtime.crash_recoverable],
      the snapshot rollback of the private view; Kendo shares memory
      and has none).
    - [main] is the main thread's restart closure, from the workload
      start.

    Every spawned thread body is restartable from its entry point, and
    [Api.checkpoint] moves a thread's restart point forward.  A crash
    goes through the restart and retry-budget logic before falling
    back to [policy]'s containment, and the engine's total-stall hook
    crashes the deadlock victim [Sync.deadlock_victim] picks with
    [Deadlock_victim]. *)
