(** Deterministic POSIX-style synchronization objects on top of the Kendo
    arbiter (paper Section 4.1).

    This layer owns the *internal synchronization variables* of the
    paper: mutexes, condition variables and barriers live in the runtime
    metadata space, are identified by handles, and all state transitions
    execute serially in deterministic-turn order.  The DMT-specific work
    — what happens to memory at acquire and release points — is supplied
    by the client runtime through [hooks]:

    - RFDet's hooks run DLRC memory-modification propagation and stamp
      lastTid/lastTime;
    - the weak-determinism (Kendo-only) runtime passes trivial hooks,
      because its threads share memory directly.

    Acquire operations are lock, cond-wait (on wakeup), thread entry,
    join and barrier; release operations are unlock, signal/broadcast,
    thread create, thread exit and barrier. *)

type obj =
  | Mutex_obj of int
  | Cond_obj of int
  | Barrier_obj of int
  | Thread_obj of int  (** create/exit/join synchronization *)
  | Atomic_obj of int  (** low-level atomic word, keyed by address *)
  | Rwlock_obj of int  (** reader–writer lock (shared or exclusive) *)
  | Sem_obj of int  (** counting semaphore *)
  | Deque_obj of int  (** work-stealing deque (push releases, pop/steal acquire) *)

type hooks = {
  acquire : tid:int -> obj:obj -> now:int -> int;
      (** [tid] passes an acquire point on [obj] at time [now]; returns
          the extra simulated cycles the acquire costs (propagation).
          Runs in deterministic order. *)
  release : tid:int -> obj:obj -> now:int -> int;
      (** [tid] passes a release point (stamp lastTid/lastTime, close the
          slice); returns extra cycles. *)
  barrier_all : tids:int list -> barrier:int -> now:int -> int;
      (** all parties arrived, listed in arrival order; perform the
          deterministic smallest-tid-first merge; returns extra cycles
          applied to every party. *)
  spawned : parent:int -> child:int -> now:int -> unit;
      (** child registered (memory inheritance, vector-clock setup). *)
  exited : tid:int -> unit;
      (** thread body returned: close its final slice. *)
  joined : tid:int -> target:int -> now:int -> int;
      (** [tid]'s join on [target] completes; returns extra cycles. *)
}

val trivial_hooks : hooks
(** All callbacks return 0 / do nothing — weak determinism. *)

type t

val create : Rfdet_sim.Engine.t -> hooks -> t

val handle : t -> tid:int -> Rfdet_sim.Op.t -> Rfdet_sim.Engine.outcome
(** Handle one synchronization operation for the current thread — the
    only [Op] to primitive table of the Kendo runtimes.  Returns the
    [Engine.outcome] the policy should return: turn-taking operations
    block and are completed by the arbiter.  Raises [Invalid_argument]
    for memory ops ([Load], [Store], [Atomic] — see [rmw]) and engine
    ops, which the client runtime handles itself.

    {b Mutexes.}  [Trylock] is a non-blocking acquire: it takes a
    deterministic turn, then either acquires (waking with 0/1 for
    clean/poisoned) or reports busy (waking with 2) without queueing.
    [Lock_timed] is a lock with a deterministic deadline of [timeout]
    counted instructions from the request, filed as an arbiter timer in
    the same min-stamp grant order as turn requests.  If the mutex is
    granted first the timer is cancelled; if the deadline is granted
    first the waiter leaves the queue and wakes with 2 ([`Timed_out]).

    {b Heals.}  [Mutex_heal] is the one heal op: it dispatches on the
    handle's kind (handles are unique across mutexes, rwlocks,
    semaphores and deques).  Mutexes, rwlocks and semaphores require
    the caller to hold the object (raises [Invalid_argument]
    otherwise); anyone may heal a poisoned deque (the owner is dead).
    The caller declares the protected invariant re-established.  A
    poisoned mutex also heals automatically when the restarted thread
    whose crash poisoned it completes a clean [Unlock] (rwlocks,
    semaphores and deques below likewise).  Counted in [Profile.heals]
    and traced as a [Recovery] event.

    {b Condition variables.}  [Cond_signal] is [cond_signal] below;
    [Cond_broadcast] wakes every waiter, in ascending stamp order.

    {b Reader–writer locks.}  Deterministic admission: all blocked
    requests sit in one queue sorted by Kendo stamp.  An arriving reader
    acquires immediately only when no writer holds the lock and no
    writer is waiting (stamp-ordered writer preference); an arriving
    writer acquires only when the lock is entirely free.  On full
    release, the queue head is admitted — a writer alone, or the
    consecutive run of readers at the head as one batch
    ([Profile.rw_reader_batches] / [rw_batch_readers]).  [Rwunlock]
    releases the caller's hold (shared or exclusive — detected; raises
    [Invalid_argument] when the caller holds neither).  A clean release
    by the thread whose earlier crash poisoned the lock heals it.

    {b Counting semaphores.}  [Sem_acquire] (P) grants a permit when
    available, else queues in stamp order.  [Sem_post] (V) hands the
    permit directly to the lowest-stamp waiter when one is queued (no
    release-then-race), else increments the pool.  A post by the thread
    whose crash poisoned the semaphore heals it.

    {b Work-stealing deques.}  The new deque is owned by the creating
    thread; only the owner may push/pop.  [Deque_push] puts the value at
    the bottom, stamped with the owner's Kendo time (a release point).
    A push by the restarted owner of a poisoned deque heals it.
    [Deque_pop] pops the newest item (LIFO); wakes with the value, -1
    when empty, -2 when poisoned.  [Deque_steal] steals the globally
    oldest item: deterministic victim selection — the non-empty,
    non-poisoned deque (excluding [own]) whose oldest item has the
    smallest (push stamp, handle).  Wakes with the value, or -1 when no
    victim exists.  Counted in [Profile.steals_attempted] /
    [steals_succeeded] and traced as a [Steal] event. *)

val cond_signal : ?lose:bool -> t -> tid:int -> cond:int -> Rfdet_sim.Engine.outcome
(** Wake the *lowest-stamp* waiter — deterministic, not FIFO: the waiter
    whose [cond_wait] carried the smallest (icount, tid) Kendo stamp is
    chosen, so the wakeup order is a pure function of the waiters' logical
    times.  A signal with no waiters is counted in
    [Profile.cond_unheard_signals] (lost-wakeup diagnostics).  [?lose]
    (default false) is the seeded [bug_lost_signal] fault: the signal
    takes its deterministic turn but the wakeup is swallowed — the waiter
    stays queued, modelling the classic lost-wakeup bug. *)

val rmw :
  t -> tid:int -> action:(now:int -> int * int) -> Rfdet_sim.Engine.outcome
(** [rmw t ~tid ~action] takes a deterministic turn and runs [action] at
    the grant; [action ~now] returns (result value, extra cycles).  Used
    for the low-level atomic interface: the client runtime performs the
    acquire, the read-modify-write, and the release inside [action]. *)

val on_thread_exit : t -> tid:int -> unit
(** Must be wired into the policy's [on_thread_exit]. *)

val on_thread_crash : t -> tid:int -> restart:bool -> unit
(** The one crash repair, for containment ([~restart:false]: wire into
    the policy's [on_thread_crash], after any memory-model cleanup) and
    for a thread the recovery manager is about to restart
    ([~restart:true]).  Under DLRC a crashed thread has published
    nothing since its last release, so both need the same repair.
    Deterministically — in ascending handle order of each kind,
    independent of physical interleaving — it:
    + marks the thread crashed, unless [restart];
    + removes it from the arbiter and from every wait queue;
    + with [restart], retracts its barrier arrivals, so the restarted
      body can arrive again;
    + releases what it held as {e poisoned}, recording the crasher:
      each mutex passes to the next waiter, which observes [`Poisoned]
      from [Api.lock_check]; each rwlock hold is dropped and the next
      stamp-ordered batch admitted; its semaphore permits return to the
      pool and drain waiters; the deques it owned are poisoned (queued
      work becomes stealable again after [Api.deque_heal]);
    + without [restart], breaks every barrier the thread was a party to
      (had ever waited on), waking stranded parties with [`Broken] and
      failing all future waits, and completes current and future joins
      on the thread with [`Crashed] — with [restart], joiners keep
      waiting for the restarted body;
    + polls the arbiter. *)

val on_thread_restarted : t -> tid:int -> unit
(** Re-register a restarted tid with the arbiter (active, preserved
    instruction count).  Call before the restarted body first runs. *)

val deadlock_victim : t -> int option
(** Wait-for-graph cycle detection: mutex-queue waiter → owner,
    rwlock waiter → holder (the writer, else the lowest-tid reader),
    semaphore waiter → lowest-tid permit holder, and
    joiner → target edges.  Returns the deterministic victim — the
    cycle node with the smallest (icount, tid) — or [None] when the
    stall is not a cycle (e.g. a lone cond_wait nobody will signal).
    Meaningful at a total stall, where it is schedule-independent for a
    deterministic runtime. *)

val poll : t -> unit
(** Must be wired into the policy's [on_step]. *)

val arbiter : t -> Arbiter.t
