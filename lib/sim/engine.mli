(** Deterministic discrete-event execution engine.

    The engine runs simulated threads (OCaml effect-handler fibers) on an
    idealized multicore: every thread has its own core, a simulated-cycle
    clock, and a Kendo instruction counter.  The scheduler always resumes
    the ready thread with the smallest (clock, tid), so a run is a pure
    function of the workload, the runtime policy, and the seed.

    The *runtime policy* decides the semantics of memory and
    synchronization operations — this is where RFDet, DThreads and the
    nondeterministic pthreads baseline differ.  The engine itself handles
    the policy-independent operations: [Tick], [Output], [Self], [Yield],
    [Malloc], [Free] (through the shared conflict-free allocator), fiber
    mechanics, operation counting, and jitter.

    Nondeterminism modelling: when [jitter_mean > 0], an exponentially
    distributed number of extra cycles (from the seeded generator) is
    added to the clock after every operation.  This perturbs the
    *interleaving* exactly like OS scheduling noise does, without touching
    instruction counts — so a correct DMT policy must produce identical
    output for every seed, while the pthreads policy resolves races
    differently per seed.  The determinism test suite relies on this.

    Domain safety: one engine run is single-domain — its fibers are
    effect handlers multiplexed on the calling domain, and all of its
    state (clocks, spaces, allocator, RNG) is created inside [run].
    Distinct [run] calls share nothing, so independent runs may execute
    concurrently on different host domains; that is the contract
    [Rfdet_par.Par]-based sweeps build on. *)

type t

(** What happens when a simulated thread fails (raises, or suffers an
    injected crash).

    - [Abort]: the failure unwinds the whole run as [Thread_failure]
      (the historical behavior, still the default).
    - [Contain]: only the faulting thread dies.  Its continuation is
      dropped without running cleanup handlers (a crash, not an unwind),
      the policy's [on_thread_crash] hook repairs shared runtime state,
      and the scheduler keeps running the survivors.  The crash is
      recorded in [result.crashes] and folded into the output
      signature.
    - [Recover]: containment plus recovery.  Identical to [Contain] at
      the engine level; a recovery manager ([Rfdet_recover.Recover])
      layered on the policy may then resurrect the crashed tid with
      [restart_thread], heal poisoned locks, and break deadlocks through
      the [set_on_deadlock] hook.  Crashes remain recorded, so a
      recovered run's signature still reflects its fault history;
      [outputs_checksum] ignores them for fault-free comparison. *)
type failure_mode = Abort | Contain | Recover

val failure_modes : (string * failure_mode) list
(** The one spelling of each mode, in the CLI's presentation order:
    [--fault-mode], journal and schedule-trace headers and the clinic
    report all read it. *)

val failure_mode_name : failure_mode -> string
(** The [failure_modes] name of a mode. *)

(** A fault-injection decision for one operation, consulted through
    [config.inject] at every operation boundary:

    - [I_none]: execute normally;
    - [I_crash]: kill the thread at this boundary (before the operation
      takes effect — nothing it did since its last release point can
      have been published);
    - [I_fail]: fail the operation.  [Malloc] returns 0 (null); every
      other operation raises [Injected_fault] at the call site inside
      the thread, which may catch it and recover;
    - [I_delay k]: add [k] simulated cycles to the thread's clock before
      the operation (models a stall; never changes instruction
      counts);
    - [I_corrupt]: flip bytes in the runtime's stored metadata (through
      the [set_on_corrupt] hook) before the operation runs; the
      operation itself succeeds.  Runtimes without verifiable metadata
      ignore it. *)
type injection = I_none | I_crash | I_fail | I_delay of int | I_corrupt

(** One scheduling decision offered to an installed [config.choose]
    chooser (the hook behind `rfdet check`'s systematic explorer).

    - [sp_ready]: tids that can run now, ascending (never empty);
    - [sp_last]: the thread the previous step ran ([-1] on the first);
    - [sp_last_ready]: whether [sp_last] is in [sp_ready] — false when it
      blocked, exited or crashed;
    - [sp_last_boundary]: whether [sp_last] stopped at a
      schedule-relevant boundary (a synchronization operation or a
      handle creation).  Between boundaries a DMT run's behavior cannot
      depend on the interleaving, so an explorer only needs to branch
      when this is true (or when [sp_last_ready] is false). *)
type sched_point = {
  sp_ready : int list;
  sp_last : int;
  sp_last_ready : bool;
  sp_last_boundary : bool;
}

(** One free scheduling decision of the default clock-ordered scheduler,
    surfaced to [config.sched_tap] — the raw material of the minimal
    record/replay journal ([Rfdet_replay]).

    A step is a {e decision point} only when the schedule genuinely
    chose: the first step of the run, a step after the previous thread
    stopped at a schedule-relevant boundary (sync op or handle
    creation), or a step after the previous thread stopped being ready
    (blocked, exited, crashed) — the same rule the systematic explorer
    branches on.  Steps that merely continue the running thread between
    boundaries, and forced moves where only one thread is ready, are
    {e not} surfaced: under DLRC their interleaving is unobservable, so
    logging them would add bytes without adding information.

    - [d_index]: 0-based decision sequence number;
    - [d_ready]: ready tids at the decision, ascending (always ≥ 2);
    - [d_chosen]: the tid the (clock, tid) order ran. *)
type decision = { d_index : int; d_ready : int list; d_chosen : int }

type config = {
  cost : Cost.t;
  seed : int64;
  jitter_mean : float;  (** mean extra cycles per op; 0 disables jitter *)
  max_ops : int;  (** abort threshold against livelocked policies *)
  failure_mode : failure_mode;  (** default [Abort] *)
  inject : (tid:int -> Op.t -> injection) option;
      (** fault-injection oracle, consulted before every operation;
          [None] (the default) injects nothing.  Build one from a
          declarative plan with [Rfdet_fault.Fault_plan.injector]. *)
  choose : (sched_point -> int) option;
      (** when set, replaces clock-ordered scheduling entirely: the
          chooser is consulted at every scheduling step and must return
          a tid from [sp_ready].  Used by the systematic schedule
          explorer ([Rfdet_check.Explore]); combine with
          [jitter_mean = 0.] so the schedule is the only free variable.
          [None] (the default) keeps the deterministic (clock, tid)
          order. *)
  sched_tap : (decision -> unit) option;
      (** decision tap for the record/replay journal: called at every
          decision point of the default clock-ordered scheduler (see
          [decision]).  Purely observational — it cannot alter the
          schedule, so a tapped run is bit-identical to an untapped one.
          Mutually exclusive with [choose] ([run] raises
          [Invalid_argument] if both are set); [None] (the default)
          costs nothing. *)
  observe : (tid:int -> Op.t -> unit) option;
      (** operation tap, called for every operation as it is handled
          (before injection and policy dispatch); lets an explorer
          record per-thread footprints without a policy change. *)
  obs : Rfdet_obs.Sink.t;
      (** causal-trace sink; the engine emits thread lifecycle and
          fault-injection events, policies emit the rest through
          [obs t].  [Rfdet_obs.Sink.null] (the default) disables
          tracing; an enabled sink never perturbs the simulation
          (see [Rfdet_obs.Sink]), so signatures are unchanged. *)
}

val default_config : config

(** Raised when no thread is runnable but some are unfinished.  The
    string describes the blocked threads. *)
exception Deadlock of string

(** Raised when a run exceeds [max_ops] operations. *)
exception Runaway

(** Raised (wrapping the original) when a simulated thread raises. *)
exception Thread_failure of int * exn

(** The exception recorded for a thread killed by an [I_crash]
    injection. *)
exception Injected_crash

(** Raised at the call site of an operation failed by [I_fail]. *)
exception Injected_fault

(** A failure no containment mode may swallow: metadata failed
    verification and could not be re-derived.  Propagates through
    [Contain]/[Recover] untouched and aborts the whole run. *)
exception Fatal of exn

(** A policy's verdict on one operation. *)
type outcome =
  | Done of int  (** complete with this result; thread stays runnable *)
  | Block  (** suspend; the policy will call [wake] later *)

type policy = {
  policy_name : string;
  handle : tid:int -> Op.t -> outcome;
      (** semantics of Load/Store and all synchronization ops *)
  on_engine_op : tid:int -> Op.t -> outcome -> outcome;
      (** observes operations the engine handles itself (Tick, Output,
          Self, Yield, Malloc, Free) after their accounting; may override
          the outcome — quantum-based runtimes use this to preempt
          compute-only threads at quantum boundaries.  Usually
          [fun ~tid:_ _ o -> o]. *)
  on_thread_exit : tid:int -> unit;
      (** the thread's body returned; wake joiners, flush its last slice *)
  on_thread_crash : tid:int -> exn -> unit;
      (** the thread died under [Contain]: discard its uncommitted work,
          release its held locks as poisoned, fail its joiners.  A
          policy without a containment story uses [escalate_crash],
          which re-raises and aborts the whole run. *)
  on_step : unit -> unit;
      (** called after every handled operation and after every thread
          exit; global arbiters (Kendo turn grants, barrier releases)
          re-evaluate here *)
  on_finish : unit -> unit;
      (** all threads finished; fill the profile's footprint fields *)
}

val escalate_crash : tid:int -> exn -> unit
(** The [on_thread_crash] of policies that do not support containment:
    re-raises as [Thread_failure], aborting the run gracefully. *)

(** {1 Accessors for policies} *)

val clock : t -> int -> int

val advance : t -> int -> int -> unit
(** [advance t tid cycles] adds simulated cycles to a thread's clock. *)

val raise_clock_to : t -> int -> int -> unit
(** [raise_clock_to t tid c] sets the clock to [max clock c]. *)

val icount : t -> int -> int
(** Kendo deterministic instruction count (jitter-free). *)

val add_icount : t -> int -> int -> unit

val current_tid : t -> int
(** Thread whose operation is being handled. *)

val set_on_deadlock : t -> (unit -> bool) -> unit
(** Install the total-stall hook: called when no thread is runnable but
    some are unfinished, before [Deadlock] is raised.  Return [true] iff
    progress was made (a thread woken, killed or restarted) — scheduling
    then retries; returning [true] without making progress livelocks the
    scheduler.  The stall point is schedule-independent for a
    deterministic runtime, so victim selection here is deterministic. *)

val set_on_corrupt : t -> (tid:int -> unit) -> unit
(** Install the metadata-corruption hook backing [I_corrupt]; [tid] is
    the thread whose operation triggered the injection. *)

val set_on_checkpoint : t -> (tid:int -> (unit -> unit) -> unit) -> unit
(** Install the restart-point hook backing [Op.Checkpoint]: called with
    the performing thread and the closure it declared as its restart
    point.  Without a hook (no recovery manager) checkpoints cost one
    cycle and do nothing. *)

val register_thread : t -> body:(unit -> unit) -> start_at:int -> int
(** Create a simulated thread; it becomes runnable at clock [start_at]
    with the instruction count it is given by [seed_icount] (default 0).
    Returns the deterministic tid (creation order). *)

val seed_icount : t -> int -> int -> unit
(** [seed_icount t tid c] initializes a freshly registered thread's
    instruction counter (children inherit the parent's count). *)

val wake : t -> tid:int -> value:int -> not_before:int -> unit
(** Make a blocked thread runnable, delivering [value] as the result of
    the operation it blocked on; its clock is raised to [not_before]. *)

val is_finished : t -> int -> bool

val is_crashed : t -> int -> bool
(** True once the thread died under [Contain] or [Recover] (and has not
    been restarted). *)

val kill : t -> tid:int -> exn -> unit
(** Force-crash a thread from outside its own execution — the deadlock
    victim path.  Follows the contained-crash protocol exactly: the
    continuation is dropped without unwinding and [on_thread_crash]
    runs.  No-op on finished or already-crashed threads. *)

val restart_thread :
  t -> tid:int -> body:(unit -> unit) -> not_before:int -> keep_outputs:int -> unit
(** Resurrect a crashed tid with a fresh body (raises [Invalid_argument]
    otherwise).  The instruction counter is preserved (Kendo stamps stay
    monotone per thread); the clock is raised to [not_before] (recovery
    latency, including backoff); outputs beyond the first [keep_outputs]
    are discarded so the replayed span re-emits them. *)

val output_count : t -> int -> int
(** Number of outputs a thread has emitted so far — the restart mark for
    [restart_thread]'s [keep_outputs]. *)

val thread_count : t -> int

val peak_live_threads : t -> int
(** High-water mark of concurrently live threads — the "N" of the
    paper's footprint formulas. *)

val live_tids : t -> int list
(** Tids of unfinished threads, ascending. *)

val profile : t -> Profile.t

val cost : t -> Cost.t

val allocator : t -> Rfdet_mem.Allocator.t

val obs : t -> Rfdet_obs.Sink.t
(** The configured trace sink ([Rfdet_obs.Sink.null] when disabled). *)

val ops_executed : t -> int

(** {1 Running} *)

type result = {
  sim_time : int;  (** max final thread clock — the run's makespan *)
  outputs : (int * int64) list;
      (** observable outputs, grouped by tid ascending, program order
          within a thread *)
  profile : Profile.t;
  threads : int;
  ops : int;
  crashes : (int * string) list;
      (** threads that died under [Contain], as (tid, exception text),
          sorted by tid; empty for clean runs *)
  thread_clocks : (int * int) list;
      (** every thread's final simulated clock, by tid ascending — the
          denominator of the [Rfdet_obs.Report] time breakdown is their
          sum *)
}

val run : ?config:config -> (t -> policy) -> main:(unit -> unit) -> result
(** [run make_policy ~main] executes [main] as thread 0 under the policy
    and returns when every simulated thread has finished. *)

val output_signature : result -> string
(** Deterministic digest of [outputs] and [crashes] for equality
    comparison — crash outcomes are observable behavior. *)

val outputs_checksum : result -> string
(** Digest of [outputs] alone, ignoring crash records: a recovered run
    that replayed every lost span matches the fault-free run here. *)
