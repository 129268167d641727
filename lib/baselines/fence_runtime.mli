(** The fence-based strong-DMT baselines: DThreads (Liu, Curtsinger,
    Berger — SOSP 2011), the state-of-the-art system the paper compares
    against, and CoreDet (Bergan et al., ASPLOS 2010), the third point
    in the design space of the paper's Figure 1.

    Architecture reproduced here (Section 2 of the RFDet paper):
    threads are isolated address spaces with dirty pages tracked; a
    *parallel phase* ends when every live thread has reached its next
    synchronization operation (an internal global fence); then a
    *serial phase* passes a token in deterministic thread-id order —
    each thread commits its page diffs to the shared state (last
    committer wins, byte granularity) and performs its synchronization
    operation on the FIFO primitive core ([Fifo_sync]).

    The two overheads the RFDet paper attributes to this design emerge
    naturally:
    - {b fence imbalance}: a thread that does not synchronize holds every
      other thread at the fence until it finally arrives (or exits);
    - {b serialized commits}: all threads pay for the token round even
      when they have nothing to communicate.

    CoreDet is DThreads plus quanta: a thread also reaches the fence
    after a fixed quantum of counted instructions, so even a thread
    that never synchronizes is stopped at every quantum boundary — the
    "unnecessary serialization" the paper's Section 3.1 argues DLRC
    eliminates, and the difference the E6 ablation bench demonstrates.
    The other modelling differences (first-touch faults, diff-scan
    accounting, per-peer commit cost, footprint) are listed with their
    reasons in one place in the implementation and in DESIGN.md §14. *)

type model =
  | Dthreads  (** fences at synchronization operations only *)
  | Coredet of { quantum : int }
      (** also a fence after [quantum] counted instructions *)

val coredet : model
(** CoreDet with a 50k-instruction quantum (CoreDet's ballpark). *)

val name : model -> string
(** ["dthreads"] or ["coredet"]. *)

val make : model -> Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy

(** {1 Read-only views}

    [make_with_state] also returns the runtime's state, which the views
    below read without changing it (the lockstep tests drive the fence
    trigger and the twin windows through them). *)

type t

val make_with_state : model -> Rfdet_sim.Engine.t -> t * Rfdet_sim.Engine.policy

val ready : t -> bool
(** The fence trigger: some thread has arrived and the arrivals number
    the live threads less the excluded ones.  The policy's [on_step]
    runs the serial phase exactly when this holds. *)

val tids : t -> int list
(** Every thread the runtime has created, ascending (exited ones too). *)

val live : t -> int -> bool
(** The thread has not yet exited in a serial slot (fence liveness, not
    [Engine.is_finished]). *)

val excluded : t -> int -> bool
(** The thread is blocked on a primitive or a join, so the fence does
    not wait for it. *)

val arrived : t -> int list
(** Threads waiting at the fence, in arrival order. *)

val iter_twins :
  t -> f:(tid:int -> Rfdet_mem.Space.t -> Rfdet_mem.Twins.t -> unit) -> unit
(** Each thread's private view and open twin set, ascending tid. *)
