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
