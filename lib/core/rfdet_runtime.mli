(** The RFDet runtime: strong determinism via deterministic lazy release
    consistency, without global barriers (paper Sections 3-4).

    Composition:
    - the Kendo layer ([Rfdet_kendo.Sync]) serializes every
      synchronization operation in deterministic logical-time order;
    - each thread runs against a private copy-on-write view of the shared
      region, so its stores are invisible elsewhere until propagated;
    - execution is cut into slices at synchronization points; slice
      modifications are captured by first-touch page snapshots plus
      byte-granularity diffing (monitor = RFDet-ci or RFDet-pf);
    - at every acquire, the slices that happen-before the matching
      release are propagated under vector-clock upper/lower limits
      (Figure 5) and merged with the deterministic conflict policy;
    - the metadata space meters slice storage and garbage-collects slices
      that every thread has merged.

    The resulting guarantee: the run's observable output depends only on
    the program and its input — never on the engine's scheduling seed —
    even for programs with data races. *)

val name : Options.t -> string

val make : ?opts:Options.t -> Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** The policy of one engine run ([Runner.make_policy (Rfdet opts)]). *)

(** {1 Introspection for tests} *)

type t
(** The runtime instance behind a policy. *)

val make_with_state :
  ?opts:Options.t -> Rfdet_sim.Engine.t -> t * Rfdet_sim.Engine.policy

val state : t -> tid:int -> Tstate.t

val iter_states : t -> f:(tid:int -> Tstate.t -> unit) -> unit
(** Every thread state created so far (unspecified order) — the DLRC
    conformance oracle walks these after each synchronization step. *)

val metadata : t -> Metadata.t

val last_release :
  t -> Rfdet_kendo.Sync.obj -> (int * Rfdet_util.Vclock.t * int) option
(** lastTid, lastTime, and the releaser's slice-list length at the
    release. *)

val clock_size : t -> int

(** {1 Recovery support} *)

val sync : t -> Rfdet_kendo.Sync.t
(** The runtime's synchronization layer — the recovery manager
    ([Rfdet_recover]) uses it for lock healing and deadlock-victim
    selection. *)

val crash_recoverable : t -> tid:int -> unit
(** Prepare a crashed thread for restart: restore every open page
    snapshot into its private view (rolling uncommitted stores back to
    the last release point) and drop the open slice's snapshot set.
    The thread is not marked exited; call before
    [Engine.restart_thread].  Idempotent on a thread with no open
    slice. *)
