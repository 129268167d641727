(** RFDet runtime configuration.

    The two monitor modes and the four optimizations of the paper's
    Section 4, plus the metadata-space sizing that drives garbage
    collection (Section 4.5 / Table 1). *)

type monitor =
  | Instrumentation
      (** RFDet-ci: compile-time store instrumentation — every store runs
          the Figure-4 check; first touch of a page in a slice pays a
          snapshot memcpy. *)
  | Page_fault
      (** RFDet-pf: mprotect the shared region at slice start; the first
          write to each page traps, snapshots and unprotects. *)

type t = {
  monitor : monitor;
  slice_merging : bool;
      (** do not end the slice when re-acquiring a variable last released
          by this same thread (Section 4.5) *)
  prelock : bool;
      (** overlap memory propagation with lock waiting via the
          deterministic reservation order (Section 4.5) *)
  lazy_writes : bool;
      (** defer writing propagated modifications until the target page is
          actually accessed (Section 4.5); pages with small payloads
          still apply eagerly (see [Propagate]) *)
  metadata_capacity : int;
      (** metadata space size in bytes (paper default 256 MB) *)
  gc_threshold : float;
      (** trigger GC at this fraction of capacity (paper: 0.9) *)
  skip_premain_monitoring : bool;
      (** do not monitor the main thread before the first fork
          (Section 4.1, "Thread Create and Join") *)
  bug_drop_window : (int * int) option;
      (** {b test only} — seeded visibility bug for validating the DLRC
          conformance oracle ([Rfdet_check.Oracle]).  While the engine's
          global operation counter is in [\[lo, hi)], propagation silently
          drops every slice it should have applied.  The global counter is
          the one quantity in the runtime that depends on the
          interleaving, so the bug surfaces only under some schedules —
          exactly the kind of defect seed-sampling misses and systematic
          exploration must catch.  [None] (the default, and the only
          sound value) disables it. *)
  bug_lost_signal : (int * int) option;
      (** {b test only} — seeded lost-wakeup bug for validating the
          explorer against condition-variable schedules.  While the
          engine's global operation counter is in [\[lo, hi)], every
          [cond_signal] takes its deterministic turn but the wakeup is
          swallowed: the lowest-stamp waiter stays queued, exactly the
          classic missed-signal defect.  Whether a signal lands in the
          window depends on the interleaving, so only some schedules
          expose the hang/divergence.  [None] (the default, and the only
          sound value) disables it. *)
}

val default : t
(** RFDet-ci with every optimization on, 256 MB metadata, 0.9 GC
    threshold — the configuration of the headline results. *)

val ci : t
val pf : t

val baseline_no_opt : t
(** Both prelock and lazy writes off — the Figure 9 baseline. *)

val name : t -> string
(** "rfdet-ci", "rfdet-pf", with "-noopt"/"-prelock"/"-lazy" suffixes. *)
