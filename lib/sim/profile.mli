(** Per-run event counters and footprint figures — the raw material for
    the paper's Table 1 and for the bench harness's sanity checks.

    The engine fills the generic operation counters; the runtime policy
    fills the monitoring/propagation counters and the footprint fields. *)

type t = {
  (* synchronization operations (Table 1, columns 2-4) *)
  mutable locks : int;
  mutable unlocks : int;
  mutable waits : int;
  mutable signals : int;  (** cond_signal + cond_broadcast *)
  mutable barriers : int;
  mutable forks : int;
  mutable joins : int;
  mutable atomics : int;  (** low-level atomic operations *)
  (* memory operations (Table 1, columns 5-8) *)
  mutable loads : int;
  mutable stores : int;
  mutable stores_with_copy : int;
      (** stores that triggered a first-touch page snapshot *)
  (* monitoring machinery *)
  mutable page_faults : int;
  mutable mprotect_calls : int;  (** pages protected, one call per page *)
  mutable snapshots : int;
  mutable slices_created : int;
  mutable slices_propagated : int;
  mutable bytes_propagated : int;
  mutable diff_bytes_scanned : int;
      (** the simulated diff scan: a full page per twin diffed at a
          release (RFDet's slice close; DThreads' commit, which CoreDet
          does not count), whatever part of the page the host actually
          scans ([Twins.diff] scans only the words the stores covered) *)
  mutable gc_runs : int;  (** Table 1 last column *)
  mutable gc_slices_freed : int;
  mutable kendo_waits : int;  (** sync ops that had to wait for their turn *)
  mutable barrier_stalls : int;  (** global-barrier episodes (DThreads) *)
  (* deterministic recovery (Rfdet_recover) *)
  mutable restarts : int;  (** crashed threads resurrected and replayed *)
  mutable heals : int;  (** poisoned mutexes un-poisoned *)
  mutable deadlock_victims : int;  (** threads killed to break a deadlock *)
  mutable quarantines : int;
      (** corrupted slices quarantined and re-derived at propagation *)
  mutable corruptions_detected : int;
      (** checksum mismatches caught (at propagation or the final audit) *)
  mutable backoff_cycles : int;
      (** simulated cycles charged as restart backoff latency *)
  (* request serving (lib/server, via [Op.Server_mark]) *)
  mutable requests_served : int;  (** full serves committed to the table *)
  mutable requests_shed : int;  (** dropped by admission control *)
  mutable requests_retried : int;  (** retry attempts (not requests) *)
  mutable requests_timed_out : int;  (** deadline expired before commit *)
  mutable breaker_transitions : int;
      (** circuit-breaker state changes (closed/open/half-open) *)
  mutable stale_reads : int;  (** degraded-mode reads from the stale cache *)
  (* deterministic primitives (lib/kendo/sync) *)
  mutable cond_unheard_signals : int;
      (** signals/broadcasts that found no waiter queued — the raw
          material for lost-wakeup diagnostics *)
  mutable rw_reader_batches : int;
      (** reader batches admitted to a reader-writer lock *)
  mutable rw_batch_readers : int;
      (** readers admitted in total (avg batch size =
          rw_batch_readers / rw_reader_batches) *)
  mutable steals_attempted : int;  (** deque steal operations issued *)
  mutable steals_succeeded : int;  (** steals that found a victim *)
  (* memory footprint (Table 1, columns 10-12), in bytes *)
  mutable shared_bytes : int;  (** app shared memory (globals+heap touched) *)
  mutable stack_bytes : int;
  mutable metadata_peak_bytes : int;
  mutable private_copy_bytes : int;
      (** bytes of per-thread private page copies beyond one shared image *)
  (* observability (Rfdet_obs.Sink) *)
  mutable trace_dropped : int;
      (** trace events lost to ring-buffer overflow (0 when tracing is
          off or the sink is unbounded) — nonzero means offline span and
          contention analysis is incomplete *)
}

val create : unit -> t

(** [footprint_pthreads p] / [footprint_rfdet p] — the paper's Column 10
    and Column 11 formulas, in bytes. *)
val footprint_pthreads : t -> int

val footprint_rfdet : t -> int

val sync_ops : t -> int
(** Total count of synchronization operations. *)

val mem_ops : t -> int

val fields : t -> (string * int) list
(** Every counter as (name, value), in declaration order — the single
    source for [pp], [to_json] and [fill_metrics]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump; prints every field of [fields]. *)

val to_json : t -> string
(** A flat JSON object of [fields], declaration order. *)

val fill_metrics : Rfdet_obs.Metrics.t -> t -> unit
(** Mirror every field into a [profile.*] counter of the registry. *)
