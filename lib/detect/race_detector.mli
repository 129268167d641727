(** Happens-before data-race detection.

    The paper's position (after Boehm): all data races are bugs, and
    strong determinism exists to make the severe ones reproducible.  This
    module closes the loop: it runs a program under a Kendo-scheduled
    policy that tracks the happens-before relation with vector clocks and
    FastTrack-style access epochs, and reports every racy address.

    Synchronization clocks follow exactly the RFDet discipline (tick at
    every synchronization operation, join release stamps at acquires,
    barrier joins, fork/join edges, atomics as acquire+release), so a
    program the detector calls race-free is precisely a program whose
    RFDet execution is sequentially consistent (paper Section 3.3).

    Accesses are tracked at the granularity the program uses (the
    accessed address), with 64-bit accesses reported by their base
    address. *)

type kind = Write_write | Read_write | Write_read

type race = {
  addr : int;
  kind : kind;
  prior_tid : int;  (** the earlier, unordered access *)
  racing_tid : int;  (** the access that exposed the race *)
}

val kind_to_string : kind -> string

type report = {
  races : race list;  (** deduplicated by (addr, kind), detection order *)
  racy_addresses : int;
  accesses_checked : int;
}

val pp_report : Format.formatter -> report -> unit

val canonical_lines : report -> string list
(** One line per race, sorted by (addr, kind, tids) — a detection-order
    independent rendering, so two reports describe the same race set iff
    their canonical lines are equal. *)

val digest : report -> string
(** Compact fingerprint ["<addresses>:<md5hex>"] of the {e racy-address
    set}.  The pair list is schedule-sensitive — the per-address access
    history (last write + reads since) can mask a pair one interleaving
    exposes and another hides — but whether an address races at all is
    a pure function of (workload, threads, scale, input seed), because
    synchronization order under the arbiter's (icount, tid) stamps is
    schedule-invariant.  The digest therefore pins exactly the
    invariant part, which is what the record/replay corpus replays
    ([rfdet races --journal --shrink]). *)

(** [make engine] returns the detector policy and a function producing
    the report once the run finishes. *)
val make : Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy * (unit -> report)

val recorder :
  unit -> (Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy) * (unit -> report)
(** [make] for a caller that builds the policy through a hook: the
    policy maker for one run, and the report of the run it last made
    (run it through [Rfdet_harness.Runner.exec] with a [Policy] hook). *)
