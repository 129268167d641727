(** Per-thread RFDet state: the isolated memory view, the vector clock,
    the slice-pointer list and the open-slice monitoring state.

    Mirrors the paper's per-process state: [shared] is the thread's
    private view of the shared region (created by copy-on-write fork from
    its parent, Section 4.1 "Thread Create"), [slices] is the
    *slice pointers* list of Section 4.3 — every closed slice known to
    happen-before this thread's program counter, in happens-before-
    compatible order — and [snapshots] holds the first-touch page
    snapshots of the currently open slice (Figure 4).

    [resume] implements an incremental version of Figure 5's scan: for
    each remote thread X it records how far into X's (append-only)
    slice-pointer list this thread has already looked.  Entries below the
    index are permanently resolved — every slice there was either
    propagated here or filtered as already-seen, and both verdicts are
    stable because the thread's clock only grows. *)

type t = {
  tid : int;
  shared : Rfdet_mem.Space.t;
  stack : Rfdet_mem.Space.t;  (** thread-private, never monitored *)
  time : Rfdet_util.Vclock.t;  (** current vector clock, mutated in place *)
  slices : Slice.t Rfdet_util.Vec.t;
  resume : (int, int) Hashtbl.t;  (** remote tid -> scan resume index *)
  snapshots : (int, bytes) Hashtbl.t;  (** open slice: page id -> snapshot *)
  mutable touch_order : int list;  (** reversed first-touch page order *)
  lazy_pending : (int, (Rfdet_mem.Diff.t * int) list) Hashtbl.t;
      (** page id -> unapplied propagated page segments (diff, segment
          index), reversed arrival order *)
  mutable final_stamp : Rfdet_util.Vclock.t option;  (** set at exit *)
  mutable exit_len : int;  (** slice-list length at exit (join bound) *)
  mutable joined : bool;
  mutable monitoring : bool;
}

(** [create_root ~clock_size ~monitoring] — thread 0's state with a fresh
    shared space. *)
val create_root : clock_size:int -> monitoring:bool -> t

(** [fork parent ~tid ~stamp] — child state at thread creation: shared
    space forked copy-on-write, slice pointers and resume indices copied
    (the child has seen everything its parent had seen, including all of
    the parent's own slices), clock = [stamp] with the child's component
    ticked so the child's first slice is concurrent with the parent's
    next one.  The parent's lazy-pending updates must be flushed before
    calling this. *)
val fork : t -> tid:int -> stamp:Rfdet_util.Vclock.t -> t

(** [adopt_view ~leader ~follower] — barrier re-seeding: the follower
    takes a copy-on-write copy of the leader's shared space, slice list
    and resume indices, keeping its own stack, tid, clock and monitoring
    flag. *)
val adopt_view : leader:t -> follower:t -> t

(** [append_slice t s] adds a closed slice to the slice-pointer list. *)
val append_slice : t -> Slice.t -> unit

val resume_index : t -> from:int -> int

val set_resume_index : t -> from:int -> int -> unit

(** [has_open_snapshot t page] / [add_snapshot t page data] — Figure 4's
    hasPageSnapshot / addPageSnapshot. *)
val has_open_snapshot : t -> int -> bool

val add_snapshot : t -> int -> bytes -> unit

val has_pending : t -> int -> bool

val add_pending : t -> Rfdet_mem.Diff.t -> int -> unit
(** [add_pending t d k] queues segment [k] of [d] (page
    [Diff.page_id d k]) after any segments already pending on that
    page.  The queue holds [d] itself, not a copy: diffs are immutable,
    and a slice whose [mods] are later replaced (freed, corrupted,
    re-derived) leaves the queued bytes as they were. *)

val flush_pending : t -> int -> touched:bytes -> int
(** [flush_pending t page ~touched] writes the page's queued segments
    into [shared] in arrival order (the latest propagated value wins),
    clears the queue and returns the number of distinct bytes written;
    0 when nothing is pending.  [touched] is page-sized scratch, zeroed
    here.  Page protection is the caller's. *)

val pending_pages : t -> int list

val exited : t -> bool
