(** Slices: the unit of memory-modification propagation (Section 4.2).

    A slice is a synchronization-free span of one thread's execution.
    It is the triple <tid, modifications, timestamp>: the modifications
    are a byte-granularity list produced by page diffing, and the
    timestamp is the vector clock the thread held while executing the
    span.  The atomic property — every access in a slice has the same
    happens-before relation to anything outside it — is what makes the
    slice a sound propagation unit.

    Only this module writes a slice's fields.  Every write of [mods]
    ([free], [corrupt], [rederive]) installs a new [Diff.t] value and
    resets the [verified] record, so a diff handed out earlier (a lazily
    queued page segment) keeps the bytes it had. *)

type t = private {
  id : int;  (** unique, allocation order — diagnostics only *)
  tid : int;
  mutable mods : Rfdet_mem.Diff.t;  (** cleared when the GC frees the slice *)
  time : Rfdet_util.Vclock.t;
  epoch : int;
      (** [Vclock.get time tid]: the publisher's own component, unique
          among its slices because every close is followed by a tick.
          [Propagate] decides the Figure-5 filters on this one word
          (DESIGN.md §8) *)
  bytes : int;  (** cached [Diff.byte_count mods] *)
  mutable freed : bool;  (** reclaimed by the metadata GC *)
  mutable checksum : int;
      (** self-verifying digest of <tid, mods, time>, computed at [make];
          [checksum_valid] recomputes and compares, so any later silent
          damage to the stored modification bytes is detectable at
          propagation time *)
  mutable verified : bool;
      (** the current [mods] passed [checksum_valid] since they were
          last written *)
}

val make : id:int -> tid:int -> mods:Rfdet_mem.Diff.t -> time:Rfdet_util.Vclock.t -> t

(** [free t] marks the slice reclaimed and drops its modification list.
    Slice-pointer lists keep the (now tiny) record so that resume indices
    stay stable; propagation skips freed slices. *)
val free : t -> unit

val compute_checksum :
  tid:int -> mods:Rfdet_mem.Diff.t -> time:Rfdet_util.Vclock.t -> int
(** The digest stored in [checksum]: FNV-1a-style over the thread id,
    the vector-clock components and every run's address and bytes. *)

val checksum_valid : t -> bool
(** Recompute and compare, whatever [verified] says — the reference
    the end-of-run audit uses.  Freed slices (empty mods by
    construction) are vacuously valid. *)

val verify : t -> bool
(** [checksum_valid], computed only while [verified] is unset; a pass
    sets it.  Propagation calls this on every application, so a slice
    is hashed once per write of its [mods], not once per receiver. *)

val corrupt : t -> unit
(** The [corrupt] fault action: flip every bit of the first stored
    payload byte (a no-op on an empty slice).  Nothing is signalled;
    [verify] must catch it. *)

val rederive : t -> Rfdet_mem.Diff.t -> bool
(** [rederive t mods] installs [mods] as the slice's modifications when
    their digest equals [checksum], marking them verified, and returns
    whether it did.  Propagation's repair path offers the bytes re-read
    from the space it propagates from. *)

val rehash : t -> unit
(** Recompute [checksum] from the current contents — used by the audit
    after it has counted a damaged slice. *)

val overhead_bytes : int
(** Fixed metadata footprint per slice record. *)

val footprint : t -> int
(** [overhead_bytes + bytes]. *)

val pp : Format.formatter -> t -> unit
