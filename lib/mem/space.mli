(** Private, paged address spaces with copy-on-write forking.

    This is the software analogue of the per-process address spaces RFDet
    obtains from [clone]: each simulated thread owns a [Space]; a store in
    one space is invisible in every other space until the runtime
    explicitly propagates it.  [fork] implements the child-inherits-parent
    semantics of thread creation at page granularity with copy-on-write,
    and the materialized-page count feeds the memory-footprint numbers of
    Table 1.

    Domain safety: a space (and everything forked from it) is
    unsynchronized mutable state belonging to one simulated run — never
    share one across host domains ([Rfdet_par.Par] sweeps).  The only
    module-level values are the all-zero page returned for unmapped
    reads and an inert cache placeholder; both are read-only by
    contract, so concurrent runs on different domains may observe them
    freely. *)

type t

(** [create ()] is an empty space; pages are zero-filled on demand. *)
val create : unit -> t

(** [fork t] is a copy-on-write clone.  Both spaces subsequently see the
    same contents until one of them writes a page, at which point that
    space gets a private copy of the page.  Forking invalidates [t]'s
    page-handle cache (see below). *)
val fork : t -> t

(** Every space keeps a one-entry page-handle cache — the mapping of the
    last page looked up — so the hot access pattern (many consecutive
    operations on one page) costs one integer compare instead of one
    hashtable probe each.  The cache holds the {e mapping}, not the
    frame, and ownership re-checks the frame's reference count on every
    write, so copy-on-write isolation is unaffected; [fork]
    additionally drops the cache outright. *)

(** [load_byte t addr] reads one byte (pages spring into existence
    zero-filled). *)
val load_byte : t -> int -> int

(** [store_byte t addr v] writes one byte ([v land 0xff]). *)
val store_byte : t -> int -> int -> unit

(** [load_i64 t addr] / [store_i64 t addr v] read/write 8 bytes
    little-endian at arbitrary (possibly unaligned) addresses. *)
val load_i64 : t -> int -> int64
val store_i64 : t -> int -> int64 -> unit

(** [load_int] / [store_int] are [int]-valued convenience wrappers over
    the 64-bit accessors (the simulated machine's natural word). *)
val load_int : t -> int -> int
val store_int : t -> int -> int -> unit

(** [blit_string t ~addr s] stores the bytes of [s] starting at [addr],
    one page-segment blit at a time. *)
val blit_string : t -> addr:int -> string -> unit

(** [read_string t ~addr ~len] reads [len] bytes as a string, one
    page-segment blit at a time (unmapped pages read as zeros). *)
val read_string : t -> addr:int -> len:int -> string

(** [snapshot_page_into t page_id buf] copies the page's current
    contents into the caller's page-sized buffer (zero-fills when
    unmapped): a private copy that later writes to the page leave
    alone.  [Twins.take] fills its pooled buffers this way.  Raises
    [Invalid_argument] if [buf] is not page-sized. *)
val snapshot_page_into : t -> int -> bytes -> unit

(** [page_bytes t page_id] returns the live page contents for read-only
    inspection (do not mutate; used by the differ). *)
val page_bytes : t -> int -> bytes

(** [own_page t page_id] materializes the page, makes it private to this
    space (copy-on-write), and returns its live mutable contents — the
    bulk-write entry point used by [Diff.apply] and the lazy-writes
    flush.  Writes through the returned bytes are writes to the page. *)
val own_page : t -> int -> bytes

(** [write_page t page_id data] replaces a page's contents (used when
    re-seeding spaces at barriers). *)
val write_page : t -> int -> bytes -> unit

(** [page_is_mapped t page_id] is true when the space has a mapping for
    the page (shared or private). *)
val page_is_mapped : t -> int -> bool

(** [owned_pages t] counts pages for which this space holds a private
    (materialized) copy — the space's resident-set contribution beyond
    the shared backing. *)
val owned_pages : t -> int

(** [mapped_pages t] counts all mapped pages. *)
val mapped_pages : t -> int

(** [iter_pages t ~f] calls [f page_id] on every mapped page. *)
val iter_pages : t -> f:(int -> unit) -> unit

(** Page protection (simulated mprotect): the RFDet-pf monitor and the
    lazy-writes optimization mark pages and the simulated Store/Load paths
    consult the marks.  Protection is metadata only; accessors themselves
    never fault — the runtime checks [protection] first. *)

type protection = Prot_rw | Prot_read_only | Prot_none

val protect : t -> int -> protection -> unit
val protection : t -> int -> protection
(** Unmapped or unprotected pages report [Prot_rw]. *)

val clear_protections : t -> unit
