(** The open write set of one thread: a twin (first-touch snapshot) of
    each page written since the last release, in first-touch order, and
    the range of each page those writes covered.

    Both release paths capture a thread's writes this way (paper
    Section 4.3; DThreads' twin pages): RFDet snapshots a page at the
    first store of a slice and diffs it at the slice's close, and the
    fence runtimes do the same between two arrivals.  A store records
    the offsets [lo, hi) it covers on every page it touches, so the
    release diff scans only the union of those ranges, widened outward
    to whole 8-byte words ([Diff.add_window]).

    {b The window invariant.}  The windowed scan equals the full-page
    scan because nothing but the owner's own stores writes a page while
    its twin is open: pending lazy writes are flushed before the page is
    snapshotted, propagation into a thread follows its release, and the
    fence runtimes commit and run atomics only when every thread's set
    is empty (DESIGN.md §8).

    Twin buffers come from a {!pool} shared by every set of one run, so
    steady-state slicing allocates no 4 KiB block per first touch.  A
    pool belongs to one simulated run; never share one across host
    domains. *)

(** {1 Page buffers} *)

type pool

val pool : unit -> pool
(** An empty pool.  It keeps at most 128 returned buffers. *)

val alloc : pool -> bytes
(** A page-sized buffer from the pool, or a fresh one when it is empty.
    The contents are unspecified: the caller overwrites all of it. *)

val release : pool -> bytes -> unit
(** Return a buffer to the pool (dropped when the pool is full).
    Raises [Invalid_argument] unless it is page-sized. *)

(** {1 Twin sets} *)

type t

val create : pool -> t
(** An empty set whose twins come from the pool. *)

val sibling : t -> t
(** An empty set on the same pool. *)

val pool_of : t -> pool

val count : t -> int
(** Open twins. *)

val widen : t -> page:int -> lo:int -> hi:int -> bool
(** [widen t ~page ~lo ~hi] widens the window of the page's open twin
    to cover the page offsets [lo, hi) and returns [true]; returns
    [false], recording nothing, when the page has no open twin.  One
    table probe at most (the last twin found or taken is cached), and
    no allocation. *)

val take : t -> Space.t -> page:int -> lo:int -> hi:int -> unit
(** Snapshot the page's current contents into a pooled buffer as its
    twin, with window [lo, hi) (the first store's offsets).  The page
    must have no open twin. *)

val iter : t -> f:(page:int -> snapshot:bytes -> lo:int -> hi:int -> unit) -> unit
(** Every open twin in first-touch order, with its word-widened window
    ([lo] and [hi] are multiples of 8).  Read-only: the snapshot must
    not be written. *)

val diff : t -> Space.t -> Diff.builder -> f:(int -> unit) -> int
(** Close the set: for each twin in first-touch order, append the
    page's runs (its word-widened window of the twin against the live
    page in the space) to the builder with [Diff.add_window], then call
    [f page].  Every buffer returns to the pool, the set is left empty,
    and the result is the number of pages diffed. *)

val drop : t -> restore:Space.t option -> int
(** Discard the set without diffing, returning how many twins it held.
    With [restore = Some space], first copy each twin back over its page
    (rolling the owner's stores since the snapshots back). *)
