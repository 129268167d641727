(** Byte-granularity page diffing and modification lists.

    RFDet captures the writes of a slice by snapshotting each page on
    first touch and, when the slice ends, comparing snapshot and live page
    byte-by-byte (paper Section 4.2).  The C++ memory model's smallest
    scalar is a byte, so diffs must be byte-granular for correctness
    (Section 4.6) — this is also what produces the paper's famous
    255/256 -> 511 merge on racy programs.

    A modification list is a sequence of runs, each a maximal range of
    consecutive differing bytes.  Runs within one page are in ascending
    address order; the order of whole-page diffs inside a slice follows
    first-touch order, which is deterministic.

    A [t] is packed and immutable: one string holds every run's bytes in
    run order, an int array holds each run's address, offset into that
    string and length, and a page index built with the diff maps each
    page (page id ascending) to its contiguous range of runs and its byte
    count.  Counts and per-page grouping are reads, and application
    blits straight from the string.  Operations that change the bytes
    ([with_data]) build a new value, so a holder of the old value keeps
    the old bytes. *)

type run = {
  addr : int;       (** absolute byte address of the first modified byte *)
  data : string;    (** the new bytes, length >= 1 *)
}
(** One run, as the list view ([runs], [of_runs]) and the reference scan
    ([diff_page_bytewise]) give it. *)

type t

val empty : t
(** The empty modification list. *)

(** {1 Building} *)

type builder
(** Accumulates the per-page diffs of one slice or commit.  A builder is
    reusable: [finish] hands out the packed diff and empties it. *)

val builder : unit -> builder

(** [add_page b ~page_id ~snapshot ~current] compares two page images
    and appends the page's runs, with absolute addresses, as one page
    segment (nothing when the images are equal).  Raises
    [Invalid_argument] if either buffer is not page-sized.

    The scan compares 8 bytes per step ([Bytes.get_int64_le]) and only
    refines mismatching words byte-by-byte, so equal regions — the
    overwhelmingly common case — cost one word load per 8 bytes. *)
val add_page : builder -> page_id:int -> snapshot:bytes -> current:bytes -> unit

(** [add_window b ~page_id ~snapshot ~current ~lo ~hi] is [add_page]
    restricted to the page offsets [lo, hi): it appends the runs that
    lie inside the window, so when the images agree outside it, it
    appends exactly what [add_page] would ([Twins.diff], the release
    paths' scan).  [lo] and [hi] must be multiples of 8 with
    [0 <= lo <= hi <= Page.size]; [Invalid_argument] otherwise. *)
val add_window :
  builder -> page_id:int -> snapshot:bytes -> current:bytes -> lo:int -> hi:int -> unit

val last_page_runs : builder -> int
(** Runs the latest [add_page] appended (0 for an unchanged page). *)

val last_page_bytes : builder -> int
(** Bytes the latest [add_page] appended. *)

val finish : builder -> t
(** The packed diff of every page added since the last [finish], runs
    in the order added; empties the builder.  Raises [Invalid_argument]
    when a page was added twice (each page's runs must be contiguous). *)

(** [diff_page ~page_id ~snapshot ~current] is the one-page diff:
    [add_page] on a fresh builder, then [finish]. *)
val diff_page : page_id:int -> snapshot:bytes -> current:bytes -> t

(** [diff_page_bytewise] is the byte-at-a-time reference scan: its runs
    equal [runs (diff_page ...)] (property-tested), an order of
    magnitude slower.  Kept as the testing oracle. *)
val diff_page_bytewise :
  page_id:int -> snapshot:bytes -> current:bytes -> run list

val of_runs : run list -> t
(** Packs a run list.  Runs are grouped by page in order of first
    appearance, each page's runs in list order — the order [finish]
    gives and application respects, so a list whose pages are already
    contiguous packs unchanged.  Raises [Invalid_argument] on a run that
    is empty or crosses a page boundary. *)

(** {1 Reading} *)

val runs : t -> run list
(** The list view, in run order. *)

val byte_count : t -> int
(** The total number of modified bytes — the metadata space cost of
    storing the list. *)

val run_count : t -> int

val is_empty : t -> bool
(** True when the slice made no (non-redundant) writes. *)

val data : t -> string
(** Every run's bytes, concatenated in run order. *)

val iter_runs : t -> f:(addr:int -> off:int -> len:int -> unit) -> unit
(** Each run in order: its address, and its bytes' offset and length in
    [data]. *)

val with_data : t -> string -> t
(** [with_data t s] has [t]'s runs with [s] as their bytes.  Raises
    [Invalid_argument] unless [s] has [byte_count t] bytes. *)

(** {2 The page index} *)

val page_count : t -> int
(** Pages with at least one run.  Segments [0 .. page_count - 1] are in
    ascending page id. *)

val page_id : t -> int -> int
(** [page_id t k] — the page of segment [k]. *)

val page_bytes : t -> int -> int
(** [page_bytes t k] — the bytes segment [k]'s runs modify. *)

val runs_by_page : t -> (int * run list) list
(** The list view of the index: (page id, runs) pairs, page id
    ascending, each page's runs in run order. *)

val pages_of_mods : t -> (int * int) list
(** Each page's byte total, page id ascending — the payload of the
    trace's [Prop_page] events. *)

(** {1 Applying} *)

(** [apply space t] writes every run into [space] in run order (later
    runs overwrite earlier ones on overlap — "remote wins").  Each
    target page is owned (copy-on-write) once and every run is one
    [Bytes.blit_string] from [data]. *)
val apply : Space.t -> t -> unit

(** [apply_page space t k] applies segment [k] only, owning its page
    once. *)
val apply_page : Space.t -> t -> int -> unit

(** [write_page t k frame ~touched] blits segment [k]'s runs into the
    page-sized [frame], marks each written offset in the page-sized
    [touched] bitmap (['\001']) and returns how many offsets were not
    marked before — the lazy-writes flush, which charges one write per
    distinct byte. *)
val write_page : t -> int -> bytes -> touched:bytes -> int
