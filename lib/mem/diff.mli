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
    first-touch order, which is deterministic. *)

type run = {
  addr : int;       (** absolute byte address of the first modified byte *)
  data : string;    (** the new bytes, length >= 1 *)
}

type t = run list

val empty : t
(** The empty modification list. *)

(** [diff_page ~page_id ~snapshot ~current] compares two page images and
    returns the modification runs with absolute addresses.  Raises
    [Invalid_argument] if either buffer is not page-sized.

    The scan compares 8 bytes per step ([Bytes.get_int64_le]) and only
    refines mismatching words byte-by-byte, so equal regions — the
    overwhelmingly common case — cost one word load per 8 bytes. *)
val diff_page : page_id:int -> snapshot:bytes -> current:bytes -> t

(** [diff_page_bytewise] is the byte-at-a-time reference implementation
    of [diff_page]: extensionally equal (property-tested), an order of
    magnitude slower.  Kept as the testing oracle and the baseline of
    the [page diff] microbenchmarks. *)
val diff_page_bytewise : page_id:int -> snapshot:bytes -> current:bytes -> t

(** [apply space t] writes every run into [space] in list order (later
    runs overwrite earlier ones on overlap — "remote wins").  Each
    target page is owned (copy-on-write) once and runs are applied with
    [Bytes.blit_string], not per-byte stores. *)
val apply : Space.t -> t -> unit

(** [apply_run space run] writes a single run (one page ownership + one
    blit). *)
val apply_run : Space.t -> run -> unit

(** [apply_runs_on_page space ~page_id runs] bulk-applies runs known to
    live on one page, owning the page once.  Used by the lazy-writes
    flush paths, whose pending sets are already grouped by page. *)
val apply_runs_on_page : Space.t -> page_id:int -> run list -> unit

(** [byte_count t] is the total number of modified bytes — the metadata
    space cost of storing the list. *)
val byte_count : t -> int

(** [runs_by_page t] groups a modification list by page: (page id,
    runs) pairs, page id ascending, each page's runs in list order.
    Linear in the list for the shape slices and commits have (each
    page's runs contiguous). *)
val runs_by_page : t -> (int * run list) list

(** [pages_of_mods t] is each page's byte total, page id ascending —
    the payload of the trace's [Prop_page] events. *)
val pages_of_mods : t -> (int * int) list

(** [run_count t] is the number of runs. *)
val run_count : t -> int

(** [is_empty t] — true when the slice made no (non-redundant) writes. *)
val is_empty : t -> bool

(** [pages_touched t] is the sorted, deduplicated list of page ids the
    runs fall on (runs never span pages). *)
val pages_touched : t -> int list

(** [restrict_to_page t page_id] keeps only runs on the given page —
    used by the lazy-writes fault handler to apply one page's pending
    updates. *)
val restrict_to_page : t -> int -> t

(** [concat ts] concatenates modification lists preserving order. *)
val concat : t list -> t

val pp : Format.formatter -> t -> unit
