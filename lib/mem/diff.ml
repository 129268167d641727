type run = { addr : int; data : string }

(* Run [i] is three ints of [runs]: its address, the offset of its bytes
   in [bytes] and their length; runs are in first-touch page order.
   Segment [k] of the page index is four ints of [index]: its page id
   (ascending), its first run, its run count and its byte count.  With
   one array for each, a one-page diff is four small blocks, about what
   a one-run list cost.  Nothing mutates a [t] after [finish]. *)
type t = { bytes : string; runs : int array; index : int array }

let empty = { bytes = ""; runs = [||]; index = [||] }

let run_addr t i = t.runs.(3 * i)

let run_off t i = t.runs.((3 * i) + 1)

let run_len t i = t.runs.((3 * i) + 2)

let seg_page t k = t.index.(4 * k)

let seg_first t k = t.index.((4 * k) + 1)

let seg_runs t k = t.index.((4 * k) + 2)

let seg_bytes t k = t.index.((4 * k) + 3)

(* --- building ------------------------------------------------------- *)

type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 24 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let bigger = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 bigger 0 v.n;
    v.a <- bigger
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type builder = {
  mutable buf : bytes;
  mutable used : int;
  b_runs : ints;  (* as [t.runs] *)
  b_segs : ints;  (* as [t.index], in first-touch order *)
  mutable last_runs : int;
  mutable last_bytes : int;
}

let builder () =
  {
    buf = Bytes.create 64;
    used = 0;
    b_runs = ints ();
    b_segs = ints ();
    last_runs = 0;
    last_bytes = 0;
  }

let push_run b ~addr src pos len =
  if b.used + len > Bytes.length b.buf then begin
    let bigger = Bytes.create (max (2 * Bytes.length b.buf) (b.used + len)) in
    Bytes.blit b.buf 0 bigger 0 b.used;
    b.buf <- bigger
  end;
  Bytes.blit src pos b.buf b.used len;
  push b.b_runs addr;
  push b.b_runs b.used;
  push b.b_runs len;
  b.used <- b.used + len

let run_total b = b.b_runs.n / 3

(* Close the segment of [page_id] that began at run [first] and byte
   [used0]; an unchanged page leaves no segment. *)
let end_segment b ~page_id ~first ~used0 =
  let runs = run_total b - first and bytes = b.used - used0 in
  b.last_runs <- runs;
  b.last_bytes <- bytes;
  if runs > 0 then begin
    push b.b_segs page_id;
    push b.b_segs first;
    push b.b_segs runs;
    push b.b_segs bytes
  end

let last_page_runs b = b.last_runs

let last_page_bytes b = b.last_bytes

(* Reference implementation: scan for maximal runs of differing bytes,
   one byte at a time.  Kept as the oracle for the word-level fast path
   (property-tested equal). *)
let diff_page_bytewise ~page_id ~snapshot ~current =
  if Bytes.length snapshot <> Page.size || Bytes.length current <> Page.size
  then invalid_arg "Diff.diff_page: buffers must be page-sized";
  let base = Page.base_of_id page_id in
  let runs = ref [] in
  let i = ref 0 in
  while !i < Page.size do
    if Bytes.get snapshot !i <> Bytes.get current !i then begin
      let start = !i in
      while
        !i < Page.size && Bytes.get snapshot !i <> Bytes.get current !i
      do
        incr i
      done;
      let len = !i - start in
      runs :=
        { addr = base + start; data = Bytes.sub_string current start len }
        :: !runs
    end
    else incr i
  done;
  List.rev !runs

(* Fast path: compare 8 bytes per step, with a 32-byte unrolled stride
   while no run is open.  Equal words are skipped with a single 64-bit
   load per buffer; only mismatching words are refined byte-by-byte, so
   run boundaries land exactly where the bytewise scan puts them.
   Requires [Page.size] to be a multiple of 8 (it is 4096).  The
   refinement loop uses [unsafe_get] — indices stay within the length
   check performed on entry.  Each run's bytes go straight into the
   builder's buffer. *)
let add_page b ~page_id ~snapshot ~current =
  if Bytes.length snapshot <> Page.size || Bytes.length current <> Page.size
  then invalid_arg "Diff.diff_page: buffers must be page-sized";
  let base = Page.base_of_id page_id in
  let first = run_total b and used0 = b.used in
  let run_start = ref (-1) in
  let close stop =
    if !run_start >= 0 then begin
      push_run b ~addr:(base + !run_start) current !run_start
        (stop - !run_start);
      run_start := -1
    end
  in
  let o = ref 0 in
  while !o < Page.size do
    if
      !run_start < 0
      && !o + 32 <= Page.size
      && Bytes.get_int64_le snapshot !o = Bytes.get_int64_le current !o
      && Bytes.get_int64_le snapshot (!o + 8) = Bytes.get_int64_le current (!o + 8)
      && Bytes.get_int64_le snapshot (!o + 16)
         = Bytes.get_int64_le current (!o + 16)
      && Bytes.get_int64_le snapshot (!o + 24)
         = Bytes.get_int64_le current (!o + 24)
    then o := !o + 32
    else if Bytes.get_int64_le snapshot !o = Bytes.get_int64_le current !o
    then begin
      (* guard the call: the equal-word path must stay call-free *)
      if !run_start >= 0 then close !o;
      o := !o + 8
    end
    else begin
      for j = !o to !o + 7 do
        if Bytes.unsafe_get snapshot j <> Bytes.unsafe_get current j then begin
          if !run_start < 0 then run_start := j
        end
        else if !run_start >= 0 then close j
      done;
      o := !o + 8
    end
  done;
  if !run_start >= 0 then close Page.size;
  end_segment b ~page_id ~first ~used0

let reset b =
  b.used <- 0;
  b.b_runs.n <- 0;
  b.b_segs.n <- 0;
  b.last_runs <- 0;
  b.last_bytes <- 0

(* Segments arrive in first-touch order; the index lists them by page
   id.  Most slices touch one page, whose index is a literal; otherwise
   the few segments are sorted. *)
let sorted_index b =
  let s = b.b_segs.a in
  match b.b_segs.n / 4 with
  | 1 -> [| s.(0); s.(1); s.(2); s.(3) |]
  | np ->
    let order = Array.init np Fun.id in
    Array.sort (fun i j -> Int.compare s.(4 * i) s.(4 * j)) order;
    let index = Array.make (4 * np) 0 in
    Array.iteri (fun k i -> Array.blit s (4 * i) index (4 * k) 4) order;
    for k = 1 to np - 1 do
      if index.(4 * k) = index.(4 * (k - 1)) then begin
        reset b;
        invalid_arg
          (Printf.sprintf "Diff.finish: page %d added twice" index.(4 * k))
      end
    done;
    index

let finish b =
  let t =
    if b.b_segs.n = 0 then empty
    else
      let index = sorted_index b in
      {
        bytes = Bytes.sub_string b.buf 0 b.used;
        runs = Array.sub b.b_runs.a 0 b.b_runs.n;
        index;
      }
  in
  reset b;
  t

let diff_page ~page_id ~snapshot ~current =
  let b = builder () in
  add_page b ~page_id ~snapshot ~current;
  finish b

let of_runs runs =
  List.iter
    (fun (r : run) ->
      let n = String.length r.data in
      if n = 0 || r.addr < 0 || Page.id_of_addr r.addr <> Page.id_of_addr (r.addr + n - 1)
      then invalid_arg "Diff.of_runs: a run must be non-empty and on one page")
    runs;
  let pages =
    List.fold_left
      (fun acc (r : run) ->
        let p = Page.id_of_addr r.addr in
        if List.exists (Int.equal p) acc then acc else p :: acc)
      [] runs
  in
  let b = builder () in
  List.iter
    (fun page_id ->
      let first = run_total b and used0 = b.used in
      List.iter
        (fun (r : run) ->
          if Page.id_of_addr r.addr = page_id then
            push_run b ~addr:r.addr (Bytes.unsafe_of_string r.data) 0
              (String.length r.data))
        runs;
      end_segment b ~page_id ~first ~used0)
    (List.rev pages);
  finish b

(* --- reading -------------------------------------------------------- *)

let run_count t = Array.length t.runs / 3

let run_at t i =
  { addr = run_addr t i; data = String.sub t.bytes (run_off t i) (run_len t i) }

let runs t = List.init (run_count t) (run_at t)

let byte_count t = String.length t.bytes

let is_empty t = run_count t = 0

let data t = t.bytes

let iter_runs t ~f =
  for i = 0 to run_count t - 1 do
    f ~addr:(run_addr t i) ~off:(run_off t i) ~len:(run_len t i)
  done

let with_data t data =
  if String.length data <> String.length t.bytes then
    invalid_arg "Diff.with_data: byte count mismatch";
  { t with bytes = data }

let page_count t = Array.length t.index / 4

let page_id = seg_page

let page_bytes = seg_bytes

let runs_by_page t =
  List.init (page_count t) (fun k ->
      ( seg_page t k,
        List.init (seg_runs t k) (fun j -> run_at t (seg_first t k + j)) ))

let pages_of_mods t =
  List.init (page_count t) (fun k -> (seg_page t k, seg_bytes t k))

(* --- applying ------------------------------------------------------- *)

(* Runs never span pages (diffs are taken page-at-a-time), so a run is
   always a single blit into the owned frame. *)
let blit_run t i frame =
  Bytes.blit_string t.bytes (run_off t i) frame
    (Page.offset_of_addr (run_addr t i))
    (run_len t i)

let apply space t =
  (* One-entry page memo: each page's runs are contiguous, so each page
     is owned once, in first-touch order. *)
  let page = ref (-1) in
  let frame = ref Bytes.empty in
  for i = 0 to run_count t - 1 do
    let p = Page.id_of_addr (run_addr t i) in
    if p <> !page then begin
      page := p;
      frame := Space.own_page space p
    end;
    blit_run t i !frame
  done

let apply_page space t k =
  let frame = Space.own_page space (seg_page t k) in
  for i = seg_first t k to seg_first t k + seg_runs t k - 1 do
    blit_run t i frame
  done

let write_page t k frame ~touched =
  let fresh = ref 0 in
  for i = seg_first t k to seg_first t k + seg_runs t k - 1 do
    blit_run t i frame;
    let o = Page.offset_of_addr (run_addr t i) in
    for j = o to o + run_len t i - 1 do
      if Bytes.get touched j = '\000' then begin
        Bytes.set touched j '\001';
        incr fresh
      end
    done
  done;
  !fresh
