type run = { addr : int; data : string }

type t = run list

let empty = []

(* Reference implementation: scan for maximal runs of differing bytes,
   one byte at a time.  Kept as the oracle for the word-level fast path
   (property-tested equal) and as the baseline the microbenchmarks
   compare against. *)
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
   check performed on entry. *)
let diff_page ~page_id ~snapshot ~current =
  if Bytes.length snapshot <> Page.size || Bytes.length current <> Page.size
  then invalid_arg "Diff.diff_page: buffers must be page-sized";
  let base = Page.base_of_id page_id in
  let runs = ref [] in
  let run_start = ref (-1) in
  let close stop =
    if !run_start >= 0 then begin
      runs :=
        {
          addr = base + !run_start;
          data = Bytes.sub_string current !run_start (stop - !run_start);
        }
        :: !runs;
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
  List.rev !runs

(* Application owns each target page once and blits whole runs into the
   private frame, instead of one hashtable probe + copy-on-write check
   per byte.  Runs never span pages (diff_page works page-at-a-time), so
   a run is always a single blit. *)

let blit_run data (r : run) =
  Bytes.blit_string r.data 0 data
    (Page.offset_of_addr r.addr)
    (String.length r.data)

let apply_runs_on_page space ~page_id runs =
  match runs with
  | [] -> ()
  | runs ->
    let data = Space.own_page space page_id in
    List.iter (blit_run data) runs

let apply_run space run =
  blit_run (Space.own_page space (Page.id_of_addr run.addr)) run

let apply space t =
  (* One-entry page memo: consecutive runs land on the same page (diffs
     are in ascending in-page order), so each page is owned once. *)
  let page = ref (-1) in
  let data = ref Bytes.empty in
  List.iter
    (fun r ->
      let p = Page.id_of_addr r.addr in
      if p <> !page then begin
        page := p;
        data := Space.own_page space p
      end;
      blit_run !data r)
    t

let byte_count t = List.fold_left (fun acc r -> acc + String.length r.data) 0 t

(* Most slices touch one page and pass through as they are.  Otherwise
   a slice holds each page's runs contiguously (it concatenates per-page
   diffs), so one pass splits it into segments and only the few segments
   are sorted; a page split over two segments is joined back, so any
   list groups exactly.  (Stable-sorting all runs instead cost fft at
   32 threads half again in allocation and grant time.) *)
let runs_by_page (mods : t) =
  let page r = Page.id_of_addr r.addr in
  match mods with
  | [] -> []
  | first :: _ when List.for_all (fun r -> page r = page first) mods ->
    [ (page first, mods) ]
  | _ ->
    List.fold_left
      (fun segs r ->
        match segs with
        | (p, runs) :: rest when p = page r -> (p, r :: runs) :: rest
        | _ -> (page r, [ r ]) :: segs)
      [] mods
    |> List.rev_map (fun (p, runs) -> (p, List.rev runs))
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.fold_left
         (fun groups (p, runs) ->
           match groups with
           | (q, prev) :: rest when q = p -> (q, prev @ runs) :: rest
           | _ -> (p, runs) :: groups)
         []
    |> List.rev

(* Per-page byte totals, page id ascending — the payload of the trace's
   [Prop_page] events. *)
let pages_of_mods mods =
  List.map (fun (page, runs) -> (page, byte_count runs)) (runs_by_page mods)

let run_count = List.length

let is_empty = function [] -> true | _ :: _ -> false

let pages_touched t =
  let ids = List.map (fun r -> Page.id_of_addr r.addr) t in
  List.sort_uniq compare ids

let restrict_to_page t page_id =
  List.filter (fun r -> Page.id_of_addr r.addr = page_id) t

let concat = List.concat

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf r ->
         Format.fprintf ppf "%#x+%d" r.addr (String.length r.data)))
    t
