(* --- page buffers ------------------------------------------------------ *)

(* A stack of returned buffers: releasing one allocates nothing. *)
type pool = { bufs : bytes array; mutable free : int }

(* Enough for every open twin of a heavily-slicing run; beyond this
   buffers are dropped to the GC rather than hoarded. *)
let pool_cap = 128

let pool () = { bufs = Array.make pool_cap Bytes.empty; free = 0 }

let alloc p =
  if p.free = 0 then Bytes.create Page.size
  else begin
    p.free <- p.free - 1;
    let b = p.bufs.(p.free) in
    p.bufs.(p.free) <- Bytes.empty;
    b
  end

let release p b =
  if Bytes.length b <> Page.size then
    invalid_arg "Twins.release: buffer must be page-sized";
  if p.free < pool_cap then begin
    p.bufs.(p.free) <- b;
    p.free <- p.free + 1
  end

(* --- twin sets --------------------------------------------------------- *)

(* [lo, hi) are the page offsets the owner's stores covered. *)
type twin = { page : int; snapshot : bytes; mutable lo : int; mutable hi : int }

(* Page ids are small non-negative ints: hash them as themselves. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash id = id land max_int
end)

type t = {
  pool : pool;
  table : twin Tbl.t;
  mutable order : twin array;  (* first-touch order, [0, count) *)
  mutable count : int;
  mutable last : twin;  (* the last twin found or taken, or [no_twin] *)
}

(* The empty cache slot: no page id is negative, and nothing writes it
   ([widen] checks for it first), so runs on different domains may
   share it. *)
let no_twin = { page = -1; snapshot = Bytes.empty; lo = 0; hi = 0 }

let create pool =
  {
    pool;
    table = Tbl.create 32;
    order = Array.make 8 no_twin;
    count = 0;
    last = no_twin;
  }

let sibling t = create t.pool

let pool_of t = t.pool

let count t = t.count

let find t page =
  if t.last.page = page then t.last
  else if t.count = 0 then no_twin
  else
    match Tbl.find t.table page with
    | tw ->
      t.last <- tw;
      tw
    | exception Not_found -> no_twin

let widen t ~page ~lo ~hi =
  let tw = find t page in
  if tw == no_twin then false
  else begin
    if lo < tw.lo then tw.lo <- lo;
    if hi > tw.hi then tw.hi <- hi;
    true
  end

let take t space ~page ~lo ~hi =
  let snapshot = alloc t.pool in
  Space.snapshot_page_into space page snapshot;
  let tw = { page; snapshot; lo; hi } in
  Tbl.add t.table page tw;
  if t.count = Array.length t.order then begin
    let bigger = Array.make (2 * t.count) no_twin in
    Array.blit t.order 0 bigger 0 t.count;
    t.order <- bigger
  end;
  t.order.(t.count) <- tw;
  t.count <- t.count + 1;
  t.last <- tw

(* The scan window: [lo, hi) widened outward to whole words. *)
let word_lo tw = tw.lo land lnot 7

let word_hi tw = (tw.hi + 7) land lnot 7

let iter t ~f =
  for i = 0 to t.count - 1 do
    let tw = t.order.(i) in
    f ~page:tw.page ~snapshot:tw.snapshot ~lo:(word_lo tw) ~hi:(word_hi tw)
  done

(* Return every buffer, forget every twin. *)
let clear t =
  for i = 0 to t.count - 1 do
    release t.pool t.order.(i).snapshot;
    t.order.(i) <- no_twin
  done;
  t.count <- 0;
  t.last <- no_twin;
  Tbl.reset t.table

let diff t space b ~f =
  let n = t.count in
  for i = 0 to n - 1 do
    let tw = t.order.(i) in
    Diff.add_window b ~page_id:tw.page ~snapshot:tw.snapshot
      ~current:(Space.page_bytes space tw.page)
      ~lo:(word_lo tw) ~hi:(word_hi tw);
    f tw.page
  done;
  clear t;
  n

let drop t ~restore =
  let n = t.count in
  (match restore with
  | None -> ()
  | Some space ->
    for i = 0 to n - 1 do
      let tw = t.order.(i) in
      Space.write_page space tw.page tw.snapshot
    done);
  clear t;
  n
