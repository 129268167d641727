(* A mapping points at a page frame that may be shared by several spaces
   after a fork.  [frame.refs] counts the spaces sharing it; a write
   through a shared frame first copies it (copy-on-write). *)

type frame = { data : bytes; mutable refs : int }

type mapping = { mutable frame : frame }

type t = {
  pages : (int, mapping) Hashtbl.t;
  prots : (int, protection) Hashtbl.t;
  mutable cache_id : int;  (* page-handle cache: last mapping looked up *)
  mutable cache_m : mapping;  (* meaningful iff [cache_id >= 0] *)
}

and protection = Prot_rw | Prot_read_only | Prot_none

(* Placeholder for an empty cache slot; never dereferenced because
   [cache_id = -1] matches no page id. *)
let no_mapping = { frame = { data = Bytes.empty; refs = 0 } }

let create () =
  {
    pages = Hashtbl.create 64;
    prots = Hashtbl.create 8;
    cache_id = -1;
    cache_m = no_mapping;
  }

let invalidate_cache t = t.cache_id <- -1

let fork t =
  let child = create () in
  Hashtbl.iter
    (fun id m ->
      m.frame.refs <- m.frame.refs + 1;
      Hashtbl.replace child.pages id { frame = m.frame })
    t.pages;
  (* The cached mapping record stays valid (mappings are per-space and
     [own] checks [refs] on every write), but drop it anyway: a stale
     handle held across a fork is exactly the bug class the cache could
     hide, and the next access re-warms it for free. *)
  invalidate_cache t;
  child

let fresh_frame () = { data = Bytes.make Page.size '\000'; refs = 1 }

(* Read-path lookup: never materializes a page (unmapped pages read as
   zeros and must stay unmapped — mapped-page counts feed the footprint
   numbers of Table 1). *)
let find_mapping t id =
  if t.cache_id = id then Some t.cache_m
  else
    match Hashtbl.find_opt t.pages id with
    | Some m ->
      t.cache_id <- id;
      t.cache_m <- m;
      Some m
    | None -> None

(* Write-path lookup: materializes a zero page on first touch. *)
let mapping_for t id =
  if t.cache_id = id then t.cache_m
  else begin
    let m =
      match Hashtbl.find_opt t.pages id with
      | Some m -> m
      | None ->
        let m = { frame = fresh_frame () } in
        Hashtbl.replace t.pages id m;
        m
    in
    t.cache_id <- id;
    t.cache_m <- m;
    m
  end

(* Ensure the mapping's frame is private to this space before writing.
   Cache-safe: the frame is replaced *inside* the mapping record, so a
   cached mapping can never leak a shared frame to a writer. *)
let own t id =
  let m = mapping_for t id in
  if m.frame.refs > 1 then begin
    m.frame.refs <- m.frame.refs - 1;
    let copy = { data = Bytes.copy m.frame.data; refs = 1 } in
    m.frame <- copy
  end;
  m

let own_page t id = (own t id).frame.data

let load_byte t addr =
  match find_mapping t (Page.id_of_addr addr) with
  | None -> 0
  | Some m -> Char.code (Bytes.get m.frame.data (Page.offset_of_addr addr))

let store_byte t addr v =
  let m = own t (Page.id_of_addr addr) in
  Bytes.set m.frame.data (Page.offset_of_addr addr) (Char.chr (v land 0xff))

let load_i64 t addr =
  (* Fast path when the 8 bytes sit inside one page. *)
  let off = Page.offset_of_addr addr in
  if off <= Page.size - 8 then
    match find_mapping t (Page.id_of_addr addr) with
    | None -> 0L
    | Some m -> Bytes.get_int64_le m.frame.data off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (load_byte t (addr + i)))
    done;
    !v
  end

let store_i64 t addr v =
  let off = Page.offset_of_addr addr in
  if off <= Page.size - 8 then begin
    let m = own t (Page.id_of_addr addr) in
    Bytes.set_int64_le m.frame.data off v
  end
  else
    for i = 0 to 7 do
      store_byte t (addr + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

let load_int t addr = Int64.to_int (load_i64 t addr)

let store_int t addr v = store_i64 t addr (Int64.of_int v)

(* String I/O works page-segment-at-a-time: one ownership / lookup and
   one blit per page crossed, instead of per byte. *)

let blit_string t ~addr s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Page.offset_of_addr a in
    let n = min (len - !pos) (Page.size - off) in
    let m = own t (Page.id_of_addr a) in
    Bytes.blit_string s !pos m.frame.data off n;
    pos := !pos + n
  done

let read_string t ~addr ~len =
  if len <= 0 then ""
  else begin
    let buf = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let off = Page.offset_of_addr a in
      let n = min (len - !pos) (Page.size - off) in
      (match find_mapping t (Page.id_of_addr a) with
      | Some m -> Bytes.blit m.frame.data off buf !pos n
      | None -> Bytes.fill buf !pos n '\000');
      pos := !pos + n
    done;
    Bytes.unsafe_to_string buf
  end

let zero_page = Bytes.make Page.size '\000'

let snapshot_page_into t id buf =
  if Bytes.length buf <> Page.size then
    invalid_arg "Space.snapshot_page_into: buffer must be page-sized";
  match find_mapping t id with
  | None -> Bytes.fill buf 0 Page.size '\000'
  | Some m -> Bytes.blit m.frame.data 0 buf 0 Page.size

let page_bytes t id =
  match find_mapping t id with None -> zero_page | Some m -> m.frame.data

let write_page t id data =
  if Bytes.length data <> Page.size then
    invalid_arg "Space.write_page: wrong page size";
  let m = own t id in
  Bytes.blit data 0 m.frame.data 0 Page.size

let page_is_mapped t id = Hashtbl.mem t.pages id

let owned_pages t =
  Hashtbl.fold (fun _ m acc -> if m.frame.refs = 1 then acc + 1 else acc) t.pages 0

let mapped_pages t = Hashtbl.length t.pages

let iter_pages t ~f = Hashtbl.iter (fun id _ -> f id) t.pages

let protect t id p =
  match p with
  | Prot_rw -> Hashtbl.remove t.prots id
  | Prot_read_only | Prot_none -> Hashtbl.replace t.prots id p

let protection t id =
  match Hashtbl.find_opt t.prots id with Some p -> p | None -> Prot_rw

let clear_protections t = Hashtbl.reset t.prots
