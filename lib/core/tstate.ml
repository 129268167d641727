module Space = Rfdet_mem.Space
module Diff = Rfdet_mem.Diff
module Vclock = Rfdet_util.Vclock
module Vec = Rfdet_util.Vec

type t = {
  tid : int;
  shared : Space.t;
  stack : Space.t;
  time : Vclock.t;
  slices : Slice.t Vec.t;
  resume : (int, int) Hashtbl.t;
  snapshots : (int, bytes) Hashtbl.t;
  mutable touch_order : int list;
  lazy_pending : (int, (Diff.t * int) list) Hashtbl.t;
  mutable final_stamp : Vclock.t option;
  mutable exit_len : int;
  mutable joined : bool;
  mutable monitoring : bool;
}

let create_root ~clock_size ~monitoring =
  {
    tid = 0;
    shared = Space.create ();
    stack = Space.create ();
    time = Vclock.create clock_size;
    slices = Vec.create ();
    resume = Hashtbl.create 8;
    snapshots = Hashtbl.create 32;
    touch_order = [];
    lazy_pending = Hashtbl.create 8;
    final_stamp = None;
    exit_len = 0;
    joined = false;
    monitoring;
  }

let fork parent ~tid ~stamp =
  assert (Hashtbl.length parent.lazy_pending = 0);
  let time = Vclock.copy stamp in
  ignore (Vclock.tick time tid);
  let resume = Hashtbl.copy parent.resume in
  (* The child has seen every slice its parent ever closed. *)
  Hashtbl.replace resume parent.tid (Vec.length parent.slices);
  {
    tid;
    shared = Space.fork parent.shared;
    stack = Space.create ();
    time;
    slices = Vec.copy parent.slices;
    resume;
    snapshots = Hashtbl.create 32;
    touch_order = [];
    lazy_pending = Hashtbl.create 8;
    final_stamp = None;
    exit_len = 0;
    joined = false;
    monitoring = true;
  }

let adopt_view ~leader ~follower =
  assert (Hashtbl.length leader.lazy_pending = 0);
  let resume = Hashtbl.copy leader.resume in
  Hashtbl.replace resume leader.tid (Vec.length leader.slices);
  {
    follower with
    shared = Space.fork leader.shared;
    slices = Vec.copy leader.slices;
    resume;
    snapshots = Hashtbl.create 32;
    touch_order = [];
    lazy_pending = Hashtbl.create 8;
  }

let append_slice t s = Vec.push t.slices s

let resume_index t ~from =
  Option.value (Hashtbl.find_opt t.resume from) ~default:0

let set_resume_index t ~from idx = Hashtbl.replace t.resume from idx

let has_open_snapshot t page = Hashtbl.mem t.snapshots page

let add_snapshot t page data =
  Hashtbl.replace t.snapshots page data;
  t.touch_order <- page :: t.touch_order

let has_pending t page = Hashtbl.mem t.lazy_pending page

let add_pending t d k =
  let page = Diff.page_id d k in
  let existing = Option.value (Hashtbl.find_opt t.lazy_pending page) ~default:[] in
  Hashtbl.replace t.lazy_pending page ((d, k) :: existing)

(* Own the page once, then blit each segment; the bitmap counts each
   distinct byte once however many segments write it. *)
let flush_pending t page ~touched =
  match Hashtbl.find_opt t.lazy_pending page with
  | None -> 0
  | Some rev ->
    Hashtbl.remove t.lazy_pending page;
    Bytes.fill touched 0 (Bytes.length touched) '\000';
    let frame = Space.own_page t.shared page in
    List.fold_left
      (fun distinct (d, k) -> distinct + Diff.write_page d k frame ~touched)
      0 (List.rev rev)

let pending_pages t =
  Hashtbl.fold (fun page _ acc -> page :: acc) t.lazy_pending []
  |> List.sort compare

let exited t = t.final_stamp <> None
