module Vclock = Rfdet_util.Vclock
module Page = Rfdet_mem.Page

type t = {
  capacity : int;
  gc_threshold : float;
  mutable slices : Slice.t list;  (* live, reversed insertion order *)
  mutable next_id : int;
  mutable usage : int;
  mutable peak : int;
  mutable open_snapshots : int;
  mutable runs : int;
  mutable rearm_at : int;
      (* after a GC, do not run again until usage grows past this —
         prevents thrashing when little can be freed (e.g. a parent
         thread sleeping in join pins the frontier) *)
  mutable free_bufs : bytes list;
      (* pool of page-sized scratch buffers (snapshots, touch bitmaps):
         steady-state slicing recycles these instead of allocating a
         fresh 4 KiB buffer per first-touch store *)
  mutable free_buf_count : int;
}

(* Enough for every open snapshot of a heavily-slicing run; beyond this
   buffers are dropped to the GC rather than hoarded. *)
let pool_cap = 128

let create ~capacity ~gc_threshold =
  if capacity <= 0 then invalid_arg "Metadata.create: capacity <= 0";
  if gc_threshold <= 0. || gc_threshold > 1. then
    invalid_arg "Metadata.create: threshold out of (0,1]";
  {
    capacity;
    gc_threshold;
    slices = [];
    next_id = 0;
    usage = 0;
    peak = 0;
    open_snapshots = 0;
    runs = 0;
    rearm_at = 0;
    free_bufs = [];
    free_buf_count = 0;
  }

let alloc_page_buf t =
  match t.free_bufs with
  | b :: rest ->
    t.free_bufs <- rest;
    t.free_buf_count <- t.free_buf_count - 1;
    b
  | [] -> Bytes.create Page.size

let release_page_buf t b =
  if Bytes.length b <> Page.size then
    invalid_arg "Metadata.release_page_buf: buffer must be page-sized";
  if t.free_buf_count < pool_cap then begin
    t.free_bufs <- b :: t.free_bufs;
    t.free_buf_count <- t.free_buf_count + 1
  end

let bump t delta =
  t.usage <- t.usage + delta;
  if t.usage > t.peak then t.peak <- t.usage

let add_slice t (slice : Slice.t) =
  (match t.slices with
  | (newest : Slice.t) :: _ when newest.id >= slice.id ->
    invalid_arg "Metadata.add_slice: slice ids must increase"
  | _ -> ());
  t.slices <- slice :: t.slices;
  bump t (Slice.footprint slice)

let fresh_slice_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let snapshot_taken t =
  t.open_snapshots <- t.open_snapshots + 1;
  bump t Page.size

let snapshot_released t =
  assert (t.open_snapshots > 0);
  t.open_snapshots <- t.open_snapshots - 1;
  t.usage <- t.usage - Page.size

let usage t = t.usage

let peak t = t.peak

let needs_gc t =
  float_of_int t.usage >= t.gc_threshold *. float_of_int t.capacity
  && t.usage >= t.rearm_at

let gc t ~frontier =
  t.runs <- t.runs + 1;
  let examined = List.length t.slices in
  let freed = ref 0 in
  let keep =
    List.filter
      (fun (s : Slice.t) ->
        if Vclock.leq s.time frontier then begin
          Slice.free s;
          t.usage <- t.usage - Slice.footprint s;
          incr freed;
          false
        end
        else true)
      t.slices
  in
  t.slices <- keep;
  (* re-arm only after usage grows by 10% of capacity beyond what this
     sweep left behind *)
  t.rearm_at <- t.usage + (t.capacity / 10);
  (examined, !freed)

let gc_runs t = t.runs

let live_slices t = List.length t.slices

let iter_slices t ~f = List.iter f t.slices

let iter_slices_after t ~after ~f =
  let rec go = function
    | (s : Slice.t) :: rest when s.id > after ->
      f s;
      go rest
    | _ -> ()
  in
  go t.slices

let capacity t = t.capacity
