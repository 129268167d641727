module Engine = Rfdet_sim.Engine
module Op = Rfdet_sim.Op
module Vec = Rfdet_util.Vec
module Vclock = Rfdet_util.Vclock
module Rt = Rfdet_core.Rfdet_runtime
module Tstate = Rfdet_core.Tstate
module Slice = Rfdet_core.Slice
module Metadata = Rfdet_core.Metadata

exception Divergence of string

let fail fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

(* Vector times are max_threads wide; print only the prefix up to the
   last nonzero component. *)
let pp_time time =
  let l = Vclock.to_list time in
  let rec trim = function
    | [] -> []
    | x :: rest -> (
      match trim rest with [] when x = 0 -> [] | t -> x :: t)
  in
  "[" ^ String.concat "," (List.map string_of_int (trim l)) ^ "]"

let fail_twice ~tid (s : Slice.t) =
  fail
    "oracle: slice %d (tid %d, time %s) appears twice in tid %d's \
     slice-pointer list"
    s.id s.tid (pp_time s.time) tid

let fail_must_not ~tid (ts : Tstate.t) (s : Slice.t) =
  fail
    "oracle: must-not violated — slice %d (tid %d, time %s) is in tid %d's \
     list but does not happen-before its time %s"
    s.id s.tid (pp_time s.time) tid (pp_time ts.time)

let fail_must ~tid (ts : Tstate.t) (s : Slice.t) =
  fail
    "oracle: must violated — slice %d (tid %d, time %s) happens-before tid %d \
     (time %s) but was never propagated to it"
    s.id s.tid (pp_time s.time) tid (pp_time ts.time)

(* A set of slice ids.  Ids are small and dense (allocation order), so
   a bitmap serves. *)
module Ids = struct
  type t = { mutable bits : Bytes.t }

  let create () = { bits = Bytes.make 8 '\000' }

  let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

  let mem t id =
    let i = id lsr 3 in
    i < Bytes.length t.bits
    && Char.code (Bytes.unsafe_get t.bits i) land (1 lsl (id land 7)) <> 0

  let add t id =
    let i = id lsr 3 in
    let n = Bytes.length t.bits in
    if i >= n then begin
      let grown = Bytes.make (if 2 * n > i then 2 * n else i + 1) '\000' in
      Bytes.blit t.bits 0 grown 0 n;
      t.bits <- grown
    end;
    let byte = Char.code (Bytes.unsafe_get t.bits i) in
    Bytes.unsafe_set t.bits i (Char.unsafe_chr (byte lor (1 lsl (id land 7))))
end

(* Never-twice and must-not over the thread's list entries from [from]
   on, adding their ids to [ids]. *)
let check_entries ~tid (ts : Tstate.t) ids ~from =
  Vec.iter_range ts.slices ~from ~until:(Vec.length ts.slices)
    ~f:(fun (s : Slice.t) ->
      if Ids.mem ids s.id then fail_twice ~tid s;
      Ids.add ids s.id;
      if not (Vclock.lt s.time ts.time) then fail_must_not ~tid ts s)

let check rt =
  let states = ref [] in
  Rt.iter_states rt ~f:(fun ~tid ts ->
      let ids = Ids.create () in
      check_entries ~tid ts ids ~from:0;
      states := (tid, ts, ids) :: !states);
  (* Completeness: every live slice ordered strictly before a thread's
     vector time must already be in that thread's list — whatever path
     (locks, barriers, joins, resume indices) should have carried it.
     Membership is tested first: a listed slice satisfies "must" whatever
     its clock, and the must-not pass has just compared it. *)
  Metadata.iter_slices (Rt.metadata rt) ~f:(fun (s : Slice.t) ->
      if not s.freed then
        List.iter
          (fun (tid, (ts : Tstate.t), ids) ->
            if (not (Ids.mem ids s.id)) && Vclock.lt s.time ts.time then
              fail_must ~tid ts s)
          !states)

(* ------------------------------------------------------------------ *)
(* The incremental checker (DESIGN.md §9)                              *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* What the checker last saw of one thread: the list, its length, a
     copy of the clock and the listed ids.  [owed] holds every live
     slice the list does not hold, as of the last check: the only slices
     whose "must" verdict a clock change can flip. *)
  type view = {
    mutable list : Slice.t Vec.t;
    mutable len : int;
    mutable clock : Vclock.t;
    ids : Ids.t;
    mutable owed : Slice.t list;
    mutable rebuilt : bool;  (* this check rebuilt the view *)
    mutable moved : bool;  (* the clock changed since the last check *)
  }

  type t = {
    mutable views : view option array;
    mutable newest : int;  (* the highest slice id checked *)
  }

  let create () = { views = [||]; newest = -1 }

  (* Whether [time] is [>=] the stored copy.  Notes in [moved] whether
     it differs, and replaces the copy when it grew. *)
  let advance v time =
    if Vclock.equal v.clock time then begin
      v.moved <- false;
      true
    end
    else begin
      v.moved <- true;
      let grown = Vclock.leq v.clock time in
      if grown then v.clock <- Vclock.copy time;
      grown
    end

  (* Phase one: never-twice and must-not over the entries the thread
     listed since the last check — or over the whole list when the view
     is rebuilt.  Older entries keep their verdict: the clock only grew. *)
  let check_list t ~tid (ts : Tstate.t) =
    let v =
      match t.views.(tid) with
      | Some v
        when v.list == ts.slices
             && Vec.length ts.slices >= v.len
             && advance v ts.time ->
        v.rebuilt <- false;
        v
      | Some v ->
        v.list <- ts.slices;
        v.len <- 0;
        v.clock <- Vclock.copy ts.time;
        Ids.clear v.ids;
        v.owed <- [];
        v.rebuilt <- true;
        v
      | None ->
        let v =
          {
            list = ts.slices;
            len = 0;
            clock = Vclock.copy ts.time;
            ids = Ids.create ();
            owed = [];
            rebuilt = true;
            moved = false;
          }
        in
        t.views.(tid) <- Some v;
        v
    in
    check_entries ~tid ts v.ids ~from:v.len;
    v.len <- Vec.length ts.slices

  (* An unlisted live slice is owed to the thread from the moment its
     clock passes the slice's; until then it stays in [owed]. *)
  let owe ~tid (ts : Tstate.t) v (s : Slice.t) =
    if (not s.freed) && not (Ids.mem v.ids s.id) then begin
      if Vclock.lt s.time ts.time then fail_must ~tid ts s;
      v.owed <- s :: v.owed
    end

  let still_owed ~tid (ts : Tstate.t) v (s : Slice.t) =
    (not s.freed)
    && (not (Ids.mem v.ids s.id))
    &&
    (if Vclock.lt s.time ts.time then fail_must ~tid ts s;
     true)

  (* Phase one for every thread, then phase two: "must".  A rebuilt view
     owes every live slice it does not list.  Otherwise a moved clock
     re-checks what was owed, and each slice newer than the last check
     is checked against the thread. *)
  let check t rt =
    if Array.length t.views = 0 then
      t.views <- Array.make (Rt.clock_size rt) None;
    let meta = Rt.metadata rt in
    match
      Rt.iter_states rt ~f:(fun ~tid ts -> check_list t ~tid ts);
      let fresh = ref [] in
      Metadata.iter_slices_after meta ~after:t.newest ~f:(fun s ->
          fresh := s :: !fresh);
      Rt.iter_states rt ~f:(fun ~tid (ts : Tstate.t) ->
          match t.views.(tid) with
          | None -> ()
          | Some v ->
            if v.rebuilt then Metadata.iter_slices meta ~f:(owe ~tid ts v)
            else begin
              if v.moved then
                v.owed <- List.filter (still_owed ~tid ts v) v.owed;
              List.iter (owe ~tid ts v) !fresh
            end);
      List.iter
        (fun (s : Slice.t) -> if s.id > t.newest then t.newest <- s.id)
        !fresh
    with
    | () -> ()
    | exception (Divergence _ as e) ->
      (* Forget every view, so the next check rebuilds and reports the
         violation again, as the full rescan would. *)
      t.views <- [||];
      raise e
end

let wrap_with_state ?opts engine =
  let rt, policy = Rt.make_with_state ?opts engine in
  let incremental = Incremental.create () in
  (* Propagation happens inside arbiter grants, which fire in [on_step]
     polls — so check after any step that involved a sync op or an exit,
     once the grants have settled. *)
  let pending = ref false in
  let handle ~tid op =
    if Op.is_sync op then pending := true;
    policy.Engine.handle ~tid op
  in
  let on_thread_exit ~tid =
    pending := true;
    policy.Engine.on_thread_exit ~tid
  in
  let on_step () =
    policy.Engine.on_step ();
    if !pending then begin
      pending := false;
      Incremental.check incremental rt
    end
  in
  let on_finish () =
    check rt;
    policy.Engine.on_finish ()
  in
  (rt, { policy with Engine.handle; on_thread_exit; on_step; on_finish })
