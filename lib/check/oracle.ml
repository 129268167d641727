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

(* Per-thread checks: never-twice and must-not.  Returns the set of
   slice ids in the thread's list for the completeness pass. *)
let check_state ~tid (ts : Tstate.t) =
  let ids = Hashtbl.create 64 in
  Vec.iter ts.Tstate.slices ~f:(fun (s : Slice.t) ->
      if Hashtbl.mem ids s.Slice.id then
        fail
          "oracle: slice %d (tid %d, time %s) appears twice in tid %d's \
           slice-pointer list"
          s.Slice.id s.Slice.tid (pp_time s.Slice.time) tid;
      Hashtbl.replace ids s.Slice.id ();
      if not (Vclock.lt s.Slice.time ts.Tstate.time) then
        fail
          "oracle: must-not violated — slice %d (tid %d, time %s) is in tid \
           %d's list but does not happen-before its time %s"
          s.Slice.id s.Slice.tid (pp_time s.Slice.time) tid
          (pp_time ts.Tstate.time));
  ids

let check rt =
  let states = ref [] in
  Rt.iter_states rt ~f:(fun ~tid ts ->
      states := (tid, ts, check_state ~tid ts) :: !states);
  (* Completeness: every live slice ordered strictly before a thread's
     vector time must already be in that thread's list — whatever path
     (locks, barriers, joins, resume indices) should have carried it.
     Membership is tested first: a listed slice satisfies "must" whatever
     its clock, and the must-not pass has just compared it. *)
  Metadata.iter_slices (Rt.metadata rt) ~f:(fun (s : Slice.t) ->
      if not s.Slice.freed then
        List.iter
          (fun (tid, (ts : Tstate.t), ids) ->
            if
              (not (Hashtbl.mem ids s.Slice.id))
              && Vclock.lt s.Slice.time ts.Tstate.time
            then
              fail
                "oracle: must violated — slice %d (tid %d, time %s) \
                 happens-before tid %d (time %s) but was never propagated \
                 to it"
                s.Slice.id s.Slice.tid (pp_time s.Slice.time) tid
                (pp_time ts.Tstate.time))
          !states)

let wrap_with_state ?opts engine =
  let rt, policy = Rt.make_with_state ?opts engine in
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
      check rt
    end
  in
  let on_finish () =
    check rt;
    policy.Engine.on_finish ()
  in
  (rt, { policy with Engine.handle; on_thread_exit; on_step; on_finish })

let wrap ?opts engine = snd (wrap_with_state ?opts engine)
