module Vclock = Rfdet_util.Vclock
module Vec = Rfdet_util.Vec
module Diff = Rfdet_mem.Diff
module Space = Rfdet_mem.Space
module Cost = Rfdet_sim.Cost
module Profile = Rfdet_sim.Profile

let scan_cost_per_slice = 2

(* Lazy writes defer only pages carrying at least this many pending
   bytes: smaller payloads are cheaper to apply eagerly than to fault in
   later (a refinement over the paper, whose all-pages policy is
   strictly worse whenever payloads are small). *)
let lazy_min_bytes = 512

(* Self-verifying metadata: recompute the slice digest before applying.
   A mismatch means the stored modification bytes were silently damaged
   (Engine.I_corrupt, or a real memory error in a deployment).  The
   slice is quarantined and re-derived from the publisher's live space;
   when the publisher has since overwritten those addresses the payload
   is unrecoverable and the run must fail loudly and deterministically
   rather than propagate garbage. *)
let verify ~obs ~at ~cost ~(prof : Profile.t) ~(from : Tstate.t)
    ~(into : Tstate.t) (s : Slice.t) =
  let check_cycles = (s.bytes / 8) + 1 in
  if Slice.verify s then check_cycles
  else begin
    prof.corruptions_detected <- prof.corruptions_detected + 1;
    prof.quarantines <- prof.quarantines + 1;
    let data = Bytes.create s.bytes in
    Diff.iter_runs s.mods ~f:(fun ~addr ~off ~len ->
        Bytes.blit_string (Space.read_string from.shared ~addr ~len) 0 data off len);
    let repair_cycles = (s.bytes * cost.Cost.apply_byte) + check_cycles in
    let emit action cycles =
      if Rfdet_obs.Sink.enabled obs then
        Rfdet_obs.Sink.emit obs ~tid:into.tid ~time:at
          (Rfdet_obs.Trace.Recovery { action; target = s.id; attempt = 1; cycles })
    in
    emit "quarantine" 0;
    if Slice.rederive s (Diff.with_data s.mods (Bytes.unsafe_to_string data))
    then begin
      (* the publisher's space still holds the slice's exact bytes *)
      emit "rederive" repair_cycles;
      check_cycles + repair_cycles
    end
    else
      raise
        (Rfdet_sim.Engine.Fatal
           (Failure
              (Printf.sprintf
                 "metadata corruption: slice #%d (tid %d, %d bytes) failed \
                  checksum verification and could not be re-derived from the \
                  publisher's space"
                 s.id s.tid s.bytes)))
  end

let apply_eager ~cost ~(into : Tstate.t) (s : Slice.t) =
  Diff.apply into.shared s.mods;
  s.bytes * cost.Cost.apply_byte

let apply_lazy ~cost ~(into : Tstate.t) (s : Slice.t) =
  (* Pages carrying a substantial payload are queued and access-revoked
     so the first touch faults the updates in; small payloads are cheaper
     to write now than to trap on later, so they apply eagerly (see
     [lazy_min_bytes]). *)
  let cycles = ref 0 in
  let deferred = ref false in
  for k = 0 to Diff.page_count s.mods - 1 do
    let page = Diff.page_id s.mods k in
    let bytes = Diff.page_bytes s.mods k in
    (* A page that already has deferred updates must keep receiving
       them in order, whatever the payload size. *)
    if bytes >= lazy_min_bytes || Tstate.has_pending into page then begin
      Tstate.add_pending into s.mods k;
      Space.protect into.shared page Space.Prot_none;
      deferred := true;
      cycles := !cycles + 25
    end
    else begin
      Diff.apply_page into.shared s.mods k;
      cycles := !cycles + (bytes * cost.Cost.apply_byte)
    end
  done;
  (* one mprotect call covers the whole deferred page set *)
  if !deferred then cycles := !cycles + cost.Cost.mprotect_page;
  !cycles

let admits ~upper ~lower (s : Slice.t) =
  Vclock.get lower s.tid < s.epoch && s.epoch <= Vclock.get upper s.tid

let run ?(drop = false) ?(obs = Rfdet_obs.Sink.null) ?(at = 0) ~cost
    ~(opts : Options.t) ~(prof : Profile.t) ~(from : Tstate.t) ~(upto : int)
    ~(into : Tstate.t) ~upper ~lower () =
  assert (from.tid <> into.tid);
  let cycles = ref 0 in
  let start = Tstate.resume_index into ~from:from.tid in
  Vec.iter_range from.slices ~from:start ~until:upto ~f:(fun (s : Slice.t) ->
      if not s.freed then begin
        cycles := !cycles + scan_cost_per_slice;
        if admits ~upper ~lower s then begin
          if drop then
            (* Options.bug_drop_window active (test only): lose the slice
               — neither applied nor recorded, and the resume index still
               advances, so it is gone for good. *)
            ()
          else begin
            cycles := !cycles + verify ~obs ~at ~cost ~prof ~from ~into s;
            let apply_cycles =
              if opts.lazy_writes then apply_lazy ~cost ~into s
              else apply_eager ~cost ~into s
            in
            cycles := !cycles + apply_cycles;
            Tstate.append_slice into s;
            prof.slices_propagated <- prof.slices_propagated + 1;
            prof.bytes_propagated <- prof.bytes_propagated + s.bytes;
            if Rfdet_obs.Sink.enabled obs then begin
              let vc = Vclock.to_array into.time in
              let pages = Diff.pages_of_mods s.mods in
              List.iter
                (fun (page, bytes) ->
                  Rfdet_obs.Sink.emit obs ~tid:into.tid ~time:at ~vc
                    (Rfdet_obs.Trace.Prop_page { page; bytes }))
                pages;
              Rfdet_obs.Sink.emit obs ~tid:into.tid ~time:at ~vc
                (Rfdet_obs.Trace.Propagate
                   {
                     slice = s.id;
                     src = from.tid;
                     pages = List.length pages;
                     bytes = s.bytes;
                     cycles = apply_cycles;
                   })
            end
          end
        end
      end);
  if upto > start then Tstate.set_resume_index into ~from:from.tid upto;
  !cycles
