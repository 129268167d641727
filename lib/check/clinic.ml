module Engine = Rfdet_sim.Engine
module Workload = Rfdet_workloads.Workload
module Fault_plan = Rfdet_fault.Fault_plan
module Runner = Rfdet_harness.Runner

type outcome = Completed | Aborted of string

type cell = {
  runtime : string;
  mode : Engine.failure_mode;
  index : int;
  outcome : outcome;
  deterministic : bool;
  restarts : int;
  conformant : bool option;
}

type summary = {
  workload : string;
  cells : cell list;
  sites : int;
  hangs : int;  (** always 0 on return — a hang raises [Engine.Runaway] *)
  nondeterministic : int;
  aborted : int;
  nonconformant : int;
}

(* One run with the crash plan.  An RFDet run under Contain or Recover
   runs under the DLRC conformance oracle, with the recovery manager
   attached when the mode asks for it.  Mid-run divergence is then
   itself contained as a thread crash, so conformance is judged by (1)
   no crash record mentioning Divergence and (2) a final-state
   [Oracle.check] pass. *)
let run_once ~mode ~plan ~threads ~scale runtime workload =
  let spec =
    Runner.spec ~threads ~scale ~faults:plan ~failure_mode:mode runtime
      workload
  in
  let state = ref None in
  let hooks =
    match runtime with
    | Runner.Rfdet _ when mode <> Engine.Abort ->
      {
        Runner.no_hooks with
        policy =
          Runner.Rfdet_with
            (fun opts engine ->
              let st, policy = Oracle.wrap_with_state ~opts engine in
              state := Some st;
              (st, policy));
      }
    | _ -> Runner.no_hooks
  in
  let r = Runner.exec ~hooks spec in
  let diverged_inline =
    List.exists
      (fun (_, msg) ->
        (* substring search: crash records carry Printexc text *)
        let needle = "Divergence" in
        let n = String.length needle and m = String.length msg in
        let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
        at 0)
      r.Engine.crashes
  in
  let final_ok =
    match !state with
    | None -> true
    | Some st -> (
      match Oracle.check st with
      | () -> true
      | exception Oracle.Divergence _ -> false)
  in
  (Engine.output_signature r, r.Engine.profile.restarts,
   (not diverged_inline) && final_ok)

(* Inject one crash at global operation index [k] (deterministic at
   jitter 0), run the same configuration twice, and compare.  [op_class]
   narrows the counter to one operation class — e.g. [Cond_op] probes
   the k-th condvar operation, landing crashes inside wait/signal
   protocols that a global index rarely hits. *)
let probe ?(op_class = Fault_plan.Any_op) ~mode ~threads ~scale runtime
    workload ~index =
  let plan =
    [ { Fault_plan.tid = None; op = op_class; nth = index;
        action = Fault_plan.Crash } ]
  in
  let attempt () = run_once ~mode ~plan ~threads ~scale runtime workload in
  let is_rfdet = match runtime with Runner.Rfdet _ -> true | _ -> false in
  match attempt () with
  | sig1, restarts, ok1 ->
    let deterministic, ok2 =
      match attempt () with
      | sig2, _, ok2 -> (String.equal sig1 sig2, ok2)
      | exception _ -> (false, true)
    in
    {
      runtime = Runner.runtime_name runtime;
      mode;
      index;
      outcome = Completed;
      deterministic;
      restarts;
      conformant = (if is_rfdet then Some (ok1 && ok2) else None);
    }
  | exception e ->
    let text = Printexc.to_string e in
    let deterministic =
      match attempt () with
      | _ -> false
      | exception e2 -> String.equal text (Printexc.to_string e2)
    in
    {
      runtime = Runner.runtime_name runtime;
      mode;
      index;
      outcome = Aborted text;
      deterministic;
      restarts = 0;
      conformant = None;
    }

let default_runtimes =
  [ Runner.Pthreads; Runner.Kendo; Runner.Dthreads; Runner.Coredet;
    Runner.rfdet_ci ]

let sweep ?(op_class = Fault_plan.Any_op) ?(threads = 3) ?(scale = 1.0)
    ?(modes = [ Engine.Contain; Engine.Recover ])
    ?(runtimes = default_runtimes) ?(max_sites = 500) ?(jobs = 1) workload =
  (* bound the sweep by the clean run's operation count; a class-targeted
     sweep has fewer eligible sites than global ops, so indices past the
     class count simply probe the clean run (still checked for
     determinism) — cap them with [max_sites] *)
  let clean =
    Runner.run ~threads ~scale ~sched_seed:1L ~jitter:0. Runner.Pthreads
      workload
  in
  let sites = min clean.Runner.ops max_sites in
  (* Flatten the runtime x mode x site grid in its nesting order; every
     probe is a pure function of its coordinates (both attempts build
     fresh engines), so the cells can be probed on concurrent domains
     and collected back in grid order. *)
  let grid =
    List.concat_map
      (fun runtime ->
        List.concat_map
          (fun mode ->
            List.init sites (fun i -> (runtime, mode, i + 1)))
          modes)
      runtimes
  in
  let cells =
    Rfdet_par.Par.map_ordered ~jobs
      (fun (runtime, mode, index) ->
        probe ~op_class ~mode ~threads ~scale runtime workload ~index)
      grid
  in
  let count f = List.length (List.filter f cells) in
  {
    workload = workload.Workload.name;
    cells;
    sites;
    hangs = 0;
    nondeterministic = count (fun c -> not c.deterministic);
    aborted = count (fun c -> match c.outcome with Aborted _ -> true | _ -> false);
    nonconformant = count (fun c -> c.conformant = Some false);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "clinic %s: %d sites x %d cells; aborted=%d nondeterministic=%d \
     nonconformant=%d"
    s.workload s.sites (List.length s.cells) s.aborted s.nondeterministic
    s.nonconformant;
  List.iter
    (fun c ->
      if (not c.deterministic) || c.conformant = Some false then
        Format.fprintf ppf "@.  FAIL %s/%s k=%d det=%b conformant=%s" c.runtime
          (Engine.failure_mode_name c.mode) c.index c.deterministic
          (match c.conformant with
          | None -> "n/a"
          | Some b -> string_of_bool b))
    s.cells
