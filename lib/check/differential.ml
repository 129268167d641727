module Engine = Rfdet_sim.Engine
module Runner = Rfdet_harness.Runner
module Workload = Rfdet_workloads.Workload
module Registry = Rfdet_workloads.Registry
module Dlrc_model = Rfdet_core.Dlrc_model

type report = {
  workload : string;
  threads : int;
  signatures : (string * string) list;
  unstable : string list;
  disagree : (string * string * string * string) option;
  expect_agree : bool;
  model_diverged : bool;
  ok : bool;
}

let runtimes =
  [ Runner.rfdet_ci; Runner.rfdet_pf; Runner.Coredet; Runner.Dthreads ]

let default_seeds = [ 1L; 7L; 1234L ]

(* The reference model has no Runner constructor (it is a test oracle,
   not a benchmarked runtime), so drive the engine directly.  It is
   compared with rfdet-ci, so it takes rfdet-ci's slice-merging rule. *)
let model_signature ~threads ~scale ~input_seed (wl : Workload.t) =
  let wcfg = { Workload.threads; scale; input_seed } in
  let model =
    Dlrc_model.make_with ~slice_merging:Rfdet_core.Options.ci.slice_merging
  in
  Engine.output_signature (Engine.run model ~main:(wl.Workload.main wcfg))

let check ?(threads = 2) ?(scale = 1.0) ?(input_seed = 42L)
    ?(seeds = default_seeds) ?(jitter = 9.0) ?(expect_agree = true)
    ?(model = true) ?(jobs = 1) (wl : Workload.t) =
  (* Flatten the runtime x scheduler-seed matrix, run the cells on up to
     [jobs] domains (each Runner.run builds a fresh engine), and regroup
     in matrix order — per_rt is identical for every job count. *)
  let cells =
    List.concat_map (fun rt -> List.map (fun s -> (rt, s)) seeds) runtimes
  in
  let sigs =
    Rfdet_par.Par.map_ordered ~jobs
      (fun (rt, sched_seed) ->
        (Runner.run ~threads ~scale ~input_seed ~sched_seed ~jitter rt wl)
          .Runner.signature)
      cells
  in
  let width = List.length seeds in
  let rec regroup rts sigs =
    match rts with
    | [] -> []
    | rt :: rest ->
      let this = List.filteri (fun i _ -> i < width) sigs in
      let after = List.filteri (fun i _ -> i >= width) sigs in
      (Runner.runtime_name rt, this) :: regroup rest after
  in
  let per_rt = regroup runtimes sigs in
  let signatures = List.map (fun (n, sigs) -> (n, List.hd sigs)) per_rt in
  let unstable =
    List.filter_map
      (fun (n, sigs) ->
        if List.for_all (( = ) (List.hd sigs)) sigs then None else Some n)
      per_rt
  in
  let disagree =
    match signatures with
    | [] -> None
    | (n0, s0) :: rest ->
      List.find_opt (fun (_, s) -> s <> s0) rest
      |> Option.map (fun (n, s) -> (n0, s0, n, s))
  in
  let model_diverged =
    model
    &&
    let ms = model_signature ~threads ~scale ~input_seed wl in
    match List.assoc_opt "rfdet-ci" signatures with
    | Some s -> ms <> s
    | None -> false
  in
  let ok =
    unstable = []
    && (not model_diverged)
    && ((not expect_agree) || disagree = None)
  in
  {
    workload = wl.Workload.name;
    threads;
    signatures;
    unstable;
    disagree;
    expect_agree;
    model_diverged;
    ok;
  }

let race_free_suite ?(threads = 2) ?(jobs = 1) () =
  List.map (fun wl -> check ~threads ~jobs wl) Registry.micro

let racy_suite ?(threads = 2) ?(jobs = 1) () =
  [ check ~threads ~jobs ~expect_agree:false (Registry.find "racey") ]

let pp_report ppf r =
  let short s = if String.length s > 12 then String.sub s 0 12 else s in
  Format.fprintf ppf "%-14s %d threads: %s" r.workload r.threads
    (if r.ok then "ok" else "FAIL");
  List.iter
    (fun (n, s) -> Format.fprintf ppf " %s=%s" n (short s))
    r.signatures;
  if r.unstable <> [] then
    Format.fprintf ppf " unstable:[%s]" (String.concat "," r.unstable);
  (match r.disagree with
  | Some (a, sa, b, sb) when r.expect_agree ->
    Format.fprintf ppf " disagree: %s=%s vs %s=%s" a (short sa) b (short sb)
  | _ -> ());
  if r.model_diverged then Format.fprintf ppf " model-diverged"
