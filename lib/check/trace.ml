module Runner = Rfdet_harness.Runner
module Engine = Rfdet_sim.Engine
module Fault_plan = Rfdet_fault.Fault_plan

let format_version = 1

type header = {
  workload : string;
  threads : int;
  scale : float;
  input_seed : int64;
  sched_seed : int64;
  jitter : float;
  runtime : string;
  fault_mode : string;
  fault_plan : string option;
}

type t = {
  header : header;
  choices : int list;
  expect : string option;
  note : string option;
}

let fields_to_string kvs =
  String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") kvs)

let fields_of_string text =
  String.split_on_char '\n' text
  |> List.filter_map (fun raw ->
         let line = String.trim raw in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some i ->
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             Some (String.sub line 0 i, String.trim rest))

(* the line of an optional value *)
let opt key v = Option.to_list (Option.map (fun v -> (key, v)) v)

let field ~what kvs key conv =
  match List.assoc_opt key kvs with
  | None -> failwith (Printf.sprintf "%s is missing %S" what key)
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> failwith (Printf.sprintf "%s %s has a bad value %S" what key v))

let header_to_string h =
  fields_to_string
    ([
       ("format", string_of_int format_version);
       ("workload", h.workload);
       ("threads", string_of_int h.threads);
       ("scale", Printf.sprintf "%h" h.scale);
       ("input-seed", Int64.to_string h.input_seed);
       ("sched-seed", Int64.to_string h.sched_seed);
       ("jitter", Printf.sprintf "%h" h.jitter);
       ("runtime", h.runtime);
       ("fault-mode", h.fault_mode);
     ]
    @ opt "fault-plan" h.fault_plan)

(* raises [Failure] naming the offending key *)
let parse_header kvs =
  let get key conv = field ~what:"header" kvs key conv in
  let format = get "format" int_of_string_opt in
  if format <> format_version then
    failwith
      (Printf.sprintf "unsupported format %d (this build reads %d)" format
         format_version);
  {
    workload = get "workload" Option.some;
    threads = get "threads" int_of_string_opt;
    scale = get "scale" float_of_string_opt;
    input_seed = get "input-seed" Int64.of_string_opt;
    sched_seed = get "sched-seed" Int64.of_string_opt;
    jitter = get "jitter" float_of_string_opt;
    runtime = get "runtime" Option.some;
    fault_mode = get "fault-mode" Option.some;
    fault_plan = List.assoc_opt "fault-plan" kvs;
  }

let header_of_string text =
  try Ok (parse_header (fields_of_string text)) with Failure e -> Error e

let header_of_spec (s : Runner.spec) =
  {
    workload = s.workload.Rfdet_workloads.Workload.name;
    threads = s.threads;
    scale = s.scale;
    input_seed = s.input_seed;
    sched_seed = s.sched_seed;
    jitter = s.jitter;
    runtime = Runner.cli_name s.runtime;
    fault_mode = Engine.failure_mode_name s.fault_mode;
    fault_plan = Option.map Fault_plan.to_string s.faults;
  }

let spec_of_header h =
  let ( let* ) = Result.bind in
  let* workload =
    match Rfdet_workloads.Registry.find h.workload with
    | wl -> Ok wl
    | exception Invalid_argument e -> Error e
  in
  let* runtime =
    match Runner.runtime_of_name h.runtime with
    | Some r -> Ok r
    | None -> Error (Printf.sprintf "unknown runtime %S" h.runtime)
  in
  let* fault_mode =
    match List.assoc_opt h.fault_mode Engine.failure_modes with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown fault mode %S" h.fault_mode)
  in
  let* faults =
    match h.fault_plan with
    | None -> Ok None
    | Some p -> (
      match Fault_plan.parse p with
      | Ok plan -> Ok (Some plan)
      | Error e -> Error (Printf.sprintf "bad fault plan in header: %s" e))
  in
  Ok
    {
      Runner.workload;
      runtime;
      threads = h.threads;
      scale = h.scale;
      input_seed = h.input_seed;
      sched_seed = h.sched_seed;
      jitter = h.jitter;
      fault_mode;
      faults;
    }

let to_string t =
  header_to_string t.header
  ^ fields_to_string
      (("choices", String.concat " " (List.map string_of_int t.choices))
       :: (opt "expect" t.expect @ opt "note" t.note))

let tids v =
  String.split_on_char ' ' v
  |> List.filter (fun s -> s <> "")
  |> List.fold_left
       (fun acc s ->
         match (acc, int_of_string_opt s) with
         | Some acc, Some tid -> Some (tid :: acc)
         | _ -> None)
       (Some [])
  |> Option.map List.rev

let of_string text =
  let kvs = fields_of_string text in
  try
    let header = parse_header kvs in
    Ok
      {
        header;
        choices = field ~what:"trace" kvs "choices" tids;
        expect = List.assoc_opt "expect" kvs;
        note = List.assoc_opt "note" kvs;
      }
  with Failure e -> Error e

let save t ~path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string t))

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
