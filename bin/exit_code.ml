(* The exit statuses of the rfdet binary, in one table.  Every command
   leaves through [exit], [fail], [guard] or [replay_error], and [infos]
   hands the same entries to cmdliner, so each --help lists exactly the
   codes the binary returns. *)

module Cmd = Cmdliner.Cmd
module Engine = Rfdet_sim.Engine
module Session = Rfdet_replay.Session

type t = { code : int; doc : string }

let entry code doc = { code; doc }

let ok = entry 0 "on success."

let check_failed =
  entry 1
    "when a check fails: $(b,faults) or $(b,clinic) finds nondeterminism, \
     $(b,check) finds a failing schedule, $(b,races --shrink) cannot \
     minimize a repro, or $(b,bench) finds a traced run whose signature \
     differs from the untraced run."

let deadlock = entry 2 "when the simulated program deadlocks."

let thread_failure =
  entry 3
    "when a simulated thread fails and the run aborts (no fault plan, or \
     $(b,--fault-mode abort))."

let runaway =
  entry 4
    "when a run exceeds the engine's operation budget (a livelocked policy \
     or an unbounded loop)."

let unrecoverable =
  entry 5
    "on an unrecoverable failure, such as metadata corruption that cannot \
     be re-derived."

let critical_path =
  entry 7
    "when a request's critical-path segments do not sum to its latency \
     ($(b,spans))."

let corrupt_journal =
  entry 8 "on a corrupt journal frame ($(b,replay), $(b,races --journal))."

let torn_journal =
  entry 9
    "on a torn journal tail that $(b,replay) was not told to $(b,--recover)."

let diverged =
  entry 10
    "when a replay does not reproduce its recording: $(b,replay) diverges \
     from the journal's decisions or trailer, repeated replays disagree, or \
     a $(b,check --replay) trace fails."

let usage =
  entry 64
    "on a usage error: a bad option value, an unreadable input file or an \
     unusable run header."

let table =
  [
    ok; check_failed; deadlock; thread_failure; runaway; unrecoverable;
    critical_path; corrupt_journal; torn_journal; diverged; usage;
  ]

let infos =
  List.map (fun t -> Cmd.Exit.info t.code ~doc:t.doc) table
  @ [
      Cmd.Exit.info Cmd.Exit.cli_error ~doc:"on command line parsing errors.";
      Cmd.Exit.info Cmd.Exit.internal_error
        ~doc:"on unexpected internal errors (bugs).";
    ]

let exit t = Stdlib.exit t.code

(* print "rfdet: MESSAGE" on stderr and exit with [t] *)
let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("rfdet: " ^ msg);
      exit t)
    fmt

(* Engine failures escape as exceptions; turn them into a one-line
   diagnostic and their exit code instead of a backtrace. *)
let guard f =
  try f () with
  | Engine.Deadlock msg -> fail deadlock "deadlock: %s" msg
  | Engine.Thread_failure (tid, e) ->
    fail thread_failure "thread %d failed: %s" tid (Printexc.to_string e)
  | Engine.Runaway ->
    fail runaway
      "runaway execution: exceeded the engine's max_ops budget \
       (livelocked policy or unbounded loop)"
  | Engine.Fatal e ->
    fail unrecoverable "unrecoverable: %s"
      (match e with Failure m -> m | e -> Printexc.to_string e)

(* Journal failures keep distinct codes so CI can gate on "loud, and
   loud in the right way".  Silent divergence is the one outcome that
   must be impossible. *)
let replay_error e =
  let t =
    match e with
    | Session.E_corrupt _ -> corrupt_journal
    | Session.E_torn _ -> torn_journal
    | Session.E_unreadable _ | Session.E_bad_header _ -> usage
    | Session.E_diverged _ | Session.E_mismatch _ -> diverged
  in
  fail t "%s" (Session.describe_error e)
