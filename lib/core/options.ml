type monitor = Instrumentation | Page_fault

type t = {
  monitor : monitor;
  slice_merging : bool;
  prelock : bool;
  lazy_writes : bool;
  metadata_capacity : int;
  gc_threshold : float;
  skip_premain_monitoring : bool;
  bug_drop_window : (int * int) option;
  bug_lost_signal : (int * int) option;
}

let mb = 1024 * 1024

let default =
  {
    monitor = Instrumentation;
    slice_merging = true;
    prelock = true;
    lazy_writes = true;
    metadata_capacity = 256 * mb;
    gc_threshold = 0.9;
    skip_premain_monitoring = true;
    bug_drop_window = None;
    bug_lost_signal = None;
  }

let ci = default

let pf = { default with monitor = Page_fault }

let baseline_no_opt = { default with prelock = false; lazy_writes = false }

let name t =
  let base =
    match t.monitor with
    | Instrumentation -> "rfdet-ci"
    | Page_fault -> "rfdet-pf"
  in
  match t.prelock, t.lazy_writes with
  | true, true -> base
  | false, false -> base ^ "-noopt"
  | true, false -> base ^ "-prelock"
  | false, true -> base ^ "-lazy"
