(* Order statistics over host-time samples. *)

let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile exactly as Python's
   [statistics.quantiles(data, n=4)] computes them (the default
   'exclusive' method), so --compare's spreads match the acceptance
   arithmetic. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let iqr_share xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Linear-interpolated percentile, [q] in [0, 1]. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* The highest reported percentile with at least ten samples beyond it
   (p90 at 110 samples, p75 at 40); p50 when there are fewer than 20. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let q =
    match List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.99; 0.95; 0.9; 0.75 ] with
    | Some q -> q
    | None -> 0.5
  in
  (q, percentile xs q)

let minimum xs = List.fold_left Float.min Float.infinity xs
