(* Order statistics shared by [run] and [compare]. *)

(* First, second and third quartile by the method of Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the
   spreads this suite reports are the ones an outside check computes
   from the same values.  One value is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Distance between the first and third quartile as a share of the
   median; 0 when the median is 0. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Nearest-rank percentile, the rule the control plane's histograms
   use, for samples the suite collects itself. *)
let nearest_rank p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))
