type quartiles = {
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

(* all-float, so the record is stored flat and updating it boxes nothing *)
type floats = { mutable lo : float; mutable hi : float; mutable sum : float }

type t = {
  q25e : P2.t;
  q50e : P2.t;
  q75e : P2.t;
  f : floats;
  mutable total_weight : int;
}

let create () =
  {
    q25e = P2.create 0.25;
    q50e = P2.create 0.50;
    q75e = P2.create 0.75;
    f = { lo = infinity; hi = neg_infinity; sum = 0. };
    total_weight = 0;
  }

(* the estimators are independent, so each takes its [n] repetitions in
   one loop *)
let observe_n t n x =
  for _ = 1 to n do
    P2.observe t.q25e x
  done;
  for _ = 1 to n do
    P2.observe t.q50e x
  done;
  for _ = 1 to n do
    P2.observe t.q75e x
  done

let observe t x =
  let f = t.f in
  if x < f.lo then f.lo <- x;
  if x > f.hi then f.hi <- x;
  t.total_weight <- t.total_weight + 1;
  f.sum <- f.sum +. x;
  observe_n t 1 x

let observe_weighted t ~weight x =
  if weight <= 0 then invalid_arg "Histogram.observe_weighted: weight must be positive";
  let f = t.f in
  if x < f.lo then f.lo <- x;
  if x > f.hi then f.hi <- x;
  t.total_weight <- t.total_weight + weight;
  f.sum <- f.sum +. (float_of_int weight *. x);
  (* Feed a logarithmic number of repetitions: enough for the markers to move
     in proportion to the weight without O(weight) cost.  The repetition
     count is 1 + floor(log2 weight), preserving the relative ordering of
     light and heavy observations. *)
  let rec reps acc w = if w <= 1 then acc else reps (acc + 1) (w lsr 1) in
  observe_n t (reps 1 weight) x

let count t = t.total_weight

let quartiles t =
  if t.total_weight = 0 then invalid_arg "Histogram.quartiles: no observations";
  (* The three P² estimators are independent, so their approximation
     errors are too: on adversarial orderings the raw 25% estimate can
     land above the raw median.  Repair to monotone with the median
     anchored — each estimate stays within the observed range because
     every P² marker does. *)
  let median = P2.quantile t.q50e in
  {
    min = t.f.lo;
    q25 = Float.min (P2.quantile t.q25e) median;
    median;
    q75 = Float.max (P2.quantile t.q75e) median;
    max = t.f.hi;
  }

let mean t =
  if t.total_weight = 0 then invalid_arg "Histogram.mean: no observations";
  t.f.sum /. float_of_int t.total_weight

let pp_quartiles ppf q =
  Format.fprintf ppf "{min=%.0f; q25=%.0f; median=%.0f; q75=%.0f; max=%.0f}" q.min
    q.q25 q.median q.q75 q.max
