(* The boxed P² estimator, retained verbatim as the reference
   implementation for the equivalence property in test_perf.ml.

   This is the code lib/quantile/p2.ml shipped before the allocation-free
   rewrite: [parabolic] and [linear] return boxed floats and the cell
   search builds a [find] closure.  The production estimator must do the
   same float operations in the same order, so its marker heights stay
   bit-identical to these for every observation sequence; qcheck drives
   both and compares the bits.

   Do not "clean up" or optimize this module: its value is that it stays
   frozen while the production estimator evolves. *)

(* Jain & Chlamtac's P-square algorithm (CACM 28(10), 1985).

   Five markers track (min, p/2, p, (1+p)/2, max).  Marker i has a height
   [q.(i)], an actual position [n.(i)] (how many observations lie at or below
   it), and a desired position [n'.(i)].  After each observation, interior
   markers whose actual position has drifted at least one slot away from the
   desired position are moved one slot and their height is re-estimated with
   the piecewise-parabolic formula, falling back to linear interpolation when
   the parabolic estimate would break monotonicity. *)

type t = {
  p : float;
  q : float array;         (* marker heights,   length 5 *)
  n : int array;           (* marker positions, length 5, 1-based *)
  np : float array;        (* desired positions *)
  dn : float array;        (* desired-position increments *)
  init : float array;      (* first five observations, collected unsorted *)
  mutable count : int;
}

let create p =
  if not (p > 0. && p < 1.) then
    invalid_arg "P2.create: quantile must lie strictly between 0 and 1";
  {
    p;
    q = Array.make 5 0.;
    n = [| 1; 2; 3; 4; 5 |];
    np = [| 1.; 1. +. (2. *. p); 1. +. (4. *. p); 3. +. (2. *. p); 5. |];
    dn = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
    init = Array.make 5 0.;
    count = 0;
  }

let count t = t.count
let p t = t.p

(* Parabolic prediction of the height of marker [i] moved by [d] (±1). *)
let parabolic t i d =
  let q = t.q and n = t.n in
  let fi = float_of_int in
  let d = fi d in
  q.(i)
  +. d
     /. fi (n.(i + 1) - n.(i - 1))
     *. ((fi (n.(i) - n.(i - 1)) +. d)
         *. (q.(i + 1) -. q.(i))
         /. fi (n.(i + 1) - n.(i))
        +. (fi (n.(i + 1) - n.(i)) -. d)
           *. (q.(i) -. q.(i - 1))
           /. fi (n.(i) - n.(i - 1)))

let linear t i d =
  let q = t.q and n = t.n in
  q.(i) +. float_of_int d *. (q.(i + d) -. q.(i)) /. float_of_int (n.(i + d) - n.(i))

let observe t x =
  if t.count < 5 then begin
    t.init.(t.count) <- x;
    t.count <- t.count + 1;
    if t.count = 5 then begin
      Array.blit t.init 0 t.q 0 5;
      Array.sort compare t.q
    end
  end
  else begin
    t.count <- t.count + 1;
    (* Locate the cell containing x and clamp the extreme markers. *)
    let k =
      if x < t.q.(0) then begin
        t.q.(0) <- x;
        0
      end
      else if x >= t.q.(4) then begin
        t.q.(4) <- x;
        3
      end
      else begin
        let rec find i = if x < t.q.(i + 1) then i else find (i + 1) in
        find 0
      end
    in
    for i = k + 1 to 4 do
      t.n.(i) <- t.n.(i) + 1
    done;
    for i = 0 to 4 do
      t.np.(i) <- t.np.(i) +. t.dn.(i)
    done;
    (* Adjust interior markers. *)
    for i = 1 to 3 do
      let d = t.np.(i) -. float_of_int t.n.(i) in
      if
        (d >= 1. && t.n.(i + 1) - t.n.(i) > 1)
        || (d <= -1. && t.n.(i - 1) - t.n.(i) < -1)
      then begin
        let d = if d >= 0. then 1 else -1 in
        let qp = parabolic t i d in
        let q' =
          if t.q.(i - 1) < qp && qp < t.q.(i + 1) then qp else linear t i d
        in
        t.q.(i) <- q';
        t.n.(i) <- t.n.(i) + d
      end
    done
  end

(* Exact quantile of a small sorted sample, by linear interpolation between
   order statistics (used until the estimator has its five markers). *)
let small_sample_quantile sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let quantile t =
  if t.count = 0 then invalid_arg "P2.quantile: no observations";
  if t.count < 5 then begin
    let sample = Array.sub t.init 0 t.count in
    Array.sort compare sample;
    small_sample_quantile sample t.p
  end
  else t.q.(2)

let min t =
  if t.count = 0 then invalid_arg "P2.min: no observations";
  if t.count < 5 then Array.fold_left Stdlib.min t.init.(0) (Array.sub t.init 0 t.count)
  else t.q.(0)

let max t =
  if t.count = 0 then invalid_arg "P2.max: no observations";
  if t.count < 5 then Array.fold_left Stdlib.max t.init.(0) (Array.sub t.init 0 t.count)
  else t.q.(4)
