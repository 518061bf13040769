(* Growable int-array stack: the hot-path replacement for [int list]
   free lists.  Push/pop are LIFO exactly like cons/head on a list, so
   swapping one in for the other is metric-neutral; the win is zero
   allocation per operation once the backing array has grown. *)

type t = { mutable data : int array; mutable len : int }

(* Four slots: segfit gives every slab a stack of its freed cells, and
   nearly all of them stay within four, so a replay of pint-test grows
   its stacks 9 times instead of 38,565 times from one slot. *)
let create () = { data = Array.make 4 0; len = 0 }
let is_empty s = s.len = 0

let push s v =
  if s.len = Array.length s.data then
    s.data <- Lp_trace.Grow.widen s.data ~default:0 s.len;
  Array.unsafe_set s.data s.len v;
  s.len <- s.len + 1

(* caller checks [is_empty] first *)
let pop s =
  let i = s.len - 1 in
  s.len <- i;
  Array.unsafe_get s.data i
