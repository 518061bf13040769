type t = { mutable data : int array; mutable len : int; default : int }

let create ?(default = 0) hint =
  { data = Array.make (max 16 hint) default; len = 0; default }

let length t = t.len

(* [0 <= i < n] for [n >= 0] in one compare: flipping the sign bit turns
   the unsigned order into the signed one, so a negative [i] reads as
   larger than any length *)
let in_bounds (i : int) (n : int) = i lxor min_int < n lxor min_int

(* An index the tables may grow to cover.  A caller that computed the
   length [i + 1] first would see it wrap to [min_int] at [max_int], skip
   the growth and write the array's own header word. *)
let check_index fn i =
  if not (in_bounds i Sys.max_array_length) then
    invalid_arg
      (Printf.sprintf "Grow.%s: index %d outside [0, %d)" fn i
         Sys.max_array_length)

(* The one growth rule of every table: at least double, and at least
   reach [n].  The first growth of an empty table is exactly [n], so a
   table sized from a hint is exactly hint-sized.  Doubling clamps at
   [Sys.max_array_length], which [n] never exceeds.  Int comparisons,
   not the polymorphic [max]: allocators whose small stacks grow
   thousands of times per replay pay for every call here. *)
let grown_length (len : int) (n : int) =
  let doubled =
    if len > Sys.max_array_length / 2 then Sys.max_array_length else 2 * len
  in
  if n > doubled then n else doubled

let widen a ~default i =
  let n = Array.length a in
  if in_bounds i n then a
  else begin
    check_index "widen" i;
    let grown = Array.make (grown_length n (i + 1)) default in
    Array.blit a 0 grown 0 n;
    grown
  end

let widen_bytes b i =
  let n = Bytes.length b in
  if in_bounds i n then b
  else begin
    check_index "widen_bytes" i;
    let grown = Bytes.make (grown_length n (i + 1)) '\000' in
    Bytes.blit b 0 grown 0 n;
    grown
  end

(* Invariant: data.(i) = default for every i >= len, so extending the
   logical length never needs a fill pass, and growing may copy the
   whole storage. *)
let ensure t n =
  if n > Array.length t.data then begin
    if n > Sys.max_array_length then
      failwith
        (Printf.sprintf
           "Grow.ensure: requested length %d exceeds Sys.max_array_length (%d)"
           n Sys.max_array_length);
    t.data <- widen t.data ~default:t.default (n - 1)
  end;
  if n > t.len then t.len <- n

let get t i =
  if in_bounds i t.len then Array.unsafe_get t.data i
  else begin
    check_index "get" i;
    t.default
  end

let set t i x =
  if in_bounds i (Array.length t.data) then begin
    Array.unsafe_set t.data i x;
    if i >= t.len then t.len <- i + 1
  end
  else begin
    check_index "set" i;
    ensure t (i + 1);
    Array.unsafe_set t.data i x
  end

let push t x =
  let i = t.len in
  if i >= Array.length t.data then ensure t (i + 1) else t.len <- i + 1;
  Array.unsafe_set t.data i x

(* hand the storage over when it is exactly full: a table pre-sized from
   an exact hint ends its life without a copy *)
let take t =
  if t.len = Array.length t.data then t.data else Array.sub t.data 0 t.len
