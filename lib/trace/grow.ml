type t = { mutable data : int array; mutable len : int; default : int }

let create ?(default = 0) hint =
  { data = Array.make (max 16 hint) default; len = 0; default }

let length t = t.len

(* Invariant: data.(i) = default for every i >= len, so extending the
   logical length never needs a fill pass. *)
let ensure t n =
  if n > Array.length t.data then begin
    (* The doubling must clamp at [Sys.max_array_length]: a plain
       [cap := 2 * !cap] wraps negative for huge [n], escapes the loop
       and dies inside [Array.make] with a context-free error. *)
    if n > Sys.max_array_length then
      failwith
        (Printf.sprintf
           "Grow.ensure: requested length %d exceeds Sys.max_array_length (%d)"
           n Sys.max_array_length);
    let cap = ref (Array.length t.data) in
    while n > !cap do
      cap :=
        if !cap >= Sys.max_array_length / 2 then Sys.max_array_length
        else 2 * !cap
    done;
    let grown = Array.make !cap t.default in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  if n > t.len then t.len <- n

let get t i = if i < t.len then Array.unsafe_get t.data i else t.default

let set t i x =
  ensure t (i + 1);
  Array.unsafe_set t.data i x

let push t x = set t t.len x
(* hand the storage over when it is exactly full: a table pre-sized from
   an exact hint ends its life without a copy *)
let take t =
  if t.len = Array.length t.data then t.data else Array.sub t.data 0 t.len
