type t = {
  mutable slots : int array;  (* per slot: chain, size, id (-1: empty) *)
  mutable mask : int;  (* slot count - 1 *)
  mutable chains : int array;  (* id -> chain *)
  mutable sizes : int array;  (* id -> size *)
  mutable n : int;
}

let create ?(capacity = 256) () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := 2 * !cap
  done;
  {
    slots = Array.init (3 * !cap) (fun i -> if i mod 3 = 2 then -1 else 0);
    mask = !cap - 1;
    chains = Array.make 64 0;
    sizes = Array.make 64 0;
    n = 0;
  }

let length t = t.n
let chain t id = t.chains.(id)
let size t id = t.sizes.(id)
let chains t = Array.sub t.chains 0 t.n
let sizes t = Array.sub t.sizes 0 t.n

(* The offset of the slot holding the pair, or of the empty slot where it
   would go.  A slot's three ints share a cache line; emptiness is the id,
   not a reserved chain value, so every pair — corrupt traces' included —
   is a valid key. *)
let slot slots mask chain size =
  let i = ref (((chain * 0x9E3779B1) lxor (size * 0x85EBCA77)) land mask) in
  while
    let b = 3 * !i in
    Array.unsafe_get slots (b + 2) >= 0
    && not
         (Array.unsafe_get slots b = chain
         && Array.unsafe_get slots (b + 1) = size)
  do
    i := (!i + 1) land mask
  done;
  3 * !i

(* [slot] written out again: this probe runs once per replayed
   allocation, and a hit should cost no call beyond [find] itself *)
let find t chain size =
  let slots = t.slots and mask = t.mask in
  let i = ref (((chain * 0x9E3779B1) lxor (size * 0x85EBCA77)) land mask) in
  let id = ref (-2) in
  while !id = -2 do
    let b = 3 * !i in
    let slot_id = Array.unsafe_get slots (b + 2) in
    if
      slot_id < 0
      || (Array.unsafe_get slots b = chain
         && Array.unsafe_get slots (b + 1) = size)
    then id := slot_id
    else i := (!i + 1) land mask
  done;
  !id

let place slots b chain size id =
  Array.unsafe_set slots b chain;
  Array.unsafe_set slots (b + 1) size;
  Array.unsafe_set slots (b + 2) id

let grow_slots t =
  let cap = 2 * (t.mask + 1) in
  let slots = Array.init (3 * cap) (fun i -> if i mod 3 = 2 then -1 else 0) in
  let mask = cap - 1 in
  for id = 0 to t.n - 1 do
    let chain = t.chains.(id) and size = t.sizes.(id) in
    place slots (slot slots mask chain size) chain size id
  done;
  t.slots <- slots;
  t.mask <- mask

let grow_ids t =
  let grown a =
    let a' = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 a' 0 t.n;
    a'
  in
  t.chains <- grown t.chains;
  t.sizes <- grown t.sizes

let rec intern t chain size =
  let b = slot t.slots t.mask chain size in
  let id = Array.unsafe_get t.slots (b + 2) in
  if id >= 0 then id
  else if 2 * (t.n + 1) > t.mask + 1 then begin
    (* keep the load factor at most 1/2 so probe runs stay short *)
    grow_slots t;
    intern t chain size
  end
  else begin
    let id = t.n in
    if id = Array.length t.chains then grow_ids t;
    t.chains.(id) <- chain;
    t.sizes.(id) <- size;
    t.n <- id + 1;
    place t.slots b chain size id;
    id
  end

let clear t =
  for i = 0 to t.mask do
    Array.unsafe_set t.slots ((3 * i) + 2) (-1)
  done;
  t.n <- 0
