(* 4.2BSD (Kingsley) power-of-two buckets, hot-path representation.

   Each size class keeps its free payload addresses in a growable int-array
   stack instead of an [int list] (no cons cell per free, no pointer chase
   per alloc), and the payload->class index is a direct-address byte map
   keyed by [(payload - base - header) / 16] — every payload sits at a
   16-byte-aligned block start plus the 8-byte header, so the key is
   injective — in place of the seed's hashtable.  Pop/push order is LIFO
   exactly like the list representation and pages are carved in the same
   address order, so placements and Cost_model charges are byte-identical
   to the seed (golden-metrics test).  The class map grows with the break
   and is leased from a per-domain {!Scratch.pool}. *)

let header = 8
let page = 4096
let min_class = 4 (* 2^4 = 16 bytes *)
let max_class = 30

type t = {
  base : int;
  lease : Bytes.t Scratch.lease;
  buckets : Int_stack.t array;  (* size class -> free payload addresses, LIFO *)
  mutable class_of : Bytes.t;  (* (payload-base-header)/16 -> class + 1; 0 = free *)
  mutable brk : int;
  mutable alloc_instr : int;
  mutable free_instr : int;
  mutable allocs : int;
  mutable frees : int;
}

(* a fresh class map is all zero; [release] restores that on what a
   replay wrote *)
let pool = Scratch.pool (fun () -> Bytes.make 256 '\000')

let create ?(base = 0) () =
  let lease = Scratch.lease pool in
  {
    base;
    lease;
    buckets = Array.init (max_class + 1) (fun _ -> Int_stack.create ());
    class_of = Scratch.leased lease;
    brk = base;
    alloc_instr = 0;
    free_instr = 0;
    allocs = 0;
    frees = 0;
  }

(* the smallest class from [c] up whose blocks hold [need] bytes; at top
   level, so a call allocates no closure *)
let rec smallest_class need c =
  if 1 lsl c >= need then c else smallest_class need (c + 1)

let class_for size = smallest_class (size + header) min_class

(* grow the class map to cover the current break *)
let ensure_map t =
  t.class_of <-
    Lp_trace.Grow.widen_bytes t.class_of (((t.brk - t.base) lsr 4) - 1)

let alloc t size =
  if size <= 0 then invalid_arg "Bsd.alloc: size must be positive";
  t.allocs <- t.allocs + 1;
  t.alloc_instr <- t.alloc_instr + Cost_model.bsd_alloc_base;
  let c = class_for size in
  if c > max_class then invalid_arg "Bsd.alloc: size too large";
  let bucket = t.buckets.(c) in
  if Int_stack.is_empty bucket then begin
    (* carve a page (or one block if larger than a page) *)
    t.alloc_instr <- t.alloc_instr + Cost_model.bsd_carve_page;
    let block = 1 lsl c in
    let span = max page block in
    let start = t.brk in
    t.brk <- t.brk + span;
    ensure_map t;
    let n = span / block in
    (* highest cell first: pops then hand out ascending addresses, the
       order the list representation carved them *)
    for i = n - 1 downto 0 do
      Int_stack.push bucket (start + (i * block) + header)
    done
  end;
  let payload = Int_stack.pop bucket in
  Bytes.unsafe_set t.class_of ((payload - t.base - header) lsr 4)
    (Char.unsafe_chr (c + 1));
  payload

let free t payload =
  let off = payload - t.base - header in
  let idx = off lsr 4 in
  if off < 0 || off land 15 <> 0 || idx >= Bytes.length t.class_of then
    invalid_arg "Bsd.free: not an allocated address";
  let c = Char.code (Bytes.unsafe_get t.class_of idx) - 1 in
  if c < 0 then invalid_arg "Bsd.free: not an allocated address";
  Bytes.unsafe_set t.class_of idx '\000';
  t.frees <- t.frees + 1;
  t.free_instr <- t.free_instr + Cost_model.bsd_free;
  Int_stack.push t.buckets.(c) payload

(* A power-of-two block already spans its whole class, so any resize that
   stays in the class is absorbed in place (the header rewrite is the
   driver's Cost_model.realloc_in_place charge); a class change is a free
   plus an alloc, whose copy the driver bills. *)
let realloc t payload ~new_size =
  if new_size <= 0 then invalid_arg "Bsd.realloc: size must be positive";
  let off = payload - t.base - header in
  let idx = off lsr 4 in
  if off < 0 || off land 15 <> 0 || idx >= Bytes.length t.class_of then
    invalid_arg "Bsd.realloc: not an allocated address";
  let c = Char.code (Bytes.unsafe_get t.class_of idx) - 1 in
  if c < 0 then invalid_arg "Bsd.realloc: not an allocated address";
  let c' = class_for new_size in
  if c' > max_class then invalid_arg "Bsd.realloc: size too large";
  if c' = c then payload
  else begin
    free t payload;
    alloc t new_size
  end

let max_heap_size t = t.brk - t.base
let alloc_instr t = t.alloc_instr
let free_instr t = t.free_instr
let allocs t = t.allocs
let frees t = t.frees

let charge_alloc t n = t.alloc_instr <- t.alloc_instr + n

(* payload slots lie below the break *)
let release t =
  Bytes.fill t.class_of 0
    (min (Bytes.length t.class_of) ((t.brk - t.base) lsr 4))
    '\000';
  Scratch.give_back t.lease t.class_of

let backend () : Backend.t =
  (module struct
    type nonrec t = t

    let name = "bsd"
    let uses_prediction = false
    let create ?base () = create ?base ()
    let release = release
    let alloc t ~size ~predicted:_ = alloc t size
    let free = free

    let realloc =
      Some
        (fun t ~addr ~old_size:_ ~new_size ~predicted:_ ->
          realloc t addr ~new_size)

    let charge_alloc = charge_alloc
    let allocs = allocs
    let frees = frees
    let alloc_instr = alloc_instr
    let free_instr = free_instr
    let max_heap_size = max_heap_size
    let extra _ = Metrics.Core
    let check_invariants _ = ()
  end)
