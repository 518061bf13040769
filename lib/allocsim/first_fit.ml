(* First-fit / best-fit core, hot-path representation.

   Block metadata lives in one flat int array, stride 8 per block: a
   "block" is the int offset of its record, and the address list and free
   list are intrusive index links inside the array.  The sentinel nil is
   record 0.  Compared to linked records of options this removes every
   source of per-operation overhead at once: no option boxing, no
   polymorphic equality on cyclic structures (a latent [Stack_overflow]
   hazard), no OCaml heap allocation (split/coalesce recycle records
   through an in-array pool chained on the fnext field), and — the big one
   — no [caml_modify] write barrier, since every link update is a plain
   int store.  The allocated-payload index is likewise a direct-address
   int array ([(payload - base) / 8 -> block offset], 0 = none) in place
   of the seed's hashtable.

   Both tables are leased from a per-domain {!Scratch.pool} and given
   back by [release], so a candidate sweep reuses one pair per domain.

   The representation is the ONLY thing that changed: placement order,
   rover semantics and every Cost_model charge are byte-identical to the
   seed implementation, enforced by test/golden_metrics.expected and the
   qcheck equivalence suite against test/ff_reference.ml. *)

module Grow = Lp_trace.Grow

let header = 8
let min_block = 16

(* field offsets within a block record; stride 8 keeps offset arithmetic a
   shift and rounds the record to a cache line on 64-bit *)
let f_addr = 0 (* start of the block, header included *)
let f_size = 1 (* total bytes, header included *)
let f_free = 2 (* 1 = free *)
let f_prev = 3 (* address-ordered list links, 0-terminated *)
let f_next = 4
let f_fprev = 5 (* free-list links, 0-terminated; fnext doubles as the pool chain *)
let f_fnext = 6
let stride = 8
let nil = 0

type policy = First | Best

(* the leased tables: [store] and [by_payload] below *)
type tables = { blocks : int array; payloads : int array }

type t = {
  base : int;
  lease : tables Scratch.lease;
  sbrk_chunk : int;
  policy : policy;
  mutable store : int array;  (* block records; record 0 is the sentinel *)
  mutable store_len : int;  (* offset of the first never-used record *)
  mutable pool : int;  (* recycled records chained on f_fnext, 0 = empty *)
  mutable first : int;  (* lowest-address block, or nil *)
  mutable last : int;  (* highest-address block, or nil *)
  mutable free_head : int;
  mutable rover : int;
  mutable brk : int;
  mutable max_brk : int;
  mutable by_payload : int array;  (* (payload - base) / 8 -> block, 0 = none *)
  mutable live : int;
  mutable alloc_instr : int;
  mutable free_instr : int;
  mutable allocs : int;
  mutable frees : int;
}

(* Both tables start small and grow on demand ([new_block],
   [ensure_map]): a replay pays for the blocks and the break it reaches,
   not for zero-filling tables sized by the trace's object count. *)
let initial_blocks = 64

let pool =
  Scratch.pool (fun () ->
      {
        blocks = Array.make (initial_blocks * stride) 0;
        payloads = Array.make initial_blocks 0;
      })

let default_sbrk_chunk = 8192

let create ?(base = 0) ?(sbrk_chunk = default_sbrk_chunk) ?(policy = First) () =
  let lease = Scratch.lease pool in
  let { blocks = store; payloads = by_payload } = Scratch.leased lease in
  store.(f_addr) <- -1 (* the sentinel never matches a real address *);
  {
    base;
    lease;
    sbrk_chunk;
    policy;
    store;
    store_len = stride;
    pool = nil;
    first = nil;
    last = nil;
    free_head = nil;
    rover = nil;
    brk = base;
    max_brk = base;
    by_payload;
    live = 0;
    alloc_instr = 0;
    free_instr = 0;
    allocs = 0;
    frees = 0;
  }

let round8 n = (n + 7) land lnot 7

(* field accessors: small enough for the non-flambda inliner *)
let get t b f = Array.unsafe_get t.store (b + f)
let set t b f v = Array.unsafe_set t.store (b + f) v

(* -- the pooled block store ------------------------------------------------- *)

let new_block t ~addr ~size =
  let b =
    if t.pool <> nil then begin
      let b = t.pool in
      t.pool <- get t b f_fnext;
      b
    end
    else begin
      if t.store_len = Array.length t.store then
        t.store <- Grow.widen t.store ~default:0 (t.store_len + stride - 1);
      let b = t.store_len in
      t.store_len <- t.store_len + stride;
      b
    end
  in
  set t b f_addr addr;
  set t b f_size size;
  set t b f_free 1;
  set t b f_prev nil;
  set t b f_next nil;
  set t b f_fprev nil;
  set t b f_fnext nil;
  b

let recycle t b =
  set t b f_fnext t.pool;
  t.pool <- b

(* -- the payload index ------------------------------------------------------ *)

(* grow the direct-address map to cover the current break *)
let ensure_map t =
  t.by_payload <-
    Grow.widen t.by_payload ~default:0 (((t.brk - t.base) lsr 3) - 1)

(* -- free-list maintenance ------------------------------------------------- *)

let free_list_insert t b =
  set t b f_fprev nil;
  set t b f_fnext t.free_head;
  if t.free_head <> nil then set t t.free_head f_fprev b;
  t.free_head <- b;
  if t.rover = nil then t.rover <- b

let free_list_remove t b =
  let fp = get t b f_fprev and fn = get t b f_fnext in
  if fp <> nil then set t fp f_fnext fn else t.free_head <- fn;
  if fn <> nil then set t fn f_fprev fp;
  (* the rover must not point at a removed block *)
  if t.rover = b then t.rover <- (if fn <> nil then fn else t.free_head);
  set t b f_fprev nil;
  set t b f_fnext nil

(* -- address-list maintenance ----------------------------------------------- *)

(* insert [b] after [anchor]; [anchor = nil] means at the front *)
let insert_after t anchor b =
  if anchor = nil then begin
    set t b f_prev nil;
    set t b f_next t.first;
    if t.first <> nil then set t t.first f_prev b;
    t.first <- b;
    if t.last = nil then t.last <- b
  end
  else begin
    let an = get t anchor f_next in
    set t b f_prev anchor;
    set t b f_next an;
    if an <> nil then set t an f_prev b else t.last <- b;
    set t anchor f_next b
  end

let remove_block t b =
  let p = get t b f_prev and n = get t b f_next in
  if p <> nil then set t p f_next n else t.first <- n;
  if n <> nil then set t n f_prev p else t.last <- p

(* -- allocation -------------------------------------------------------------- *)

let split t b request =
  (* carve the front [request] bytes out of free block [b]; b must satisfy
     size >= request.  Returns the allocated block. *)
  let bsize = get t b f_size in
  if bsize >= request + min_block then begin
    t.alloc_instr <- t.alloc_instr + Cost_model.ff_split;
    let remainder =
      new_block t ~addr:(get t b f_addr + request) ~size:(bsize - request)
    in
    set t b f_size request;
    insert_after t b remainder;
    free_list_insert t remainder
  end;
  free_list_remove t b;
  set t b f_free 0;
  b

let sbrk t need =
  (* extend the break so at least [need] more free bytes exist at the end *)
  let grow = (need + t.sbrk_chunk - 1) / t.sbrk_chunk * t.sbrk_chunk in
  t.alloc_instr <- t.alloc_instr + Cost_model.ff_sbrk;
  let start = t.brk in
  t.brk <- t.brk + grow;
  if t.brk > t.max_brk then t.max_brk <- t.brk;
  ensure_map t;
  (* merge with a trailing free block if any; the sentinel's free flag is
     0, so an empty list takes the fresh-block path *)
  let l = t.last in
  if get t l f_free = 1 then begin
    set t l f_size (get t l f_size + grow);
    l
  end
  else begin
    let b = new_block t ~addr:start ~size:grow in
    insert_after t t.last b;
    free_list_insert t b;
    b
  end

let alloc t size =
  if size <= 0 then invalid_arg "First_fit.alloc: size must be positive";
  let request = max min_block (round8 (size + header)) in
  t.allocs <- t.allocs + 1;
  let found = ref nil in
  let inspected = ref 0 in
  (match t.policy with
  | Best ->
      (* best fit: scan the whole free list for the tightest block *)
      let cur = ref t.free_head in
      while !cur <> nil do
        let b = !cur in
        incr inspected;
        let bsize = get t b f_size in
        if bsize >= request && (!found = nil || get t !found f_size > bsize)
        then found := b;
        cur := get t b f_fnext
      done
  | First ->
      (* roving first-fit over the free list, wrapping once *)
      let start = if t.rover <> nil then t.rover else t.free_head in
      if start <> nil then begin
        let cur = ref start in
        let wrapped = ref false in
        let continue = ref true in
        while !continue do
          let b = !cur in
          if b = nil then begin
            if !wrapped then continue := false
            else begin
              wrapped := true;
              cur := t.free_head;
              (* if the free list is empty now, stop *)
              if t.free_head = nil then continue := false
            end
          end
          else begin
            incr inspected;
            if get t b f_size >= request then begin
              found := b;
              continue := false
            end
            else begin
              let fn = get t b f_fnext in
              cur := fn;
              if !wrapped && (fn = start || fn = nil) then continue := false
            end
          end
        done
      end);
  t.alloc_instr <-
    t.alloc_instr + Cost_model.ff_alloc_base
    + (!inspected * Cost_model.ff_per_inspect);
  let b = if !found <> nil then !found else sbrk t request in
  (* advance the rover past the chosen block *)
  let fn = get t b f_fnext in
  t.rover <- (if fn <> nil then fn else t.free_head);
  let b = split t b request in
  let payload = get t b f_addr + header in
  Array.unsafe_set t.by_payload ((payload - t.base) lsr 3) b;
  t.live <- t.live + get t b f_size;
  payload

(* -- free ---------------------------------------------------------------------- *)

let free t payload =
  let off = payload - t.base in
  let idx = off lsr 3 in
  if off < header || off land 7 <> 0 || idx >= Array.length t.by_payload then
    invalid_arg "First_fit.free: not an allocated address";
  let b = Array.unsafe_get t.by_payload idx in
  if b = nil then invalid_arg "First_fit.free: not an allocated address";
  Array.unsafe_set t.by_payload idx 0;
  t.frees <- t.frees + 1;
  t.free_instr <- t.free_instr + Cost_model.ff_free_base;
  t.live <- t.live - get t b f_size;
  set t b f_free 1;
  (* coalesce with next *)
  let n = get t b f_next in
  if get t n f_free = 1 then begin
    t.free_instr <- t.free_instr + Cost_model.ff_coalesce;
    free_list_remove t n;
    remove_block t n;
    set t b f_size (get t b f_size + get t n f_size);
    recycle t n
  end;
  (* coalesce with prev *)
  let p = get t b f_prev in
  if get t p f_free = 1 then begin
    t.free_instr <- t.free_instr + Cost_model.ff_coalesce;
    remove_block t b;
    set t p f_size (get t p f_size + get t b f_size);
    recycle t b
  end
  else free_list_insert t b

(* -- accessors ------------------------------------------------------------------ *)

let heap_size t = t.brk - t.base
let max_heap_size t = t.max_brk - t.base
let live_bytes t = t.live
let alloc_instr t = t.alloc_instr
let free_instr t = t.free_instr
let allocs t = t.allocs
let frees t = t.frees

let charge_alloc t n = t.alloc_instr <- t.alloc_instr + n

(* Payload slots lie below the break.  The store needs no reset: the
   sentinel is never written, and [new_block] writes every field of a
   record before any is read. *)
let release t =
  Array.fill t.by_payload 0
    (min (Array.length t.by_payload) ((t.brk - t.base) lsr 3))
    0;
  Scratch.give_back t.lease { blocks = t.store; payloads = t.by_payload }

let free_blocks t =
  let n = ref 0 in
  let cur = ref t.free_head in
  while !cur <> nil do
    incr n;
    cur := get t !cur f_fnext
  done;
  !n

let check_invariants t =
  (* the sentinel record stays inert *)
  if
    get t nil f_free <> 0 || get t nil f_prev <> nil || get t nil f_next <> nil
  then failwith "sentinel record mutated";
  (* blocks tile [base, brk) exactly; no two adjacent free blocks *)
  let pos = ref t.base in
  let prev_free = ref false in
  let cur = ref t.first in
  while !cur <> nil do
    let b = !cur in
    if get t b f_addr <> !pos then
      failwith
        (Printf.sprintf "block gap/overlap at %d (expected %d)" (get t b f_addr)
           !pos);
    if get t b f_size <= 0 then failwith "non-positive block size";
    let is_free = get t b f_free = 1 in
    if is_free && !prev_free then failwith "adjacent free blocks not coalesced";
    prev_free := is_free;
    pos := get t b f_addr + get t b f_size;
    cur := get t b f_next
  done;
  if !pos <> t.brk then
    failwith (Printf.sprintf "blocks end at %d but brk is %d" !pos t.brk);
  (* every free-list entry is free; every free block is on the free list *)
  let on_free_list = Hashtbl.create 64 in
  let cur = ref t.free_head in
  while !cur <> nil do
    let b = !cur in
    if get t b f_free <> 1 then failwith "allocated block on free list";
    Hashtbl.replace on_free_list (get t b f_addr) ();
    cur := get t b f_fnext
  done;
  let cur = ref t.first in
  while !cur <> nil do
    let b = !cur in
    if get t b f_free = 1 && not (Hashtbl.mem on_free_list (get t b f_addr))
    then failwith "free block missing from free list";
    cur := get t b f_next
  done;
  (* the payload map points exactly at the allocated blocks *)
  Array.iteri
    (fun idx b ->
      if
        b <> nil
        && (get t b f_free = 1 || get t b f_addr + header - t.base <> idx lsl 3)
      then failwith "payload map entry out of sync")
    t.by_payload

(* -- the backend adapter ------------------------------------------------------------ *)

let backend ?(sbrk_chunk = default_sbrk_chunk) ?(policy = First) () : Backend.t =
  (module struct
    type nonrec t = t

    let name = match policy with First -> "first-fit" | Best -> "best-fit"
    let uses_prediction = false
    let create ?base () = create ?base ~sbrk_chunk ~policy ()
    let release = release
    let alloc t ~size ~predicted:_ = alloc t size
    let free = free

    (* boundary-tag blocks are exact-fit; no native resize path, so the
       driver synthesizes free + alloc + copy *)
    let realloc = None
    let charge_alloc = charge_alloc
    let allocs = allocs
    let frees = frees
    let alloc_instr = alloc_instr
    let free_instr = free_instr
    let max_heap_size = max_heap_size
    let extra _ = Metrics.Core
    let check_invariants = check_invariants
  end)
