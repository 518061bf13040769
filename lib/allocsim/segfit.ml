(* Segregated-fit slab allocator, hot-path representation.

   The seed kept [slab.freed] and [free_pages] as [int list] and mapped
   payload->origin through a hashtable.  Both lists are LIFO, so they
   become {!Int_stack}s (same pop order, no cons cell per free), and the
   origin map becomes a direct-address variant array keyed by
   [(payload - heap_base - header) / 16] — slab cells are 16-byte-aligned
   page offsets and span bases are page-aligned, so the key is injective.
   The page table is likewise a direct-address array keyed by page.
   Placement decisions and Cost_model charges are byte-identical to the
   seed (golden-metrics test).

   Both maps grow with the break ([Grow.widen]); they and the
   class-lookup bytes are leased from a per-domain {!Scratch.pool} and
   given back by [release]. *)

module Grow = Lp_trace.Grow

let header = 8
let page = 4096

(* The slab cell sizes, smallest to largest; anything needing more than the
   last entry takes the large-object span path.  Historically hard-wired to
   powers of two; now a [create] parameter (the `segfit:slab=` spec and the
   tuner search over it), constrained to multiples of 16 so the
   direct-address origin map's /16 key stays injective.  The default is the
   original power-of-two ladder, byte-identical to the pre-parameterized
   allocator (golden-metrics test). *)
let default_classes = [| 16; 32; 64; 128; 256; 512; 1024; 2048 |]

(* A slab is one page carved into [cell]-byte cells.  [next_cell] bumps
   through virgin cells; [freed] stacks recycled ones.  When [live] drops to
   zero the whole page returns to the allocator's page pool, where any size
   class (or a one-page large allocation) can claim it — the structural
   difference from the Kingsley BSD allocator, whose buckets keep their
   pages forever. *)
type slab = {
  base : int;
  cls : int;  (* index into the cell-size ladder *)
  cell : int;  (* cell size in bytes *)
  mutable live : int;
  mutable next_cell : int;  (* offset of the first never-used byte *)
  freed : Int_stack.t;  (* payload addresses, LIFO *)
  mutable small : origin;
      (* [Small] of this slab, set once by [fresh_slab] and shared by every
         map entry that points here, so placing a cell allocates nothing *)
}

and origin =
  | No  (* not a live payload *)
  | Small of slab
  | Large of int  (* span pages *)

type size_class = { mutable nonfull : slab list }

(* the leased tables: [origin_of], [slab_at] and [cls_of_need] below *)
type tables = { origins : origin array; slabs : origin array; needs : Bytes.t }

type t = {
  heap_base : int;
  lease : tables Scratch.lease;
  cells : int array;  (* ascending cell sizes, one per size class *)
  cls_of_need : Bytes.t;  (* header-inclusive byte need -> class index *)
  max_cell : int;  (* last entry of [cells] *)
  classes : size_class array;
  mutable origin_of : origin array;  (* (payload-heap_base-header)/16 -> origin *)
  mutable slab_at : origin array;  (* (page-heap_base)/page -> Small slab in use *)
  free_pages : Int_stack.t;  (* single recycled pages *)
  free_spans : (int, int list) Hashtbl.t;  (* n pages -> span base addrs *)
  mutable brk : int;
  mutable slabs_created : int;
  mutable pages_recycled : int;
  mutable large_spans : int;
  mutable alloc_instr : int;
  mutable free_instr : int;
  mutable allocs : int;
  mutable frees : int;
}

let validate_classes cells =
  let fail fmt = Printf.ksprintf invalid_arg ("Segfit.create: " ^^ fmt) in
  if Array.length cells = 0 then fail "empty size-class list";
  if Array.length cells > 128 then
    fail "%d size classes (at most 128)" (Array.length cells);
  Array.iteri
    (fun i c ->
      if c mod 16 <> 0 then
        fail "size class %d is not a multiple of 16" c
      else if c < 16 || c > page then
        fail "size class %d outside [16, %d]" c page
      else if i > 0 && c <= cells.(i - 1) then
        fail "size classes not strictly ascending at %d" c)
    cells

(* Fresh maps are all [No]; [release] restores that on what a replay
   wrote.  The class-lookup bytes cover the largest ladder, and [create]
   rewrites the prefix its ladder reads. *)
let pool =
  Scratch.pool (fun () ->
      {
        origins = Array.make 256 No;
        slabs = Array.make 16 No;
        needs = Bytes.create (page + 1);
      })

let create ?(base = 0) ?(classes = default_classes) () =
  validate_classes classes;
  let cells = Array.copy classes in
  let n_cls = Array.length cells in
  let max_cell = cells.(n_cls - 1) in
  let lease = Scratch.lease pool in
  let { origins; slabs; needs = cls_of_need } = Scratch.leased lease in
  (* O(1) class lookup: byte need (size + header) -> smallest fitting class *)
  let cls = ref 0 in
  for need = 0 to max_cell do
    if need > cells.(!cls) then incr cls;
    Bytes.unsafe_set cls_of_need need (Char.unsafe_chr !cls)
  done;
  {
    heap_base = base;
    lease;
    cells;
    cls_of_need;
    max_cell;
    classes = Array.init n_cls (fun _ -> { nonfull = [] });
    origin_of = origins;
    slab_at = slabs;
    free_pages = Int_stack.create ();
    free_spans = Hashtbl.create 8;
    brk = base;
    slabs_created = 0;
    pages_recycled = 0;
    large_spans = 0;
    alloc_instr = 0;
    free_instr = 0;
    allocs = 0;
    frees = 0;
  }

(* smallest class whose cell fits [size] plus header, or -1 for the
   large-object span path *)
let class_for t size =
  let need = size + header in
  if need > t.max_cell then -1
  else Char.code (Bytes.unsafe_get t.cls_of_need need)

(* grow the origin map and the page table to cover the current break *)
let ensure_map t =
  let span = t.brk - t.heap_base in
  t.origin_of <- Grow.widen t.origin_of ~default:No ((span lsr 4) - 1);
  t.slab_at <- Grow.widen t.slab_at ~default:No ((span / page) - 1)

let origin_index t payload = (payload - t.heap_base - header) lsr 4
let page_index t base = (base - t.heap_base) / page

let sbrk_pages t n =
  let addr = t.brk in
  t.brk <- t.brk + (n * page);
  ensure_map t;
  addr

let take_page t =
  if Int_stack.is_empty t.free_pages then sbrk_pages t 1
  else begin
    t.alloc_instr <- t.alloc_instr + Cost_model.seg_recycle;
    Int_stack.pop t.free_pages
  end

(* -- the small-object path ------------------------------------------------------- *)

let fresh_slab t cls =
  t.alloc_instr <- t.alloc_instr + Cost_model.seg_slab_init;
  let base = take_page t in
  let slab =
    {
      base;
      cls;
      cell = Array.unsafe_get t.cells cls;
      live = 0;
      next_cell = 0;
      freed = Int_stack.create ();
      small = No;
    }
  in
  (* not [let rec], which builds the record twice *)
  slab.small <- Small slab;
  Array.unsafe_set t.slab_at (page_index t base) slab.small;
  t.slabs_created <- t.slabs_created + 1;
  slab

let slab_exhausted slab =
  Int_stack.is_empty slab.freed && slab.next_cell + slab.cell > page

let alloc_small t cls =
  let sc = t.classes.(cls) in
  let slab =
    match sc.nonfull with
    | s :: _ -> s
    | [] ->
        let s = fresh_slab t cls in
        sc.nonfull <- [ s ];
        s
  in
  let payload =
    if Int_stack.is_empty slab.freed then begin
      let cell = slab.base + slab.next_cell in
      slab.next_cell <- slab.next_cell + slab.cell;
      cell + header
    end
    else Int_stack.pop slab.freed
  in
  slab.live <- slab.live + 1;
  if slab_exhausted slab then
    sc.nonfull <- List.filter (fun s -> s != slab) sc.nonfull;
  Array.unsafe_set t.origin_of (origin_index t payload) slab.small;
  payload

let free_small t payload slab =
  let sc = t.classes.(slab.cls) in
  let was_exhausted = slab_exhausted slab in
  slab.live <- slab.live - 1;
  Int_stack.push slab.freed payload;
  if slab.live = 0 then begin
    (* the page is empty: return it to the pool for any class to reuse *)
    t.free_instr <- t.free_instr + Cost_model.seg_recycle;
    sc.nonfull <- List.filter (fun s -> s != slab) sc.nonfull;
    Array.unsafe_set t.slab_at (page_index t slab.base) No;
    Int_stack.push t.free_pages slab.base;
    t.pages_recycled <- t.pages_recycled + 1
  end
  else if was_exhausted then sc.nonfull <- slab :: sc.nonfull

(* -- the large-object path (whole-page spans) ------------------------------------ *)

let span_pages size = ((size + header) + page - 1) / page

let alloc_large t size =
  t.alloc_instr <- t.alloc_instr + Cost_model.seg_large_alloc;
  let n = span_pages size in
  let base =
    if n = 1 then take_page t
    else
      match Hashtbl.find_opt t.free_spans n with
      | Some (base :: rest) ->
          t.alloc_instr <- t.alloc_instr + Cost_model.seg_recycle;
          Hashtbl.replace t.free_spans n rest;
          base
      | _ -> sbrk_pages t n
  in
  t.large_spans <- t.large_spans + 1;
  let payload = base + header in
  Array.unsafe_set t.origin_of (origin_index t payload) (Large n);
  payload

let free_large t payload n =
  t.free_instr <- t.free_instr + Cost_model.seg_large_free;
  let base = payload - header in
  if n = 1 then Int_stack.push t.free_pages base
  else
    Hashtbl.replace t.free_spans n
      (base :: Option.value (Hashtbl.find_opt t.free_spans n) ~default:[])

(* -- the public operations --------------------------------------------------------- *)

let alloc t size =
  if size <= 0 then invalid_arg "Segfit.alloc: size must be positive";
  t.allocs <- t.allocs + 1;
  t.alloc_instr <- t.alloc_instr + Cost_model.seg_alloc_base;
  let cls = class_for t size in
  if cls >= 0 then alloc_small t cls else alloc_large t size

let free t payload =
  let off = payload - t.heap_base - header in
  let idx = off lsr 4 in
  if off < 0 || off land 15 <> 0 || idx >= Array.length t.origin_of then
    invalid_arg "Segfit.free: not an allocated address";
  match Array.unsafe_get t.origin_of idx with
  | No -> invalid_arg "Segfit.free: not an allocated address"
  | origin -> (
      Array.unsafe_set t.origin_of idx No;
      t.frees <- t.frees + 1;
      t.free_instr <- t.free_instr + Cost_model.seg_free_base;
      match origin with
      | No -> assert false
      | Small slab -> free_small t payload slab
      | Large n -> free_large t payload n)

(* A small cell absorbs any resize within its size class; a span absorbs
   any resize with the same page count.  Everything else is a free plus
   an alloc, whose copy the driver bills. *)
let realloc t payload ~new_size =
  if new_size <= 0 then invalid_arg "Segfit.realloc: size must be positive";
  let off = payload - t.heap_base - header in
  let idx = off lsr 4 in
  if off < 0 || off land 15 <> 0 || idx >= Array.length t.origin_of then
    invalid_arg "Segfit.realloc: not an allocated address";
  let cls = class_for t new_size in
  let in_place =
    match Array.unsafe_get t.origin_of idx with
    | No -> invalid_arg "Segfit.realloc: not an allocated address"
    | Small slab -> cls >= 0 && cls = slab.cls
    | Large n -> cls < 0 && span_pages new_size = n
  in
  if in_place then payload
  else begin
    free t payload;
    alloc t new_size
  end

let max_heap_size t = t.brk - t.heap_base
let alloc_instr t = t.alloc_instr
let free_instr t = t.free_instr
let allocs t = t.allocs
let frees t = t.frees
let charge_alloc t n = t.alloc_instr <- t.alloc_instr + n

(* map slots lie below the break *)
let release t =
  let span = t.brk - t.heap_base in
  Array.fill t.origin_of 0 (min (Array.length t.origin_of) (span lsr 4)) No;
  Array.fill t.slab_at 0 (min (Array.length t.slab_at) (span / page)) No;
  Scratch.give_back t.lease
    { origins = t.origin_of; slabs = t.slab_at; needs = t.cls_of_need }

let slabs_created t = t.slabs_created
let pages_recycled t = t.pages_recycled
let large_spans t = t.large_spans

let check_invariants t =
  (* every live payload's slab agrees; slab live counts sum to the live table *)
  let per_slab = Hashtbl.create 64 in
  Array.iteri
    (fun idx origin ->
      let payload = t.heap_base + (idx lsl 4) + header in
      match origin with
      | No -> ()
      | Large n ->
          if n < 1 then failwith "non-positive span length"
      | Small slab ->
          if payload < slab.base || payload >= slab.base + page then
            failwith
              (Printf.sprintf "payload %d outside its slab [%d, %d)" payload
                 slab.base (slab.base + page));
          Hashtbl.replace per_slab slab.base
            (1 + Option.value (Hashtbl.find_opt per_slab slab.base) ~default:0))
    t.origin_of;
  Array.iter
    (function
      | Small slab ->
          let counted =
            Option.value (Hashtbl.find_opt per_slab slab.base) ~default:0
          in
          if slab.live <> counted then
            failwith
              (Printf.sprintf "slab at %d: live=%d but %d live payloads"
                 slab.base slab.live counted);
          if slab.next_cell > page then failwith "slab bump ran past its page"
      | No | Large _ -> ())
    t.slab_at;
  (* nonfull lists only hold slabs with room *)
  Array.iter
    (fun sc ->
      List.iter
        (fun slab -> if slab_exhausted slab then failwith "exhausted slab on nonfull list")
        sc.nonfull)
    t.classes;
  if (t.brk - t.heap_base) mod page <> 0 then failwith "brk not page-aligned"

let backend ?(classes = default_classes) () : Backend.t =
  (module struct
    type nonrec t = t

    let name = "segfit"
    let uses_prediction = false
    let create ?base () = create ?base ~classes ()
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

    let extra t =
      Metrics.Segfit_stats
        {
          slabs_created = t.slabs_created;
          pages_recycled = t.pages_recycled;
          large_spans = t.large_spans;
        }

    let check_invariants = check_invariants
  end)
