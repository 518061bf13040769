type config = { n_arenas : int; arena_size : int }

let default_config = { n_arenas = 16; arena_size = 4096 }

type arena_state = {
  mutable alloc_ptr : int;  (* offset of the next free byte *)
  mutable count : int;  (* live objects *)
  mutable starts : Bytes.t;
      (* one byte per arena offset, '\001' where a live object starts:
         arena objects carry no headers, so this is how a free knows its
         address is live.  Empty until the arena first bumps, so a replay
         pays only for the arenas it uses; then the pooled map of its
         index, if one is long enough *)
}

(* The general-purpose fallback, existentially packed: the arena layer is a
   lifetime-predicting front-end over ANY registry backend, not a special
   case wired to first-fit.

   The [predicted] bit on every alloc is computed upstream by the session's
   lifetime oracle (offline-trained or online-adaptive); the arena is
   oracle-agnostic and must stay correct when the prediction stream is
   non-stationary — the online oracle promotes and demotes a site mid-run,
   so objects from one site land in the arena area AND the general heap
   within the same replay.  That is safe because [free] routes by address
   alone (arena area vs general heap), never by re-consulting the
   prediction that placed the object. *)
type general = G : (module Backend.BACKEND with type t = 'a) * 'a -> general

type t = {
  config : config;
  lease : Bytes.t array Scratch.lease;
  mutable maps : Bytes.t array;
      (* leased start maps by arena index, [Bytes.empty] where none has
         been made; all zero outside a replay *)
  arenas : arena_state array;
  mutable current : int;
  general : general;
  area_bytes : int;  (* a free below this is an arena's, at addr / arena_size *)
  mutable arena_allocs : int;
  mutable arena_bytes : int;
  mutable arena_resets : int;
  mutable overflow_allocs : int;
  mutable allocs : int;
  mutable frees : int;
  mutable alloc_instr : int;
  mutable free_instr : int;
}

let pool = Scratch.pool (fun () -> [||])

let create ?(config = default_config) ?(fallback = First_fit.backend ()) () =
  let area_bytes = config.n_arenas * config.arena_size in
  let (module F) = fallback in
  (* the general heap begins above the arena area *)
  let general = G ((module F), F.create ~base:area_bytes ()) in
  let lease = Scratch.lease pool in
  let maps = Scratch.leased lease in
  let maps =
    if Array.length maps >= config.n_arenas then maps
    else
      Array.append maps
        (Array.make (config.n_arenas - Array.length maps) Bytes.empty)
  in
  {
    config;
    lease;
    maps;
    arenas =
      Array.init config.n_arenas (fun _ ->
          { alloc_ptr = 0; count = 0; starts = Bytes.empty });
    current = 0;
    general;
    area_bytes;
    arena_allocs = 0;
    arena_bytes = 0;
    arena_resets = 0;
    overflow_allocs = 0;
    allocs = 0;
    frees = 0;
    alloc_instr = 0;
    free_instr = 0;
  }

let charge_prediction t cost = t.alloc_instr <- t.alloc_instr + cost

let arena_addr t idx offset = (idx * t.config.arena_size) + offset

(* Find an arena with no live objects and rewind it.  The scan starts from
   the base of the arena area (the paper: "the algorithm scans all
   short-lived arenas attempting to find one with a zero count field"), so
   under fast churn the same low arena drains and is recycled over and
   over — which also keeps the hot allocation window small and
   cache-resident. *)
let find_empty_arena t =
  let n = t.config.n_arenas in
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < n do
    t.alloc_instr <- t.alloc_instr + Cost_model.arena_scan_per_arena;
    let candidate = !i in
    if candidate <> t.current && t.arenas.(candidate).count = 0 then
      found := candidate;
    incr i
  done;
  let idx = !found in
  if idx >= 0 then begin
    t.alloc_instr <- t.alloc_instr + Cost_model.arena_reset;
    t.arenas.(idx).alloc_ptr <- 0;
    t.arena_resets <- t.arena_resets + 1
  end;
  idx

let bump t idx size =
  let a = t.arenas.(idx) in
  if Bytes.length a.starts = 0 then begin
    if Bytes.length t.maps.(idx) < t.config.arena_size then
      t.maps.(idx) <- Bytes.make t.config.arena_size '\000';
    a.starts <- t.maps.(idx)
  end;
  (* callers check [alloc_ptr + size <= arena_size] with [size > 0] *)
  Bytes.unsafe_set a.starts a.alloc_ptr '\001';
  let addr = arena_addr t idx a.alloc_ptr in
  a.alloc_ptr <- a.alloc_ptr + size;
  a.count <- a.count + 1;
  t.arena_allocs <- t.arena_allocs + 1;
  t.arena_bytes <- t.arena_bytes + size;
  t.alloc_instr <- t.alloc_instr + Cost_model.arena_bump;
  addr

let general_alloc t size =
  let (G ((module F), g)) = t.general in
  F.alloc g ~size ~predicted:false

let alloc t ~size ~predicted =
  if size <= 0 then invalid_arg "Arena.alloc: size must be positive";
  t.allocs <- t.allocs + 1;
  let fits = size <= t.config.arena_size in
  if predicted && fits then begin
    let a = t.arenas.(t.current) in
    if a.alloc_ptr + size <= t.config.arena_size then bump t t.current size
    else begin
      let idx = find_empty_arena t in
      if idx >= 0 then begin
        t.current <- idx;
        bump t idx size
      end
      else begin
        (* arena pollution: no empty arena — degenerate to the general
           allocator (§5.2's CFRAC discussion) *)
        t.overflow_allocs <- t.overflow_allocs + 1;
        general_alloc t size
      end
    end
  end
  else general_alloc t size

let free t addr =
  t.frees <- t.frees + 1;
  (* the address decides: arena area or general heap (§5.1) *)
  t.free_instr <- t.free_instr + 2;
  if addr < t.area_bytes then begin
    let idx = if addr < 0 then 0 else addr / t.config.arena_size in
    let a = t.arenas.(idx) in
    let off = addr - (idx * t.config.arena_size) in
    if addr < 0 || Bytes.length a.starts = 0 || Bytes.unsafe_get a.starts off = '\000'
    then invalid_arg "Arena.free: not an allocated arena address"
    else begin
      Bytes.unsafe_set a.starts off '\000';
      a.count <- a.count - 1;
      t.free_instr <- t.free_instr + Cost_model.arena_free - 2
    end
  end
  else
    let (G ((module F), g)) = t.general in
    F.free g addr

let arena_allocs t = t.arena_allocs
let arena_bytes t = t.arena_bytes
let arena_resets t = t.arena_resets
let overflow_allocs t = t.overflow_allocs
let allocs t = t.allocs
let frees t = t.frees

let max_heap_size t =
  let (G ((module F), g)) = t.general in
  t.area_bytes + F.max_heap_size g

let alloc_instr t =
  let (G ((module F), g)) = t.general in
  t.alloc_instr + F.alloc_instr g

let free_instr t =
  let (G ((module F), g)) = t.general in
  t.free_instr + F.free_instr g

let general_name t =
  let (G ((module F), _)) = t.general in
  F.name

let stats t : Metrics.arena_stats =
  {
    arena_allocs = t.arena_allocs;
    arena_bytes = t.arena_bytes;
    arena_resets = t.arena_resets;
    overflow_allocs = t.overflow_allocs;
  }

(* Bytes at or above an arena's bump pointer are zero: a reset rewinds
   only an arena whose objects are all freed. *)
let release t =
  Array.iter
    (fun a ->
      if Bytes.length a.starts > 0 then Bytes.fill a.starts 0 a.alloc_ptr '\000')
    t.arenas;
  Scratch.give_back t.lease t.maps;
  let (G ((module F), g)) = t.general in
  F.release g

let check_invariants t =
  Array.iteri
    (fun i a ->
      if a.count < 0 then failwith (Printf.sprintf "arena %d: negative live count" i);
      if a.alloc_ptr < 0 || a.alloc_ptr > t.config.arena_size then
        failwith (Printf.sprintf "arena %d: alloc_ptr out of range" i))
    t.arenas;
  Array.iteri
    (fun i a ->
      let live = ref 0 in
      Bytes.iteri
        (fun off c ->
          if c <> '\000' then begin
            incr live;
            if off >= a.alloc_ptr then
              failwith
                (Printf.sprintf "arena %d: live object at %d above the bump pointer"
                   i off)
          end)
        a.starts;
      if a.count <> !live then
        failwith
          (Printf.sprintf "arena %d: count=%d but %d live objects" i a.count !live))
    t.arenas;
  let (G ((module F), g)) = t.general in
  F.check_invariants g

let backend ?config ?fallback () : Backend.t =
  (module struct
    type nonrec t = t

    let name = "arena"
    let uses_prediction = true
    let create ?base:_ () = create ?config ?fallback ()
    let release = release
    let alloc = alloc
    let free = free

    (* an arena bump pointer cannot resize its last-but-one block; the
       driver's free + alloc + copy fallback is the honest cost *)
    let realloc = None
    let charge_alloc = charge_prediction
    let allocs = allocs
    let frees = frees
    let alloc_instr = alloc_instr
    let free_instr = free_instr
    let max_heap_size = max_heap_size
    let extra t = Metrics.Arena_stats (stats t)
    let check_invariants = check_invariants
  end)
