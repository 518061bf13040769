type t = {
  line_bytes : int;
  associativity : int;
  n_sets : int;
  tags : int array;  (* n_sets * associativity; -1 = invalid *)
  stamps : int array;  (* LRU timestamps *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  pages_seen : (int, unit) Hashtbl.t;  (* distinct 4 KB pages referenced *)
}

let create ?(line_bytes = 32) ?(associativity = 2) ~size_bytes () =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache.create: line size must be a positive power of two";
  if associativity <= 0 then invalid_arg "Cache.create: associativity must be positive";
  let set_bytes = line_bytes * associativity in
  if size_bytes <= 0 || size_bytes mod set_bytes <> 0 then
    invalid_arg "Cache.create: size must be a positive multiple of line*associativity";
  let n_sets = size_bytes / set_bytes in
  {
    line_bytes;
    associativity;
    n_sets;
    tags = Array.make (n_sets * associativity) (-1);
    stamps = Array.make (n_sets * associativity) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    pages_seen = Hashtbl.create 256;
  }

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  if not (Hashtbl.mem t.pages_seen (addr lsr 12)) then
    Hashtbl.replace t.pages_seen (addr lsr 12) ();
  let line = addr / t.line_bytes in
  let set = line mod t.n_sets in
  let base = set * t.associativity in
  (* hit? *)
  let way = ref (-1) in
  for i = 0 to t.associativity - 1 do
    if t.tags.(base + i) = line then way := i
  done;
  if !way >= 0 then t.stamps.(base + !way) <- t.clock
  else begin
    t.misses <- t.misses + 1;
    (* evict the least recently used way *)
    let victim = ref 0 in
    for i = 1 to t.associativity - 1 do
      if t.stamps.(base + i) < t.stamps.(base + !victim) then victim := i
    done;
    t.tags.(base + !victim) <- line;
    t.stamps.(base + !victim) <- t.clock
  end

let access_range t ~addr ~bytes =
  let first = addr / t.line_bytes in
  let last = (addr + (if bytes > 1 then bytes else 1) - 1) / t.line_bytes in
  for line = first to last do
    access t (line * t.line_bytes)
  done

let accesses t = t.accesses
let footprint_pages t = Hashtbl.length t.pages_seen
let misses t = t.misses
let miss_rate t = if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses
let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0;
  Hashtbl.reset t.pages_seen
