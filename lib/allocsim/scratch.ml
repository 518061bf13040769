(* Per-domain pools of the per-replay direct-address tables.  A candidate
   sweep replays the same trace through hundreds of backends; without
   pooling, every replay allocates (and the GC walks) two or three
   n_objects-sized arrays.  Each domain owns one scratch record that is
   reset (prefix fill) instead of reallocated, so steady-state candidate
   evaluation does no per-replay major allocation on the driver side.

   The pool is safe by construction: a scratch is handed out to at most
   one replay at a time ([busy] flag); a nested replay on the same domain
   — which the current code never performs — would simply fall back to a
   private, unpooled record. *)

type t = {
  mutable addr_of : int array;  (* obj -> payload address, -1 = dead *)
  mutable size_of : int array;  (* obj -> tracked payload size *)
  mutable ref_cursor : int array;  (* obj -> Touch stride cursor *)
  mutable birth_of : int array;  (* obj -> clock at birth, -1 = unborn *)
  mutable flag_of : Bytes.t;  (* obj -> last oracle verdict, '\001' = short *)
  mutable busy : bool;
}

let create () =
  {
    addr_of = [||];
    size_of = [||];
    ref_cursor = [||];
    birth_of = [||];
    flag_of = Bytes.empty;
    busy = false;
  }

let key = Domain.DLS.new_key create

let acquire () =
  let s = Domain.DLS.get key in
  if s.busy then create ()
  else begin
    s.busy <- true;
    s
  end

let release s = s.busy <- false

(* Returns (addr_of, size_of, ref_cursor) with the [0, n_objects) prefix
   reset to (-1, 0, 0).  The arrays may be longer than [n_objects]; the
   replay loop only indexes validated object ids below it.  [ref_cursor]
   is [||] unless [cursor] is set — only cache-simulating replays read
   the per-object stride cursor. *)
let tables s ~n_objects ~cursor =
  if Array.length s.addr_of < n_objects then begin
    let cap = max n_objects (2 * Array.length s.addr_of) in
    s.addr_of <- Array.make cap (-1);
    s.size_of <- Array.make cap 0
  end
  else begin
    Lp_obs.Timings.count "replay.scratch_reuses" 1;
    Array.fill s.addr_of 0 n_objects (-1);
    Array.fill s.size_of 0 n_objects 0
  end;
  let ref_cursor =
    if not cursor then [||]
    else begin
      if Array.length s.ref_cursor < n_objects then
        s.ref_cursor <- Array.make (max n_objects (2 * Array.length s.ref_cursor)) 0
      else Array.fill s.ref_cursor 0 n_objects 0;
      s.ref_cursor
    end
  in
  (s.addr_of, s.size_of, ref_cursor)

(* Only replays driven by an oracle read the per-object birth clock and
   verdict flag; same grow-or-prefix-reset discipline as [tables], so a
   candidate sweep under a predictor allocates these once per domain. *)
let predict_tables s ~n_objects =
  if Array.length s.birth_of < n_objects then begin
    let cap = max n_objects (2 * Array.length s.birth_of) in
    s.birth_of <- Array.make cap (-1);
    s.flag_of <- Bytes.make cap '\000'
  end
  else begin
    Array.fill s.birth_of 0 n_objects (-1);
    Bytes.fill s.flag_of 0 n_objects '\000'
  end;
  (s.birth_of, s.flag_of)

(* The same discipline for the tables a backend allocates per replay:
   First_fit's block store and payload map, Bsd's class map, Segfit's
   origin map, page table and class-lookup bytes, the arena's start maps.
   A pool keeps one set of tables per domain; a backend leases it at
   [create] and gives it back at [release], after resetting the prefix
   its replay wrote, so a lease cannot tell pooled tables from fresh
   ones.  A lease taken while the domain's tables are out gets fresh
   ones, which die with the allocator. *)

type 'a cell = { mutable tables : 'a; mutable busy : bool; mutable warm : bool }
type 'a pool = { fresh : unit -> 'a; cell : 'a cell Domain.DLS.key }
type 'a lease = 'a cell

let pool fresh =
  {
    fresh;
    cell =
      Domain.DLS.new_key (fun () -> { tables = fresh (); busy = false; warm = false });
  }

let lease p =
  let c = Domain.DLS.get p.cell in
  if c.busy then { tables = p.fresh (); busy = true; warm = false }
  else begin
    if c.warm then Lp_obs.Timings.count "replay.table_reuses" 1;
    c.busy <- true;
    c
  end

let leased c = c.tables

let give_back c tables =
  c.tables <- tables;
  c.warm <- true;
  c.busy <- false
