(* Per-domain pools of the tables one replay allocates.  A candidate
   sweep replays the same trace through hundreds of backends; without
   pooling, every replay allocates (and the GC walks) the driver's
   per-object tables and the backend's maps.  The driver and every
   backend lease their tables the same way: one pool per table layout
   keeps one set per domain; a lease takes it at the start of a replay
   and gives it back at the end, after resetting the prefix the replay
   wrote, so a lease cannot tell pooled tables from fresh ones.  A lease
   taken while the domain's tables are out gets fresh ones, which die
   with their holder. *)

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
