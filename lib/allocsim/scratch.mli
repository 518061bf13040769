(** Per-domain pools of per-replay tables.

    Candidate sweeps replay one trace through many backends.  Every
    table a replay allocates — the driver's per-object tables
    ({!Driver}) and each backend's maps — is leased from a pool at the
    start of the replay and given back, its written prefix reset, at the
    end, so steady-state candidate evaluation allocates no table.  A
    table outgrowing its pooled size grows through
    {!Lp_trace.Grow.widen}. *)

type 'a pool
(** One set of tables of type ['a] per domain. *)

type 'a lease
(** Tables held by one replay (or one allocator) until given back. *)

val pool : (unit -> 'a) -> 'a pool
(** [pool fresh]: a pool whose tables start as [fresh ()] on each
    domain.  Make one per table layout, at module initialisation. *)

val lease : 'a pool -> 'a lease
(** The calling domain's tables, marked in use; fresh tables, outside
    the pool, if they are already in use (a second live allocator on the
    domain).  A lease of tables that an earlier {!give_back} returned
    increments the ["replay.table_reuses"] counter of {!Lp_obs.Timings}
    when timings are enabled. *)

val leased : 'a lease -> 'a
(** The leased tables. *)

val give_back : 'a lease -> 'a -> unit
(** [give_back l tables] ends the lease, handing back [tables] — the
    leased ones or larger ones grown from them — which the caller has
    reset to their fresh contents on the prefix it wrote.  Neither the
    leased nor the returned tables may be used afterwards. *)
