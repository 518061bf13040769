(** Per-domain pools of per-replay scratch arrays.

    Candidate sweeps replay one trace through many backends; the
    per-replay object tables ([addr_of]/[size_of]/[ref_cursor]) are the
    only driver-side allocations that scale with the trace, so they are
    pooled per domain and reset by prefix fill instead of reallocated.
    Reuse is observable as the ["replay.scratch_reuses"] counter of
    {!Lp_obs.Timings} when timings are enabled.

    The backends' own per-replay tables are pooled the same way, through
    {!pool}: see the end of this interface. *)

type t

val create : unit -> t
(** A private, unpooled scratch (tests, nested replays). *)

val acquire : unit -> t
(** The calling domain's pooled scratch, marked in-use.  If it is already
    in use (a nested replay), a fresh private scratch is returned
    instead, so the result is always exclusively owned.  Pair with
    {!release}. *)

val release : t -> unit
(** Returns a scratch to its domain's pool.  The arrays handed out by
    {!tables} must no longer be used. *)

val tables : t -> n_objects:int -> cursor:bool -> int array * int array * int array
(** [(addr_of, size_of, ref_cursor)] with the [0, n_objects) prefix reset
    to [(-1, 0, 0)].  The arrays may be longer than [n_objects]; callers
    must only index below it.  [ref_cursor] is [[||]] unless [cursor] is
    true. *)

val predict_tables : t -> n_objects:int -> int array * Bytes.t
(** [(birth_of, flag_of)] with the [0, n_objects) prefix reset to
    [(-1, '\000')] — the per-object oracle state (birth clock and last
    verdict) replays track to attribute lifetime outcomes.  Pooled with
    the same grow-or-reset discipline as {!tables}; only acquired by
    replays running under a predictor. *)

(** {1 Pooled backend tables} *)

type 'a pool
(** One set of tables of type ['a] per domain. *)

type 'a lease
(** Tables held by one allocator until it gives them back. *)

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
