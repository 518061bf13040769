(** Object lifetimes, in bytes-allocated time.

    The paper defines an object's lifetime as the number of bytes allocated
    between its birth and its death (§3.2) — time measured by the clock the
    allocator itself experiences.  Objects still alive when the program ends
    have no death event; they are assigned the bytes remaining until the end
    of the run and flagged [survived], which makes them long-lived for any
    reasonable threshold and matches the conservative treatment a predictor
    must give them.

    {!compute} reads a materialized trace; every streamed and sharded
    lifetime pass is the {!Fold} below, run as {!domain} under the
    {!Absint} engine (directly, or inside the trainer's and the audit's
    domains). *)

type t = {
  birth_clock : int array;  (** bytes allocated before each object's birth *)
  lifetime : int array;  (** per-object lifetime in bytes *)
  survived : bool array;  (** object was still alive at end of run *)
  end_clock : int;  (** total bytes allocated over the run *)
}

val compute : Trace.t -> t
(** One linear pass over the events.

    The clock advances by [size] {i at} each allocation; an object's birth
    clock is the clock value {i before} its own allocation, so an object
    freed immediately after allocation has lifetime 0 bytes if nothing else
    was allocated in between. *)

val is_short_lived : t -> threshold:int -> int -> bool
(** [is_short_lived lt ~threshold obj] — did [obj] die before [threshold]
    bytes were allocated?  Survivors are never short-lived. *)

type summary = {
  hist : Lp_quantile.Histogram.t;
      (** byte-weighted lifetime distribution (P² quartile histogram) *)
  short_bytes : int;  (** bytes in objects short-lived under the threshold *)
  total_alloc_bytes : int;  (** all bytes allocated *)
}
(** An allocation of no positive bytes (a corrupt trace's; [lpalloc lint]
    reports it as [nonpositive-size]) has no weight in a byte-weighted
    distribution: the summary skips it, so [hist] can be empty. *)

val summary_source : threshold:int -> Source.t -> summary
(** Streaming twin of {!compute} plus the byte-weighted histogram fold
    the [lpalloc lifetimes] command performs: {!Absint.run_source} of
    {!domain} — one {!range_fold} over the whole source, then
    {!merge_summaries} of that single fold — so it keeps no per-object
    state of its own and equals the sharded merge by construction.  The
    source is consumed. *)

(** {1 The lifetime fold}

    A {!range_fold} replays one stretch of a trace — the whole stream,
    or one range of a sharded trace seeded from the range's entry clock
    and carry-in birth clocks — with absolute clocks, keeping the
    stretch's allocation records plus the stretch-final lifetime state
    of every object it wrote.  For a covering partition of the trace,
    {!resolve} applies the folds in range order and ends with exactly
    the sequential pass's final per-object state, so {!merge_summaries}
    reproduces {!summary_source} — including the histogram's internal
    state, because the deferred observations happen in the same global
    allocation order.

    {b Layout.}  A fold holds two words per allocation and two words
    and a byte per object id below the highest id the stretch wrote:
    nothing else grows with the trace.  Every table is pre-sized from
    the entry's capacities ({!Absint.entry}): the source's header totals
    for a whole source, the range's own footer ids for a sharded range.
    For a trace that allocates each object once they are exact, so no
    table grows and {!Fold.finish} hands the storage over without
    copying.  A source without header totals (a text stream) starts
    them at 1024 slots, and they grow by doubling. *)

type range_fold = {
  rf_a_obj : int array;  (** objects of the stretch's allocs, event order *)
  rf_a_size : int array;  (** their sizes at allocation *)
  rf_birth : int array;
      (** by object id: its last birth clock in the stretch (absolute),
          or its carried-in one *)
  rf_life : int array;  (** by object id: its last free's lifetime *)
  rf_flags : Bytes.t;
      (** by object id: bit 0 set iff the stretch allocated it, bit 1 iff
          it freed it; an object whose byte is 0 was not written *)
  rf_end_clock : int;  (** absolute clock after the stretch's last event *)
}
(** The three per-object tables have one length: the highest object id
    written, plus one. *)

(** The lifetime state machine driven one event at a time, for passes
    that interleave their own per-event accumulation with the lifetime
    fold (the trainer, the audit's site profile).  [create en] sizes the
    tables from the entry's capacities and seeds the carried birth
    clocks; {!Fold.step} on every event of the stretch and then
    {!Fold.finish} yields its {!range_fold}. *)
module Fold : sig
  type t

  val create : Absint.entry -> t
  val step : t -> Event.t -> unit

  val finish : t -> range_fold
  (** Hands the tables over (copying only those whose capacity is not
      exactly their length); the fold must not be stepped afterwards. *)
end

type resolved
(** Final per-object lifetime state of a covering partition. *)

val resolve : range_fold list -> resolved
(** Apply folds in range order (the caller passes them in range order —
    {!Sharded.range} order, as a covering partition of the trace).  A
    single fold — every sequential pass — is read in place, allocating
    nothing; several are applied onto one set of tables sized to the
    largest fold's, with survival kept in a byte per object. *)

val resolved_survived : resolved -> int -> bool
(** [obj] must be the object of one of the folds' allocation records. *)

val resolved_lifetime : resolved -> int -> int
val resolved_end_clock : resolved -> int

val merge_summaries : threshold:int -> range_fold list -> summary
(** Identical to {!summary_source} over the whole trace when the folds
    cover it in order. *)

val domain : threshold:int -> (module Absint.DOMAIN)
(** The fold as an engine domain: {!Fold} per range, {!merge_summaries}
    as the merge.  [lpalloc lifetimes --sharded] runs it through
    [Lifetime.Shard.run]. *)

val project : Absint.token -> summary
(** Unpack {!domain}'s merged token.
    @raise Invalid_argument on a foreign token. *)

val max_live : Trace.t -> int * int
(** [(max_bytes, max_objects)] — the largest numbers of bytes and of objects
    simultaneously alive at any point (Table 2's "Maximum Bytes/Objects").
    The two maxima may occur at different times. *)
