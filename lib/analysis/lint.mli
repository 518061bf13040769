(** The trace linter: one streaming pass over a trace's event stream (a
    domain of the {!Lp_trace.Absint} fold engine) that checks the
    integrity properties every downstream consumer (training,
    evaluation, allocator replay) silently assumes.

    The paper's whole evaluation is trace-driven, so a single malformed
    event — a double free, a free of a never-born object, a zero-sized
    allocation — corrupts every table computed from the trace.  The replay
    engine ({!Lp_allocsim.Driver.run}) fails hard on some of these, but
    only when (and where) the replay happens; the linter finds all of them
    up front and reports each as a structured {!Diagnostic.t} pointing at
    the exact event.

    Eight rules:

    - [double-free] (error): an object is freed twice.
    - [free-without-alloc] (error): a free precedes the object's
      allocation, or no allocation for the object exists at all.
    - [touch-after-free] (error): a heap reference to an object outside
      its lifetime (after its free, or before its allocation).
    - [size-mismatch-at-free] (error): the declared sized-deallocation
      size on a free event differs from the size at the allocation.
    - [nonpositive-size] (error): an allocation of zero or negative size.
    - [non-monotonic-birth] (error): object ids are the trace's birth
      timestamps (dense, in allocation order); an allocation out of that
      order breaks the bytes-allocated clock.
    - [leaked-at-exit] (warning): an object still live when the trace
      ends.  Survivors are legitimate (the paper treats them as
      long-lived), so this is a warning, not an error.
    - [chain-anomaly] (warning): an allocation whose call-chain is empty
      or absurdly deep — one diagnostic per offending chain, at its first
      use. *)

val rules : Diagnostic.rule list

val default_max_chain_depth : int
(** 256 frames; the traced workloads stay far below this. *)

val run :
  ?only:string list ->
  ?disable:string list ->
  ?max_chain_depth:int ->
  Lp_trace.Trace.t ->
  Diagnostic.t list
(** Lint the trace, in event order.  [only]/[disable] select rules by id
    (see {!Diagnostic.select}).  Equivalent to {!run_source} over
    {!Lp_trace.Source.of_trace}.
    @raise Invalid_argument on an unknown rule id. *)

val run_source :
  ?only:string list ->
  ?disable:string list ->
  ?max_chain_depth:int ->
  Lp_trace.Source.t ->
  Diagnostic.t list
(** Lint a streaming event source in one bounded-memory pass:
    {!Lp_trace.Absint.run_source} of {!domain}.  Per-object replay state
    lives in growable tables sized by the allocation high water mark,
    never the event count.  Diagnostics are identical to {!run} on the
    materialized equivalent.  The source is consumed. *)

(** {1 The linter as an engine domain}

    The linter's state machine restarts mid-trace from a sharded range's
    carry-in set, so one trace lints range-parallel through
    [Lifetime.Shard.run]: every in-range diagnostic is emitted with the
    exact absolute indices and messages of the sequential pass, and the
    two cross-range rules stitch at the merge — [chain-anomaly] dedups
    to the globally first use, [leaked-at-exit] fires from the
    end-of-trace state, the ranges' per-object tables overlaid in range
    order (a single range, every sequential pass, is read in place). *)

val domain :
  ?only:string list ->
  ?disable:string list ->
  ?max_chain_depth:int ->
  unit ->
  (module Lp_trace.Absint.DOMAIN)
(** @raise Invalid_argument on an unknown rule id. *)

val project : Lp_trace.Absint.token -> Diagnostic.t list
(** Unpack {!domain}'s merged token: the diagnostics in event order,
    then the leaks in object order.
    @raise Invalid_argument on a foreign token. *)

val clean : Diagnostic.t list -> bool
(** No error-severity diagnostics ([lpalloc lint]'s exit-0 predicate). *)
