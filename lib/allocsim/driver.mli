(** Trace-driven simulation: replay a trace's allocation events through an
    allocator backend and collect {!Metrics.t} (§5.2: "we fed a trace of
    the program's allocation events and a list of short-lived sites into a
    simulator of the prediction algorithm").

    There is exactly one replay loop, and materialized and streamed
    replay both run it: it consumes blocks of events that one validator
    has checked — a prepared trace is a single block, a stream is cut
    into fixed-size blocks.  Which allocator runs is a {!Backend.t},
    usually obtained from the {!Registry} by name.

    Replay is decode-once/replay-many: {!prepare} validates a trace in a
    single pass and the result can be replayed through any number of
    backends with zero re-validation and pooled per-replay scratch
    ({!Scratch}).  {!run} composes the two and memoizes validation on
    trace identity, so even naive repeated [run] calls on the same trace
    validate it only once. *)

type predictor = {
  predicted : obj:int -> size:int -> chain:int -> key:int -> bool;
      (** the short-lived-site verdict, supplied by the oracle layer
          (an offline site database or an online adaptive trainer) *)
  predict_cost : int;
      (** instructions charged per allocation for the lookup: 18 for
          length-4 chains, the amortised value for call-chain
          encryption *)
  short_threshold : int;
      (** the short-lived cutoff in allocated bytes used to classify
          each prediction's outcome at free time *)
  on_outcome : (obj:int -> lifetime:int -> survived:bool -> unit) option;
      (** the feedback path: called once per predicted object when its
          lifetime outcome is known — at its free, or (with
          [survived = true] and the end-of-trace clock) during the
          final survivor scan — in deterministic event/object order.
          [lifetime] counts bytes allocated since the object's birth.
          Stateful (online) oracles learn from this; [None] for frozen
          site databases. *)
}

type prepared
(** A trace that has passed one-time replay validation.  The trace is
    shared, not copied; it must not be mutated afterwards (the replay
    loop omits bounds checks that validation proved redundant). *)

val prepare : Lp_trace.Trace.t -> prepared
(** Validates the trace for replay in one pure pass: an alloc of an
    out-of-range or already-live object id, an alloc of size <= 0, a
    free/realloc/touch of a never-allocated, already-freed or
    out-of-range object, or a realloc to size <= 0 raises [Failure]
    naming the object id and the event index — the same errors {!run}
    and {!run_source} raise.  Validation happens at most once per trace:
    results are memoized on physical trace identity (a bounded weak
    table, safe across domains), and each actual validation pass
    increments the ["replay.validations"] counter of {!Lp_obs.Timings}
    and records a ["prepare"] stage when timings are enabled. *)

val trace_of_prepared : prepared -> Lp_trace.Trace.t
(** The underlying trace (shared, not copied). *)

val run_prepared :
  ?cache:Cache.t -> ?predictor:predictor -> prepared -> Backend.t -> Metrics.t
(** Replays every event in order through a fresh instance of the backend,
    with no per-event validation (already done by {!prepare}) and the
    per-replay object tables drawn from the calling domain's {!Scratch}
    pool.  Objects still alive at the end of the trace are not freed
    (they hold their space, as in the real program).

    When [predictor] is given and the backend declares
    [uses_prediction = true], every allocation is billed
    [predictor.predict_cost] instructions and the backend receives the
    predictor's verdict as [~predicted]; backends that ignore prediction
    never pay for it, so their metrics do not depend on the predictor at
    all.  Predicting replays additionally track each object's birth
    clock and verdict, classify the prediction when the outcome is known
    (free, or the end-of-trace survivor scan) into the
    [predictions]/[mispredicts_*] counters of {!Metrics.t}, and feed the
    outcome to [predictor.on_outcome] — all without charging simulated
    instructions, so every other metric is unchanged by the tracking.

    Note for stateful oracles: the predictor closure itself carries any
    online state, so a fresh [predictor] value must be built per replay
    — replaying a prepared trace twice with the same stateful predictor
    would leak learned window state across runs.

    Each replay records its wall-clock span and event count under the
    ["replay/<backend>"] stage of {!Lp_obs.Timings} when timings are
    enabled.  [run_prepared] is safe to call concurrently from several
    domains: all allocator state is private to the call, scratch pools
    are per-domain, and the trace is only read.

    When [cache] is given, the replay also feeds it the trace's memory
    references at the addresses this allocator assigned: the allocator's
    header accesses at alloc/free, and each recorded {!Lp_trace.Event.t}
    [Touch] as successive 16-byte-strided references within the object.
    Comparing the resulting miss rates across allocators quantifies the
    locality claim of the paper's introduction. *)

val run :
  ?cache:Cache.t -> ?predictor:predictor -> Lp_trace.Trace.t -> Backend.t -> Metrics.t
(** [run_prepared] composed with {!prepare}: identical metrics and the
    same validation errors, with validation skipped when the same trace
    was already prepared (or run) before. *)

val run_named :
  ?cache:Cache.t ->
  ?predictor:predictor ->
  ?arena_config:Arena.config ->
  Lp_trace.Trace.t ->
  string ->
  Metrics.t
(** [run] composed with a {!Registry} lookup (aliases accepted).
    @raise Failure on an unknown backend name. *)

val run_source :
  ?cache:Cache.t ->
  ?predictor:predictor ->
  ?decode_ahead:bool ->
  Lp_trace.Source.t ->
  Backend.t ->
  Metrics.t
(** Single-pass streaming replay: pulls each event from the source once
    and never materializes the trace, so peak memory is bounded by the
    live-object population.  The events are validated and replayed block
    by block, through the validator and the replay loop of {!prepare}
    and {!run_prepared}, so metrics are byte-identical to [run] on the
    equivalent materialized trace, and so are the errors, except that
    out-of-range object ids above the final object count cannot be
    detected mid-stream (the count is only known at exhaustion); such
    events surface as never-allocated frees or pass through as touches.
    An error is raised once the block holding the bad event has been
    read, before any of that block replays.  The source is consumed; a
    fresh source is needed per replay.

    [decode_ahead] (default false) pipelines the replay: decoding moves
    to a second domain running ahead of the simulation through
    {!Lp_trace.Source.decode_ahead}, overlapping the two stages.  The
    replay per heap stays sequential — metrics are identical either
    way. *)
