(** Allocator design-space search — the engine behind [lpalloc tune].

    The paper evaluates a handful of hand-picked allocator configurations
    (length-4 chains, a 32 KB short-lived threshold, 16 x 4 KB arenas).
    This module searches the space instead: a deterministic seeded grid of
    backend/parameter combinations plus an evolutionary refinement loop,
    every candidate replayed against one shared prepared trace
    ({!Lp_allocsim.Driver.prepare} once, {!Lp_allocsim.Driver.run_prepared}
    per candidate) in parallel on the {!Parallel} domain pool.

    Determinism contract: for a fixed seed the full result list, the
    Pareto front and the baselines are identical regardless of the domain
    count — the PRNG is consumed only on the sequential search path, and
    {!Parallel.map} preserves order.  The golden test replays a tune run
    at 1 and 4 domains and byte-compares the JSON. *)

type candidate = {
  backend : Lp_allocsim.Spec.t;
      (** a backend spec of {!Lp_allocsim.Registry.family}; its canonical
          form ({!Lp_allocsim.Spec.to_string}) is the report's [spec] *)
  depth : int;
      (** predictor chain depth: 0 = complete cycle-eliminated chain,
          1-8 = last-N callers.  Meaningful only for predicting backends. *)
  threshold : int;  (** short-lived threshold in bytes *)
}

val uses_prediction : candidate -> bool

type result = {
  candidate : candidate;
  metrics : Lp_allocsim.Metrics.t;
  instructions : int;
      (** total simulated alloc+free instruction count (the per-op float
          averages of {!Lp_allocsim.Metrics.t} folded back to exact
          totals) *)
  max_heap : int;  (** heap high-water mark, bytes *)
}

val pareto_front : result list -> result list
(** The non-dominated frontier minimizing (instructions, max_heap),
    instructions ascending.  Deterministic: ties are broken by the
    candidate's canonical spec, chain depth and threshold. *)

type options = {
  seed : int;  (** PRNG seed; fixes the whole search *)
  generations : int;  (** evolutionary refinement rounds *)
  population : int;  (** fresh mutants per round *)
  max_candidates : int;  (** hard cap on total evaluations *)
}

val default_options : options
(** [{seed = 42; generations = 4; population = 16; max_candidates = 512}]
    — the 46-point grid plus 4 x 16 mutants, about 110 candidates. *)

type outcome = {
  workload : string;
  seed : int;
  results : result list;  (** every candidate in evaluation order *)
  pareto : result list;
  baselines : (string * result) list;
      (** the paper's fixed points: first-fit, bsd, arena at length-4
          pricing, arena at CCE pricing *)
}

val search :
  ?options:options ->
  ?workload:string ->
  train:Lp_trace.Trace.t ->
  test:Lp_trace.Trace.t ->
  unit ->
  outcome
(** Run the full search: evaluate the deterministic seed grid (the five
    plain backends, sbrk and slab ladder variants, the arena geometry
    cross product, a chain-depth sweep 1-8 and a short-lived-threshold
    sweep), then [generations] rounds of mutations of the current Pareto
    front, deduplicated by canonical spec, chain depth and threshold.  The
    test trace is prepared once and the train trace profiled once
    ({!Train.profile}); each distinct (threshold, depth) pair derives its
    predictor from that profile, shared across candidates.  The search
    prices prediction at the paper's length-4 cost; the CCE pricing
    appears in [baselines], whose length-4-priced points are the grid's
    own results (replayed again only when [max_candidates] cut them). *)

val json_of_result : result -> Lp_report.Json.t

val json_of_outcome : ?engine:(string * int) list -> outcome -> Lp_report.Json.t
(** [engine] attaches engine counters (decodes, validations) as an extra
    object — the CLI passes them; the determinism test omits them since
    counter totals may legitimately differ run-to-run. *)

val table_of_outcome : outcome -> string
(** Fixed-width text table: the Pareto points then the baselines. *)

val markdown_header : string
(** Header of the best-config markdown table committed in EXPERIMENTS.md. *)

val markdown_rows : outcome -> string
(** Rows for one workload: tuned min-instructions, tuned min-heap, then
    the four baselines.  A drift test regenerates these rows and checks
    EXPERIMENTS.md still contains them. *)
