(** Simulation glue: run a test trace through a set of registry allocators
    with a lifetime oracle ({!Oracle}: the offline-trained database or
    the online adaptive trainer), producing the measurements behind
    Tables 7, 8 and 9.

    The replays are independent — each {!Lp_allocsim.Driver.run} owns its
    allocator state and oracle instance and only reads the trace — so
    they execute concurrently on the {!Parallel} domain pool.
    [Parallel.with_domains 1] (or [LPALLOC_DOMAINS=1]) forces the
    sequential order, which produces bit-identical metrics: parallelism
    only changes scheduling, never results.

    Allocators are named {!Lp_allocsim.Registry} entries.  A backend that
    uses prediction (the arena allocator) expands into two jobs, one per
    prediction pricing: its own name with the fixed length-4 chain cost,
    and ["<name>-cce"] with the amortised call-chain-encryption cost
    (§5.1's two implementation strategies). *)

type t

val default_allocators : string list
(** ["first-fit"; "bsd"; "arena"] — the paper's comparison set. *)

val run :
  ?allocators:string list ->
  ?wrap:(Lp_allocsim.Backend.t -> Lp_allocsim.Backend.t) ->
  config:Config.t ->
  oracle:Oracle.t ->
  test:Lp_trace.Trace.t ->
  unit ->
  t
(** [wrap] interposes on every backend before it is replayed — the hook
    the shadow-heap sanitizer ([Lp_analysis.Sanitize.for_backend]) plugs
    into.  A well-behaved wrapper keeps the backend's name and delegates
    its metrics, so results are keyed and valued identically. *)

val metrics : t -> string -> Lp_allocsim.Metrics.t
(** Result by job name ([Failure] if absent, listing the names present). *)

val names : t -> string list
(** Job names, in replay order: one per canonical spec, the first given
    ([segfit] and [seg] name one job, ["segfit"]). *)

val first_fit : t -> Lp_allocsim.Metrics.t
val bsd : t -> Lp_allocsim.Metrics.t
val arena_len4 : t -> Lp_allocsim.Metrics.t
val arena_cce : t -> Lp_allocsim.Metrics.t

val run_streamed :
  ?allocators:string list ->
  ?wrap:(Lp_allocsim.Backend.t -> Lp_allocsim.Backend.t) ->
  config:Config.t ->
  oracle:Oracle.t ->
  source:(unit -> Lp_trace.Source.t) ->
  unit ->
  t
(** The streaming twin of {!run}: [source] must open a fresh single-shot
    event stream on every call; each replay job opens its own, on the
    domain that runs it, so per-domain memory is bounded by one stream
    and concurrent replays never share a cursor.  Metrics are
    byte-identical to {!run} on the materialized equivalent.  Sources
    that do not declare their call/object totals up front (text,
    generators) cost one extra probe drain for the CCE pricing. *)

val cce_cost : Lp_trace.Trace.t -> int
(** Per-allocation prediction cost under call-chain encryption, amortised
    over the test trace's call counts. *)

val cce_cost_of : calls:int -> allocs:int -> int
(** {!cce_cost} from explicit totals — the streaming path's form. *)

val arena_with_cost :
  config:Config.t ->
  oracle:Oracle.t ->
  test:Lp_trace.Trace.t ->
  predict_cost:int ->
  Lp_allocsim.Metrics.t
(** One arena replay with an explicit prediction cost — the ablation
    benches sweep this. *)
