(** The lifetime-oracle layer: a single interface over every way the
    simulator can answer "will this allocation die young?".

    The paper's offline pipeline — train on a profile run, compile the
    short-lived site database into the allocation system (§5.1) — is the
    [static] oracle, a wrapper over {!Predictor}.  The [online] oracle is
    profile-free: it starts empty, learns from the outcome of every
    prediction the replay feeds back, and promotes a site once a window
    of recent outcomes is unanimously short-lived, demoting it again
    after enough consecutive long-lived outcomes (hysteresis).

    Every oracle instance is private to one replay and its state depends
    only on the event stream it observes, so simulated results are
    deterministic at any domain count. *)

type online_params = {
  window : int;
      (** outcomes per site the verdict considers; [0] keeps every
          outcome (unbounded) *)
  promote : int;
      (** outcomes a site needs — all of them short — before it is
          promoted to predicted *)
  demote : int;
      (** consecutive long-lived outcomes that demote a predicted site *)
  threshold : int option;
      (** short-lived cutoff in allocated bytes; [None] uses the
          simulation config's threshold *)
}

val default_online_params : online_params
(** [{window = 256; promote = 4; demote = 4; threshold = None}]. *)

type spec = Spec_static | Spec_online of online_params
(** A parsed oracle spec, before any model or config is attached. *)

type t
(** An oracle: the static site database or the online trainer recipe. *)

val static : Predictor.t -> t
(** The offline-trained site database as an oracle. *)

val online :
  ?window:int -> ?promote:int -> ?demote:int -> ?threshold:int -> Config.t -> t
(** The online adaptive oracle; defaults as {!default_online_params}. *)

val family : Lp_allocsim.Spec.family
(** The oracles and their parameter rows: [static] takes none; [online]
    takes [window], [promote], [demote] and [threshold]. *)

val spec_of_string : string -> (spec, string) result
(** Parse [static] or [online:window=N:promote=K:demote=K:threshold=B]
    in the grammar of {!Lp_allocsim.Spec}.  Every parameter is optional
    and validated, and [promote] may not exceed a bounded [window];
    errors are one line ending [(in spec %S)] and never raise. *)

val canonical_spec : string -> (string, string) result
(** The canonical form: parameters in grammar order with defaults
    dropped, so a spec that only restates defaults collapses to the plain
    oracle name. *)

val of_spec : config:Config.t -> ?predictor:Predictor.t -> spec -> (t, string) result
(** Attach a parsed spec to a simulation config.  [Spec_static] requires
    [predictor] (the trained database) and errors without one;
    [Spec_online] ignores it. *)

val grammar_markdown : unit -> string
(** The oracle-spec grammar as a markdown table
    ({!Lp_allocsim.Spec.markdown}) — the README embeds this verbatim
    (drift-tested). *)

type instance
(** One replay's worth of oracle: the driver-facing predictor plus a
    snapshot of the predicted site set.  Static instances are frozen;
    online instances own mutable window state, so every replay needs a
    fresh instance — both [instance_for_*] constructors always build new
    online state, never memoized, so consecutive replays cannot leak
    learned state into each other. *)

val instance_for_trace :
  ?pooled:bool -> t -> predict_cost:int -> Lp_trace.Trace.t -> instance
(** An instance over a materialized trace's interned tables.  [pooled]
    (default false) routes a static oracle through
    {!Predictor.for_trace_pooled} — the candidate-sweep fast path; it is
    ignored by online oracles, whose state is inherently per-instance. *)

val instance_for_source :
  t -> predict_cost:int -> Lp_trace.Source.t -> instance
(** An instance over a streaming source's incremental tables. *)

val driver_predictor : instance -> Lp_allocsim.Driver.predictor
(** The record {!Lp_allocsim.Driver.run_prepared} consumes.  For online
    oracles its [on_outcome] is the feedback path — the driver must be
    given this exact record so learning sees every outcome. *)

val snapshot : instance -> string list
(** The predicted portable site keys, rendered and sorted.  For a static
    oracle this is the database, replay-independent; for an online oracle
    it is the promoted set aggregated with {!Predictor.build}'s
    conservative rounding rule (a collapsed key survives only if every
    contributing observed site is promoted), so with an unbounded window
    and no hysteresis it converges to exactly what offline training on
    the same trace selects. *)
