(** The trace/model audit: three static analyses over one
    {!Lp_trace.Absint} pass.

    [lpalloc audit]'s engine.  A single traversal drives two abstract
    domains — the shared per-object/per-site profile
    ({!Site_profile}) and the live-interval lattice ({!Liveint})
    — and three reports read the merged summaries:

    - {!Collision}: predictor keys shared by distinct call chains whose
      lifetime classes disagree ([chain-collision], warning; hardened to
      [chain-collision-mispredict], error, when the given model predicts
      the key short-lived);
    - {!Coverage}: trace sites the model misses ([coverage-cold-start]),
      model sites the trace never exercises ([coverage-dead-site]),
      sites within a margin of the short-lived cutoff
      ([coverage-threshold-sensitive]), and — under
      [--oracle online] — keys whose member sites are too rare to warm
      the online oracle's promotion window ([coverage-online-cold]);
    - {!Liveint}: the global live-heap peak ([live-peak-pressure]) and
      cross-site overlap hotspots ([live-overlap-hotspot]).

    Only [chain-collision-mispredict] is error-severity, so auditing a
    workload against its own trained model exits 0 unless the model's
    own key space is self-contradictory.  Diagnostics are byte-identical
    across {!run}, {!run_source} and {!run_sharded}. *)

type options = {
  au_threshold : int;  (** short-lived cutoff, bytes *)
  au_rounding : int;  (** size rounding of portable keys *)
  au_policy : Lp_callchain.Site.policy;
  au_margin : float;  (** threshold-sensitivity band, fraction of cutoff *)
  au_hotspot_share : float;  (** overlap-hotspot share of the global peak *)
  au_model : Lifetime.Model.t option;
  au_online : Lifetime.Oracle.online_params option;
      (** arms [coverage-online-cold]: report keys whose member sites
          are too rare to warm the online oracle's promotion window
          ([lpalloc audit --oracle online]) *)
  au_only : string list option;  (** rule selection, as [lint]'s [--only] *)
  au_disable : string list option;
}

val default_options : options
(** {!Lifetime.Config.default}'s threshold/rounding/policy, the
    analyses' default margins, no model, all rules. *)

val with_model : options -> Lifetime.Model.t -> options
(** Adopt the model's training configuration (threshold, rounding, and
    policy when parseable) so the audit profiles the trace under the
    same abstraction the model was trained with. *)

val rules : Diagnostic.rule list
(** All eight audit rules, in analysis order — the one registry behind
    [--only]/[--disable], [--list-rules], the SARIF driver and the
    README table. *)

val run : options -> Lp_trace.Trace.t -> Diagnostic.t list
(** Audit a materialized trace.  Equivalent to {!run_source} over
    {!Lp_trace.Source.of_trace}.
    @raise Invalid_argument on an unknown rule id in the options. *)

val run_source : options -> Lp_trace.Source.t -> Diagnostic.t list
(** Audit a streaming event source in one bounded-memory pass; the
    source is consumed. *)

val run_sharded : ?domains:int -> options -> Lp_trace.Sharded.t -> Diagnostic.t list
(** Range-parallel audit through {!Lifetime.Shard.run}; identical output to
    {!run_source} on the whole trace. *)

val clean : Diagnostic.t list -> bool
(** No error-severity diagnostics ([lpalloc audit]'s exit-0 predicate). *)

val rules_markdown : unit -> string
(** The rule registry as a GitHub-flavoured markdown table — the exact
    text embedded in the README (a test keeps the two from drifting). *)
