(** Chain-key collision detection (the audit's first analysis).

    Scans the merged {!Site_profile} for predictor keys shared by
    concrete sites on distinct call chains whose observed lifetime
    classes disagree — one member all short-lived, another with
    long-lived objects.  Such keys are guaranteed-mispredict points
    regardless of the class the predictor assigns; with a model at hand,
    a colliding key the model predicts short-lived is reported as an
    error ([chain-collision-mispredict]), otherwise as a warning
    ([chain-collision]).  Both chains, their depths and their clashing
    lifetime quartiles are rendered into the message; the diagnostic
    anchors at the key's first allocation event. *)

val rules : Diagnostic.rule list

val report :
  ?model_index:Lifetime.Model.index ->
  Lp_trace.Source.t ->
  Site_profile.merged ->
  Diagnostic.t list
(** Diagnostics in key first-appearance order; deterministic across
    materialized, streamed and sharded profiles. *)
