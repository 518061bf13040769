(** Predictor-coverage audit (the audit's second analysis).

    Reads the merged {!Site_profile} against an optional model:
    trace keys the model lacks ([coverage-cold-start], warning — their
    allocations fall to the fallback path), model keys the trace never
    exercises ([coverage-dead-site], info), and keys whose observed
    maximum lifetime sits within a configurable margin of the
    short-lived cutoff ([coverage-threshold-sensitive], warning — one
    input shift from flipping class; fires with or without a model).
    With [online] parameters ([lpalloc audit --oracle online]) it also
    reports would-be online cold starts ([coverage-online-cold], info):
    keys with member sites the trace exercises fewer than [promote]
    times, which the online oracle would therefore never predict.
    No rule is error-severity, so a clean self-trained audit exits 0. *)

val rules : Diagnostic.rule list

val default_margin : float
(** [0.125]: the sensitivity band is cutoff ± 12.5%. *)

val report :
  ?model:Lifetime.Model.t ->
  ?online:Lifetime.Oracle.online_params ->
  ?margin:float ->
  Site_profile.merged ->
  Diagnostic.t list
(** Key-order cold-start, online-cold and sensitivity findings, then
    dead model sites in model-entry order.  Without [model], only
    threshold sensitivity and (given [online]) online cold start can
    fire. *)
