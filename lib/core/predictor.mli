(** Short-lived-site predictors.

    A predictor is the set of allocation sites whose training objects were
    {e all} short-lived, stored as portable keys so it can be applied to a
    different execution — the "database of allocation sites" the paper
    compiles into the allocation system (§5.1).

    [selection] generalises the paper's all-short rule: the ablation
    benches also build predictors that accept sites with at least a given
    fraction of short-lived training objects, trading error rate for
    coverage (the trade-off §4.1 discusses around "how large should this
    percentage be?"). *)

type selection =
  | All_short  (** the paper's rule *)
  | Fraction of float  (** accept sites with >= this fraction short *)

type t

val build :
  ?selection:selection ->
  config:Config.t ->
  funcs:Lp_callchain.Func.table ->
  Train.site_table ->
  t
(** Select the qualifying sites of a training table, conservatively: when
    rounding collapses several raw sites onto one portable key, the key
    survives only if {e every} contributing site qualifies. *)

val of_keys : ?selection:selection -> config:Config.t -> Portable.t list -> t
(** A predictor over an explicit key set — how a portable model file
    ({!Model}) becomes a live predictor again.  Duplicates are ignored. *)

val size : t -> int
(** Number of accepted keys. *)

val threshold : t -> int
(** The short-lived cutoff (in allocated bytes) the predictor was built
    under — the config's [short_lived_threshold] at {!build} time. *)

val portable_of_site :
  t -> Lp_callchain.Func.table -> Lp_callchain.Site.t -> Portable.t
(** The portable key of a raw site under the predictor's policy and
    rounding ({!Portable.of_policy_site}). *)

val predicts_site : t -> Lp_callchain.Func.table -> Lp_callchain.Site.t -> bool
val predicts_key : t -> Portable.t -> bool
val iter_keys : t -> (Portable.t -> unit) -> unit

val for_lookup :
  t ->
  chain_of:(int -> Lp_callchain.Chain.t) ->
  funcs:Lp_callchain.Func.table ->
  obj:int ->
  size:int ->
  chain:int ->
  key:int ->
  bool
(** A memoizing lookup over any chain-id resolver: each interned
    (chain, size) pair — (key, size) under [Encrypted_key], the pair the
    policy reads — is resolved once, so the simulation driver's
    per-allocation test is a hash-table probe — mirroring the small site
    hash table of §5.1. *)

val for_trace :
  t ->
  Lp_trace.Trace.t ->
  obj:int ->
  size:int ->
  chain:int ->
  key:int ->
  bool
(** {!for_lookup} over a materialized trace's interned tables. *)

val for_source :
  t ->
  Lp_trace.Source.t ->
  obj:int ->
  size:int ->
  chain:int ->
  key:int ->
  bool
(** {!for_lookup} over a streaming source's incremental tables.  Sound
    mid-stream by the source interning contract: any chain id an event
    carries is already resolvable. *)

val for_trace_pooled :
  t ->
  Lp_trace.Trace.t ->
  obj:int ->
  size:int ->
  chain:int ->
  key:int ->
  bool
(** {!for_trace} over the calling domain's pooled memo table, reset
    instead of reallocated — the candidate-sweep fast path.  Verdicts are
    identical to {!for_trace}.  The returned lookup is only valid until
    the next [for_trace_pooled] call on the same domain (each call resets
    the shared memo); don't hold one across replays.  Each reset bumps
    the ["predictor.memo_reuses"] counter of {!Lp_obs.Timings} when
    timings are enabled. *)
