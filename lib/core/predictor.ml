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

type t = {
  keys : unit Portable.Table.t;
  policy : Lp_callchain.Site.policy;
  rounding : int;
  threshold : int;
  selection : selection;
}

let portable_of_site t funcs site =
  match t.policy with
  | Lp_callchain.Site.Encrypted_key -> Portable.of_key_site site ~rounding:t.rounding
  | _ -> Portable.of_site funcs ~rounding:t.rounding site

let build ?(selection = All_short) ~(config : Config.t) ~funcs
    (table : Train.site_table) =
  let t =
    {
      keys = Portable.Table.create 256;
      policy = config.policy;
      rounding = config.size_rounding;
      threshold = config.short_lived_threshold;
      selection;
    }
  in
  Lp_callchain.Site.Table.iter
    (fun site stats ->
      let accept =
        match selection with
        | All_short -> Site_stats.all_short stats
        | Fraction f -> stats.Site_stats.count > 0 && Site_stats.short_fraction stats >= f
      in
      (* Distinct sites can collapse onto one portable key (rounding); the
         conservative rule keeps a key only if every contributing site
         qualifies, so a later non-qualifying site must evict the key. *)
      let key = portable_of_site t funcs site in
      if accept then begin
        if not (Portable.Table.mem t.keys key) then Portable.Table.add t.keys key ()
      end
      else Portable.Table.remove t.keys key)
    table;
  (* second pass: re-evict keys that a non-qualifying site shares, since
     iteration order above may have added after removal *)
  Lp_callchain.Site.Table.iter
    (fun site stats ->
      let accept =
        match selection with
        | All_short -> Site_stats.all_short stats
        | Fraction f -> stats.Site_stats.count > 0 && Site_stats.short_fraction stats >= f
      in
      if not accept then Portable.Table.remove t.keys (portable_of_site t funcs site))
    table;
  t

(* Rebuild a predictor from an explicit key set — the path a portable
   model file takes back into a live predictor. *)
let of_keys ?(selection = All_short) ~(config : Config.t) keys =
  let t =
    {
      keys = Portable.Table.create (max 16 (List.length keys));
      policy = config.policy;
      rounding = config.size_rounding;
      threshold = config.short_lived_threshold;
      selection;
    }
  in
  List.iter
    (fun k -> if not (Portable.Table.mem t.keys k) then Portable.Table.add t.keys k ())
    keys;
  t

let size t = Portable.Table.length t.keys
let threshold t = t.threshold

let predicts_site t funcs site = Portable.Table.mem t.keys (portable_of_site t funcs site)

let predicts_key t key = Portable.Table.mem t.keys key

let iter_keys t f = Portable.Table.iter (fun k () -> f k) t.keys

(* A fast per-trace lookup: resolves each interned (chain, size) pair once
   and memoizes, so the simulation driver's per-allocation test is a
   hash-table probe — mirroring the small site hash table of §5.1.

   The memo keys on the shared {!Lp_trace.Site_intern} rather than a
   [Hashtbl] keyed by an [(int * int)] tuple: the replay driver calls
   this once per allocation, and the tuple key plus the [find_opt]
   option box would cost two minor allocations and a polymorphic hash on
   every probe.  This probe allocates nothing.

   The table lives in a [memo] record so a candidate sweep can pool it:
   resetting (one pass clearing the interner's slots) is far cheaper than
   reallocating and re-zeroing fresh arrays per replay. *)

type memo = {
  ids : Lp_trace.Site_intern.t;
  mutable verdicts : Bytes.t;  (* by site id *)
}

let create_memo () =
  { ids = Lp_trace.Site_intern.create ~capacity:4096 (); verdicts = Bytes.create 256 }

(* stale verdicts are unreachable once the interner forgets their ids *)
let reset_memo m = Lp_trace.Site_intern.clear m.ids

(* The memo interns what the policy reads — the chain, or the key under
   [Encrypted_key] — by the trainer's own rule: two keys under one chain
   are two sites, so they must not share a verdict. *)
let for_lookup_in m t ~chain_of ~funcs =
  let by_key = Train.keyed_by_key t.policy in
  fun ~obj:_ ~size ~chain ~key ->
    let ck = if by_key then key else chain in
    let id = Lp_trace.Site_intern.find m.ids ck size in
    if id >= 0 then Bytes.unsafe_get m.verdicts id = '\001'
    else begin
      let site =
        Lp_callchain.Site.make t.policy ~raw_chain:(chain_of chain) ~key ~size
      in
      let hit = predicts_site t (funcs ()) site in
      let id = Lp_trace.Site_intern.intern m.ids ck size in
      if id = Bytes.length m.verdicts then
        m.verdicts <- Bytes.extend m.verdicts 0 (Bytes.length m.verdicts);
      Bytes.set m.verdicts id (if hit then '\001' else '\000');
      hit
    end

let for_lookup t ~chain_of ~funcs = for_lookup_in (create_memo ()) t ~chain_of ~funcs

let for_trace t (trace : Lp_trace.Trace.t) =
  for_lookup t
    ~chain_of:(Lp_trace.Trace.chain_of_alloc trace)
    ~funcs:(fun () -> trace.funcs)

let for_source t (src : Lp_trace.Source.t) =
  for_lookup t ~chain_of:src.Lp_trace.Source.chain ~funcs:src.Lp_trace.Source.funcs

(* one pooled memo per domain; [for_trace_pooled] resets it instead of
   allocating, so a candidate sweep's per-replay predictor state is O(1)
   allocation after warm-up *)
let memo_key = Domain.DLS.new_key create_memo

let for_trace_pooled t (trace : Lp_trace.Trace.t) =
  let m = Domain.DLS.get memo_key in
  reset_memo m;
  Lp_obs.Timings.count "predictor.memo_reuses" 1;
  for_lookup_in m t
    ~chain_of:(Lp_trace.Trace.chain_of_alloc trace)
    ~funcs:(fun () -> trace.funcs)
