(* The PRE-PROFILE trainer, retained verbatim as the reference
   implementation for the training equivalence property in
   test_lifetime.ml.

   This is the [Train.collect] lib/core/train.ml shipped before training
   split into a per-trace profile and a per-config derivation: one
   [Lifetimes.compute] pass, then [Site.make] and a site find-or-add per
   allocation, folding each object into its site in allocation order.
   The only line dropped is the per-site P² histogram observation, whose
   field [Site_stats] no longer has.  The profile/derive trainer (and its
   streamed and sharded twins) must build the identical table — same
   entries, same statistics, same insertion order — for any trace and
   configuration; qcheck drives both.

   Do not "clean up" or optimize this module: its value is that it stays
   frozen while the production trainer evolves. *)

module Site = Lp_callchain.Site
module Config = Lifetime.Config
module Site_stats = Lifetime.Site_stats

type site_table = Site_stats.t Site.Table.t

let site_of_alloc (trace : Lp_trace.Trace.t) ~policy ~chain ~key ~size =
  let raw_chain = Lp_trace.Trace.chain_of_alloc trace chain in
  Site.make policy ~raw_chain ~key ~size

let collect ?(config = Config.default) (trace : Lp_trace.Trace.t) : site_table =
  let lifetimes = Lp_trace.Lifetimes.compute trace in
  let table : site_table = Site.Table.create 256 in
  Lp_trace.Trace.iter_allocs trace (fun ~obj ~size ~chain ~key ~tag:_ ->
      let site = site_of_alloc trace ~policy:config.policy ~chain ~key ~size in
      let stats =
        match Site.Table.find_opt table site with
        | Some s -> s
        | None ->
            let s = Site_stats.create () in
            Site.Table.add table site s;
            s
      in
      let lifetime = lifetimes.lifetime.(obj) in
      let survived = lifetimes.survived.(obj) in
      let short =
        Lp_trace.Lifetimes.is_short_lived lifetimes
          ~threshold:config.short_lived_threshold obj
      in
      Site_stats.observe stats ~size ~lifetime ~survived ~short
        ~refs:trace.obj_refs.(obj));
  table
