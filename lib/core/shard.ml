(** Data-parallel replay of one sharded ([.lpt] v3) trace.

    The one fan-out of every [--sharded] pass: [Parallel.map_chunks]
    spreads the trace's chunk index over the domain pool as balanced
    contiguous ranges, each worker replays its range under the fold
    engine ({!Lp_trace.Absint.run_range}, seeded from the range's entry
    counters and carry-in set and sized from its footer ids), and the
    domains' merges, walked in range order, reproduce the sequential
    streaming folds exactly — same values, same histogram state, same
    table insertion order.  [LPALLOC_DOMAINS=1] degrades to one range,
    the whole trace, with identical results, which is how the CI gate
    checks byte-identical output at 1 and 4 domains. *)

let run ?domains ~analyses (sh : Lp_trace.Sharded.t) =
  Lp_trace.Absint.merge_ranges ~analyses
    (Parallel.map_chunks ?domains ~n_chunks:(Lp_trace.Sharded.n_chunks sh)
       (fun ~first ~count ->
         Lp_trace.Absint.run_range ~analyses
           (Lp_trace.Sharded.range sh ~first ~count)))
