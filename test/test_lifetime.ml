(* Tests for the core lifetime-prediction library: training, predictor
   construction, self/true evaluation, cross-run site mapping, and the
   arena simulation glue — on small hand-built programs where the right
   answers are computable by hand. *)

module Rt = Lp_ialloc.Runtime

(* A tiny synthetic program with two allocation sites:
   - site S (under function "short_maker"): n_short objects of 16 bytes,
     each freed immediately -> always short-lived;
   - site L (under "long_maker"): objects of 32 bytes kept alive while
     [filler] bytes are allocated afterwards. *)
let synthetic ?(n_short = 50) ?(filler = 100_000) ~input () =
  let rt = Rt.create ~program:"synthetic" ~input () in
  let main = Rt.func rt "main" in
  let short_maker = Rt.func rt "short_maker" in
  let long_maker = Rt.func rt "long_maker" in
  Rt.enter rt main;
  let long_obj = Rt.in_frame rt long_maker (fun () -> Rt.alloc rt ~size:32) in
  for _ = 1 to n_short do
    Rt.in_frame rt short_maker (fun () ->
        let h = Rt.alloc rt ~size:16 in
        Rt.touch rt h 3;
        Rt.free rt h)
  done;
  (* filler keeps the long object alive past the threshold *)
  Rt.in_frame rt long_maker (fun () ->
      let rec fill remaining =
        if remaining > 0 then begin
          let h = Rt.alloc rt ~size:1024 in
          Rt.free rt h;
          fill (remaining - 1024)
        end
      in
      fill filler);
  Rt.free rt long_obj;
  Rt.leave rt;
  Rt.finish rt

let config = Lifetime.Config.default

let train_finds_sites () =
  let trace = synthetic ~input:"a" () in
  let table = Lifetime.Train.collect ~config trace in
  (* sites: short_maker x16, long_maker x32, long_maker x1024 *)
  Alcotest.(check int) "three sites" 3 (Lifetime.Train.total_sites table)

let predictor_accepts_only_all_short () =
  let trace = synthetic ~input:"a" () in
  let table = Lifetime.Train.collect ~config trace in
  let p = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  (* the 16-byte site and the 1024-byte filler site are all-short; the
     32-byte long site is not *)
  Alcotest.(check int) "two short sites" 2 (Lifetime.Predictor.size p)

let self_prediction_is_exact () =
  let trace = synthetic ~input:"a" () in
  let _, e = Lifetime.Evaluate.train_and_evaluate ~config ~train:trace ~test:trace in
  Alcotest.(check int) "no error bytes in self prediction" 0 e.error_bytes;
  (* correct bytes: all short objects (50*16 + filler) but not the long 32 *)
  Alcotest.(check int) "correct bytes" (e.actual_short_bytes) e.correct_bytes

let true_prediction_maps_by_name () =
  let train = synthetic ~input:"a" () in
  let test = synthetic ~n_short:70 ~input:"b" () in
  let _, e = Lifetime.Evaluate.train_and_evaluate ~config ~train ~test in
  (* the sites map by function names + size even though the runs differ *)
  Alcotest.(check int) "both short sites used" 2 e.sites_used;
  Alcotest.(check int) "no error" 0 e.error_bytes;
  Alcotest.(check int) "all short bytes predicted" e.actual_short_bytes e.correct_bytes

let true_prediction_catches_behaviour_change () =
  (* train where the "long" site is actually short (tiny filler), test where
     it is long: the predictor must mispredict exactly those bytes *)
  let train = synthetic ~filler:1000 ~input:"a" () in
  let test = synthetic ~filler:100_000 ~input:"b" () in
  let _, e = Lifetime.Evaluate.train_and_evaluate ~config ~train ~test in
  Alcotest.(check int) "error = the long object's 32 bytes" 32 e.error_bytes

let size_only_policy () =
  let trace = synthetic ~input:"a" () in
  let config = { config with policy = Lp_callchain.Site.Size_only } in
  let table = Lifetime.Train.collect ~config trace in
  (* sizes: 16 (short), 32 (long), 1024 (short) -> 3 sites, 2 predicted *)
  Alcotest.(check int) "three size classes" 3 (Lifetime.Train.total_sites table);
  let p = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  Alcotest.(check int) "two predicted" 2 (Lifetime.Predictor.size p)

let rounding_collapses_sites () =
  (* sizes 14 and 16 round to the same portable key; if one site is dirty
     the collapsed key must be evicted (conservative rule) *)
  let rt = Rt.create ~program:"r" ~input:"t" () in
  let main = Rt.func rt "main" in
  Rt.enter rt main;
  (* same chain, size 14: short-lived *)
  let a = Rt.alloc rt ~size:14 in
  Rt.free rt a;
  (* same chain, size 16: long-lived *)
  let b = Rt.alloc rt ~size:16 in
  let rec fill n = if n > 0 then begin
      let h = Rt.alloc rt ~size:4096 in
      Rt.free rt h;
      fill (n - 4096)
    end
  in
  fill 100_000;
  Rt.free rt b;
  Rt.leave rt;
  let trace = Rt.finish rt in
  let table = Lifetime.Train.collect ~config trace in
  let p = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  (* predictor may keep the 4096 filler site but must NOT keep the 16-bucket
     key that the dirty size-16 site shares with the clean size-14 site *)
  let e = Lifetime.Evaluate.run ~config p trace in
  Alcotest.(check int) "no error bytes thanks to conservative eviction" 0
    e.error_bytes

let simulation_places_short_in_arenas () =
  let trace = synthetic ~input:"a" () in
  let table = Lifetime.Train.collect ~config trace in
  let p = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  let sim = Lifetime.Simulate.run ~config ~oracle:(Lifetime.Oracle.static p) ~test:trace () in
  let m = (Lifetime.Simulate.arena_len4 sim) in
  Alcotest.(check bool) "most allocs in arenas" true
    (Lp_allocsim.Metrics.arena_alloc_pct m > 90.);
  (* prediction cost of 18 instructions is charged per alloc *)
  Alcotest.(check bool) "len4 cheaper than cce or close" true
    (m.instr_per_alloc <= (Lifetime.Simulate.arena_cce sim).instr_per_alloc +. 1e-9
     || (Lifetime.Simulate.arena_cce sim).instr_per_alloc > 0.)

let first_fit_vs_arena_heaps () =
  let trace = synthetic ~input:"a" () in
  let table = Lifetime.Train.collect ~config trace in
  let p = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  let sim = Lifetime.Simulate.run ~config ~oracle:(Lifetime.Oracle.static p) ~test:trace () in
  (* small-heap program: arena adds its 64 KB area (paper Table 8's small
     programs all grow) *)
  Alcotest.(check bool) "arena heap >= first-fit heap for tiny program" true
    ((Lifetime.Simulate.arena_len4 sim).max_heap >= (Lifetime.Simulate.first_fit sim).max_heap)

let experiments_table1 () =
  let rows = Lifetime.Experiments.table1 () in
  Alcotest.(check int) "five programs" 5 (List.length rows);
  List.iter
    (fun (r : Lifetime.Experiments.table1_row) ->
      Alcotest.(check bool) (r.program ^ " described") true
        (String.length r.description > 20))
    rows

let portable_key_roundtrip () =
  let tbl = Lp_callchain.Func.create_table () in
  let f = Lp_callchain.Func.intern tbl "f" and g = Lp_callchain.Func.intern tbl "g" in
  let site =
    Lp_callchain.Site.make Lp_callchain.Site.Complete_chain ~raw_chain:[| g; f |]
      ~key:0 ~size:13
  in
  let p = Lifetime.Portable.of_site tbl ~rounding:4 site in
  Alcotest.(check (list string)) "names" [ "g"; "f" ] p.chain;
  Alcotest.(check int) "rounded size" 16 p.size;
  (* a second table with different ids yields an equal key *)
  let tbl2 = Lp_callchain.Func.create_table () in
  let _ = Lp_callchain.Func.intern tbl2 "zzz" in
  let f2 = Lp_callchain.Func.intern tbl2 "f" and g2 = Lp_callchain.Func.intern tbl2 "g" in
  let site2 =
    Lp_callchain.Site.make Lp_callchain.Site.Complete_chain ~raw_chain:[| g2; f2 |]
      ~key:0 ~size:15
  in
  let p2 = Lifetime.Portable.of_site tbl2 ~rounding:4 site2 in
  Alcotest.(check bool) "cross-table equality" true (Lifetime.Portable.equal p p2)

let fraction_selection_trades_error () =
  (* a site with 9 short + 1 long object: All_short rejects it,
     Fraction 0.8 accepts it (and produces error bytes) *)
  let rt = Rt.create ~program:"f" ~input:"t" () in
  let main = Rt.func rt "main" in
  Rt.enter rt main;
  let keep = ref None in
  for i = 1 to 10 do
    let h = Rt.alloc rt ~size:64 in
    if i = 10 then keep := Some h else Rt.free rt h
  done;
  let rec fill n = if n > 0 then begin
      let h = Rt.alloc rt ~size:4096 in
      Rt.free rt h;
      fill (n - 4096)
    end
  in
  fill 100_000;
  Option.iter (Rt.free rt) !keep;
  Rt.leave rt;
  let trace = Rt.finish rt in
  let table = Lifetime.Train.collect ~config trace in
  let strict = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  let lax =
    Lifetime.Predictor.build ~selection:(Lifetime.Predictor.Fraction 0.8) ~config
      ~funcs:trace.funcs table
  in
  let es = Lifetime.Evaluate.run ~config strict trace in
  let el = Lifetime.Evaluate.run ~config lax trace in
  Alcotest.(check int) "strict: no error" 0 es.error_bytes;
  Alcotest.(check bool) "lax: more coverage" true (el.correct_bytes > es.correct_bytes);
  Alcotest.(check bool) "lax: pays with error" true (el.error_bytes > 0)

(* -- domain pool and observability ---------------------------------------------- *)

let parallel_map_matches_sequential () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int)) "squares" (List.map (fun x -> x * x) xs)
    (Lifetime.Parallel.map ~domains:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "empty" [] (Lifetime.Parallel.map ~domains:4 Fun.id []);
  (* nested maps degrade to sequential instead of spawning domains *)
  Alcotest.(check (list (list int))) "nested"
    [ [ 0; 1 ]; [ 0; 1 ] ]
    (Lifetime.Parallel.map ~domains:2
       (fun _ -> Lifetime.Parallel.map ~domains:2 Fun.id [ 0; 1 ])
       [ 0; 1 ])

let parallel_map_propagates_exceptions () =
  match
    Lifetime.Parallel.map ~domains:3
      (fun x -> if x = 5 then failwith "job 5 blew up" else x)
      (List.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "message" "job 5 blew up" msg

let metrics_equal (a : Lp_allocsim.Metrics.t) (b : Lp_allocsim.Metrics.t) = a = b

let parallel_simulation_matches_sequential () =
  let trace = synthetic ~input:"a" () in
  let table = Lifetime.Train.collect ~config trace in
  let p = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  let sim_seq =
    Lifetime.Parallel.with_domains 1 (fun () ->
        Lifetime.Simulate.run ~config ~oracle:(Lifetime.Oracle.static p) ~test:trace ())
  in
  let sim_par =
    Lifetime.Parallel.with_domains 4 (fun () ->
        Lifetime.Simulate.run ~config ~oracle:(Lifetime.Oracle.static p) ~test:trace ())
  in
  Alcotest.(check bool) "first-fit identical" true
    (metrics_equal (Lifetime.Simulate.first_fit sim_seq) (Lifetime.Simulate.first_fit sim_par));
  Alcotest.(check bool) "bsd identical" true (metrics_equal (Lifetime.Simulate.bsd sim_seq) (Lifetime.Simulate.bsd sim_par));
  Alcotest.(check bool) "arena len4 identical" true
    (metrics_equal (Lifetime.Simulate.arena_len4 sim_seq) (Lifetime.Simulate.arena_len4 sim_par));
  Alcotest.(check bool) "arena cce identical" true
    (metrics_equal (Lifetime.Simulate.arena_cce sim_seq) (Lifetime.Simulate.arena_cce sim_par))

let timings_record_replay_stages () =
  Lp_obs.Timings.reset ();
  Lp_obs.Timings.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Lp_obs.Timings.set_enabled false;
      Lp_obs.Timings.reset ())
    (fun () ->
      let trace = synthetic ~input:"a" () in
      let table = Lifetime.Train.collect ~config trace in
      let p = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
      let _ = Lifetime.Simulate.run ~config ~oracle:(Lifetime.Oracle.static p) ~test:trace () in
      let stages = Lp_obs.Timings.stages () in
      let find name =
        match List.find_opt (fun s -> s.Lp_obs.Timings.name = name) stages with
        | Some s -> s
        | None -> Alcotest.failf "missing stage %s" name
      in
      let events = Array.length trace.Lp_trace.Trace.events in
      Alcotest.(check int) "first-fit replay counted once" 1
        (find "replay/first-fit").calls;
      Alcotest.(check int) "bsd items = events" events (find "replay/bsd").items;
      (* the two arena pricings aggregate under one stage *)
      Alcotest.(check int) "two arena replays" 2 (find "replay/arena").calls)

(* Regression: the simulation cache key must cover every Config field the
   cached row depends on — it used to ignore the config entirely, so a
   sweep varying e.g. the threshold read back stale rows computed under
   the default. *)
let cache_key_covers_config () =
  let base = Lifetime.Config.default in
  let key ?scale ?allocators c =
    Lifetime.Experiments.cache_key ?scale ?allocators ~config:c "prog"
  in
  Alcotest.(check string) "same inputs, same key" (key base) (key base);
  let distinct what k = Alcotest.(check bool) what true (k <> key base) in
  distinct "threshold in key" (key { base with short_lived_threshold = 1024 });
  distinct "n_arenas in key" (key { base with n_arenas = 4 });
  distinct "arena_size in key" (key { base with arena_size = 8192 });
  distinct "size_rounding in key" (key { base with size_rounding = 16 });
  distinct "policy in key"
    (key { base with policy = Lp_callchain.Site.Last_callers 2 });
  distinct "scale in key" (key ~scale:0.5 base);
  distinct "allocators in key" (key ~allocators:[ "first-fit" ] base)

(* The exact weighted quantile uses a ceiling rank: with weights
   (1,w=1) (2,w=2) (3,w=3), total 6, the 25% quantile must cover
   ceil(1.5) = 2 bytes -> value 2; the floored rank used to return 1. *)
let weighted_quantile_ceiling_rank () =
  let sorted = [ (1., 1); (2., 2); (3., 3) ] in
  let q p = Lifetime.Experiments.weighted_quantile sorted ~total:6 p in
  Alcotest.(check (float 0.)) "q25 covers 2 of 6 bytes" 2. (q 0.25);
  Alcotest.(check (float 0.)) "median covers 3 of 6 bytes" 2. (q 0.50);
  Alcotest.(check (float 0.)) "q75 covers 5 of 6 bytes" 3. (q 0.75);
  Alcotest.(check (float 0.)) "q100 is the max" 3. (q 1.0);
  Alcotest.(check (float 0.)) "q0 is the min" 1. (q 0.)

(* -- profile/derive training against the per-allocation reference ----------------- *)

module Site = Lp_callchain.Site
module Train = Lifetime.Train

(* a table's entries in [Site.Table.fold] order: comparing two of these
   compares entries, per-site statistics and insertion order at once *)
let entries (table : Train.site_table) =
  Site.Table.fold
    (fun site (stats : Lifetime.Site_stats.t) acc -> (site, stats) :: acc)
    table []

let policies =
  Site.Complete_chain :: Site.Size_only :: Site.Encrypted_key
  :: List.init 8 (fun i -> Site.Last_callers (i + 1))

let thresholds = [ 1; 100; 400; 32768 ]

let training_gen =
  QCheck.Gen.(
    triple
      (oneof [ Test_stream.random_trace_gen; Test_stream.random_realloc_trace_gen ])
      (int_range 1 12)
      (list_size (int_range 0 8) (int_range 1 4)))

(* Every trainer — materialized, streamed, sharded over a random covering
   partition, and derivations sharing one profile the way the tune search
   shares it — builds the reference's table under every policy and
   threshold, realloc-bearing traces included. *)
let training_matches_reference =
  QCheck.Test.make ~count:40
    ~name:"profile/derive training equals the per-allocation reference"
    (QCheck.make training_gen)
    (fun (trace, chunk_events, cuts) ->
      let sh =
        Lp_trace.Sharded.of_string ~name:"train.lpt"
          (Lp_trace.Binio.to_string_v3 ~chunk_events trace)
      in
      let ranges = Test_sharded.partition_of sh cuts in
      let by_chain = Train.profile trace in
      let by_key = Train.profile ~policy:Site.Encrypted_key trace in
      List.iter
        (fun policy ->
          List.iter
            (fun threshold ->
              let config =
                {
                  config with
                  Lifetime.Config.policy;
                  short_lived_threshold = threshold;
                }
              in
              let expect = entries (Train_reference.collect ~config trace) in
              let check path table =
                if entries table <> expect then
                  QCheck.Test.fail_reportf
                    "%s differs from the reference under %s at threshold %d" path
                    (Site.policy_to_string policy) threshold
              in
              check "collect" (Train.collect ~config trace);
              check "collect_source"
                (Train.collect_source ~config (Lp_trace.Source.of_trace trace))
                  .Train.table;
              check "merge_ranges"
                (Train.project
                   (Test_sharded.merged_over (Train.domain ~config ()) ranges))
                  .Train.table;
              check "derive from a shared profile"
                (Train.derive ~config
                   (if policy = Site.Encrypted_key then by_key else by_chain)))
            thresholds)
        policies;
      true)

(* One chain id allocating under two encryption keys (a trace from another
   tool records the key instead of recomputing it): the key profile must
   intern on the key, giving two sites, while chain policies see one. *)
let encrypted_key_splits_a_chain () =
  let module B = Lp_trace.Trace.Builder in
  let funcs = Lp_callchain.Func.create_table () in
  let main = Lp_callchain.Func.intern funcs "main" in
  let b = B.create ~program:"keys" ~input:"hand" ~funcs () in
  let chain = B.intern_chain b [| main |] in
  let o1 = B.alloc b ~size:16 ~chain ~key:7 () in
  let o2 = B.alloc b ~size:16 ~chain ~key:9 () in
  B.free b ~obj:o1;
  B.free b ~obj:o2;
  let trace = B.finish b in
  let sites policy =
    Train.total_sites
      (Train.collect ~config:{ config with Lifetime.Config.policy } trace)
  in
  Alcotest.(check int) "two encrypted-key sites" 2 (sites Site.Encrypted_key);
  Alcotest.(check int) "one complete-chain site" 1 (sites Site.Complete_chain);
  Alcotest.(check int) "one size-only site" 1 (sites Site.Size_only);
  Alcotest.check_raises "a chain profile cannot derive key sites"
    (Invalid_argument
       "Train.derive: the profile was interned for another site policy")
    (fun () ->
      ignore
        (Train.derive
           ~config:{ config with Lifetime.Config.policy = Site.Encrypted_key }
           (Train.profile trace)))

(* Under [Encrypted_key] the predictor's per-trace memo interns the
   (key, size) pairs the policy reads: two keys under one chain are two
   sites, and neither may inherit the other's verdict, whichever of them
   is queried first.  Key 7's object dies at once, key 9's survives, so
   only the first belongs in an arena. *)
let encrypted_key_verdicts_ignore_query_order () =
  let module B = Lp_trace.Trace.Builder in
  let funcs = Lp_callchain.Func.create_table () in
  let main = Lp_callchain.Func.intern funcs "main" in
  let b = B.create ~program:"keys" ~input:"hand" ~funcs () in
  let chain = B.intern_chain b [| main |] in
  let short = B.alloc b ~size:16 ~chain ~key:7 () in
  B.free b ~obj:short;
  ignore (B.alloc b ~size:16 ~chain ~key:9 () : int);
  let trace = B.finish b in
  let config = { config with Lifetime.Config.policy = Site.Encrypted_key } in
  let p =
    Lifetime.Predictor.build ~config ~funcs:trace.funcs
      (Train.collect ~config trace)
  in
  List.iter
    (fun order ->
      let lookup = Lifetime.Predictor.for_trace p trace in
      let verdicts =
        List.map (fun key -> (key, lookup ~obj:0 ~size:16 ~chain ~key)) order
      in
      let what = String.concat "," (List.map string_of_int order) in
      Alcotest.(check bool) ("key 7 predicted, order " ^ what) true
        (List.assoc 7 verdicts);
      Alcotest.(check bool) ("key 9 not predicted, order " ^ what) false
        (List.assoc 9 verdicts))
    [ [ 7; 9 ]; [ 9; 7 ] ];
  let m =
    Lifetime.Simulate.metrics
      (Lifetime.Simulate.run ~allocators:[ "arena" ] ~config
         ~oracle:(Lifetime.Oracle.static p) ~test:trace ())
      "arena"
  in
  let arena_allocs =
    match Lp_allocsim.Metrics.arena_stats m with
    | Some st -> st.Lp_allocsim.Metrics.arena_allocs
    | None -> Alcotest.fail "arena metrics carry no arena statistics"
  in
  Alcotest.(check int) "one arena allocation" 1 arena_allocs;
  Alcotest.(check int) "no short-lived mispredict" 0
    m.Lp_allocsim.Metrics.mispredicts_short_lived

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "map matches sequential" `Quick
          parallel_map_matches_sequential;
        Alcotest.test_case "map propagates exceptions" `Quick
          parallel_map_propagates_exceptions;
        Alcotest.test_case "parallel simulation = sequential" `Quick
          parallel_simulation_matches_sequential;
        Alcotest.test_case "timings record replay stages" `Quick
          timings_record_replay_stages;
      ] );
    ( "lifetime",
      [
        Alcotest.test_case "training finds sites" `Quick train_finds_sites;
        Alcotest.test_case "all-short selection" `Quick predictor_accepts_only_all_short;
        Alcotest.test_case "self prediction exact" `Quick self_prediction_is_exact;
        Alcotest.test_case "true prediction maps by name" `Quick
          true_prediction_maps_by_name;
        Alcotest.test_case "true prediction catches change" `Quick
          true_prediction_catches_behaviour_change;
        Alcotest.test_case "size-only policy" `Quick size_only_policy;
        Alcotest.test_case "rounding collapse is conservative" `Quick
          rounding_collapses_sites;
        Alcotest.test_case "simulation uses arenas" `Quick
          simulation_places_short_in_arenas;
        Alcotest.test_case "heap comparison" `Quick first_fit_vs_arena_heaps;
        Alcotest.test_case "table1 rows" `Quick experiments_table1;
        Alcotest.test_case "portable keys" `Quick portable_key_roundtrip;
        Alcotest.test_case "fraction selection" `Quick fraction_selection_trades_error;
        Alcotest.test_case "cache key covers config" `Quick cache_key_covers_config;
        Alcotest.test_case "weighted quantile ceiling rank" `Quick
          weighted_quantile_ceiling_rank;
        QCheck_alcotest.to_alcotest training_matches_reference;
        Alcotest.test_case "encrypted key splits a chain" `Quick
          encrypted_key_splits_a_chain;
        Alcotest.test_case "encrypted-key verdicts ignore query order" `Quick
          encrypted_key_verdicts_ignore_query_order;
      ] );
  ]
