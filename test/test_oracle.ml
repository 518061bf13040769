(* Tests for the lifetime-oracle layer: the spec grammar and its exit-2
   error strings, canonicalization, the README/EXPERIMENTS drift locks,
   the driver's mispredict accounting, the online oracle's convergence
   to offline training (unbounded window, no hysteresis) across every
   source kind, the no-state-leak contract between consecutive replays,
   and domain-count determinism. *)

module O = Lifetime.Oracle
module Rt = Lp_ialloc.Runtime

let config = Lifetime.Config.default
let arena_config = Lifetime.Config.arena_config config

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* -- spec grammar ----------------------------------------------------------------- *)

let check_error spec want =
  match O.spec_of_string spec with
  | Ok _ -> Alcotest.failf "spec %S unexpectedly parsed" spec
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S error mentions %S (got %S)" spec want msg)
        true (contains msg want)

let spec_errors () =
  check_error "" "empty oracle spec";
  check_error "bogus" "unknown oracle \"bogus\" (known: static, online)";
  check_error "static:window=3" "oracle static takes no parameters";
  check_error "online:win=3" "unknown parameter \"win\" for online";
  check_error "online:window=3:window=4" "duplicate parameter \"window\"";
  check_error "online:window=x" "not an integer";
  check_error "online:window=65537" "outside [0, 65536]";
  check_error "online:promote=0" "promote: 0 is not positive";
  check_error "online:window=4:promote=5" "promote: 5 exceeds window 4";
  check_error "online:demote=0" "demote: 0 is not positive";
  check_error "online:threshold=0" "threshold: 0 is not positive";
  (* every parameter error names the offending spec, the exit-2 contract *)
  (match O.spec_of_string "online:promote=0" with
  | Error msg ->
      Alcotest.(check bool)
        "error ends with (in spec ...)" true
        (contains msg "(in spec \"online:promote=0\")")
  | Ok _ -> Alcotest.fail "parsed")

let spec_parse () =
  (match O.spec_of_string "static" with
  | Ok O.Spec_static -> ()
  | _ -> Alcotest.fail "static should parse to Spec_static");
  (match O.spec_of_string "online" with
  | Ok (O.Spec_online p) ->
      Alcotest.(check bool)
        "bare online is all defaults" true
        (p = O.default_online_params)
  | _ -> Alcotest.fail "online should parse");
  (match O.spec_of_string "online:window=64:promote=2:threshold=16384" with
  | Ok (O.Spec_online p) ->
      Alcotest.(check int) "window" 64 p.O.window;
      Alcotest.(check int) "promote" 2 p.O.promote;
      Alcotest.(check int) "demote (default)" 4 p.O.demote;
      Alcotest.(check (option int)) "threshold" (Some 16384) p.O.threshold
  | _ -> Alcotest.fail "online parameters should parse");
  (* ':' alone separates parameters, as in allocator specs; ',' is the
     CLI's list separator *)
  match O.spec_of_string "online:window=64,promote=2" with
  | Error msg ->
      Alcotest.(check string)
        "a ',' stays inside the value"
        {|parameter window: "64,promote=2" is not an integer (in spec "online:window=64,promote=2")|}
        msg
  | Ok _ -> Alcotest.fail "',' must not separate parameters"

let canonicalization () =
  let canon spec = Result.get_ok (O.canonical_spec spec) in
  Alcotest.(check string) "static" "static" (canon "static");
  Alcotest.(check string)
    "defaults collapse" "online"
    (canon "online:window=256:promote=4:demote=4");
  Alcotest.(check string)
    "grammar order, defaults dropped" "online:window=0:demote=2"
    (canon "online:demote=2:window=0");
  match O.canonical_spec "online:promote=0" with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "bad spec canonicalized to %S" s

let of_spec_static_needs_predictor () =
  match O.of_spec ~config O.Spec_static with
  | Error msg ->
      Alcotest.(check bool)
        "names the missing database" true
        (contains msg "trained site database")
  | Ok _ -> Alcotest.fail "static without a predictor must error"

(* -- drift locks ------------------------------------------------------------------ *)

let readme_oracle_grammar () =
  let readme = In_channel.with_open_bin "../README.md" In_channel.input_all in
  Alcotest.(check bool)
    "README embeds the generated oracle grammar" true
    (contains readme (O.grammar_markdown ()))

(* EXPERIMENTS.md commits the three-way oracle table; it must regenerate
   byte-identically (deterministic traces, deterministic replays) *)
let experiments_oracle_table () =
  let table = Lifetime.Experiments.oracle_markdown () in
  let experiments =
    In_channel.with_open_bin "../EXPERIMENTS.md" In_channel.input_all
  in
  Alcotest.(check bool)
    "EXPERIMENTS embeds the regenerated oracle comparison" true
    (contains experiments table)

(* -- the driver's mispredict accounting ------------------------------------------- *)

(* two sites with hand-computable classes: [n_short] 16-byte objects
   freed immediately, one 32-byte object held across [filler] allocated
   bytes (well past the 32 KB threshold) *)
let two_site_trace ?(n_short = 40) ?(filler = 100_000) () =
  let rt = Rt.create ~program:"oracle" ~input:"t" () in
  let main = Rt.func rt "main" in
  let short_maker = Rt.func rt "short_maker" in
  let long_maker = Rt.func rt "long_maker" in
  Rt.enter rt main;
  let long_obj = Rt.in_frame rt long_maker (fun () -> Rt.alloc rt ~size:32) in
  for _ = 1 to n_short do
    Rt.in_frame rt short_maker (fun () ->
        let h = Rt.alloc rt ~size:16 in
        Rt.free rt h)
  done;
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

let short_long_counts trace =
  let lifetimes = Lp_trace.Lifetimes.compute trace in
  let short = ref 0 and long = ref 0 in
  Lp_trace.Trace.iter_allocs trace (fun ~obj ~size:_ ~chain:_ ~key:_ ~tag:_ ->
      if
        Lp_trace.Lifetimes.is_short_lived lifetimes
          ~threshold:config.short_lived_threshold obj
      then incr short
      else incr long);
  (!short, !long)

let run_const_predictor trace answer =
  Lp_allocsim.Driver.run
    ~predictor:
      {
        Lp_allocsim.Driver.predicted =
          (fun ~obj:_ ~size:_ ~chain:_ ~key:_ -> answer);
        predict_cost = 0;
        short_threshold = config.short_lived_threshold;
        on_outcome = None;
      }
    trace
    (Lp_allocsim.Registry.backend ~arena_config "arena")

let mispredict_counters () =
  let trace = two_site_trace () in
  let n_short, n_long = short_long_counts trace in
  Alcotest.(check bool) "trace has both classes" true (n_short > 0 && n_long > 0);
  let all = run_const_predictor trace true in
  Alcotest.(check int)
    "predict-all: every consultation counted" (n_short + n_long)
    all.Lp_allocsim.Metrics.predictions;
  Alcotest.(check int)
    "predict-all: every long object is a short-side mispredict" n_long
    all.Lp_allocsim.Metrics.mispredicts_short_lived;
  Alcotest.(check int)
    "predict-all: no long-side mispredicts" 0
    all.Lp_allocsim.Metrics.mispredicts_long_lived;
  let none = run_const_predictor trace false in
  Alcotest.(check int)
    "predict-none: every short object is a long-side mispredict" n_short
    none.Lp_allocsim.Metrics.mispredicts_long_lived;
  Alcotest.(check int)
    "predict-none: no short-side mispredicts" 0
    none.Lp_allocsim.Metrics.mispredicts_short_lived

(* -- convergence: online (unbounded, no hysteresis) = offline training ------------ *)

let offline_snapshot trace =
  let table = Lifetime.Train.collect ~config trace in
  let p = Lifetime.Predictor.build ~config ~funcs:trace.Lp_trace.Trace.funcs table in
  O.snapshot (O.instance_for_trace (O.static p) ~predict_cost:0 trace)

let exact_online () = O.online ~window:0 ~promote:1 ~demote:1 config

let online_snapshot_materialized trace =
  let inst = O.instance_for_trace (exact_online ()) ~predict_cost:0 trace in
  let (_ : Lp_allocsim.Metrics.t) =
    Lp_allocsim.Driver.run
      ~predictor:(O.driver_predictor inst)
      trace
      (Lp_allocsim.Registry.backend ~arena_config "arena")
  in
  O.snapshot inst

let online_snapshot_source src =
  let inst = O.instance_for_source (exact_online ()) ~predict_cost:0 src in
  let (_ : Lp_allocsim.Metrics.t) =
    Lp_allocsim.Driver.run_source
      ~predictor:(O.driver_predictor inst)
      src
      (Lp_allocsim.Registry.backend ~arena_config "arena")
  in
  O.snapshot inst

let convergence_unit () =
  let trace = two_site_trace () in
  let offline = offline_snapshot trace in
  Alcotest.(check bool) "offline set nonempty" true (offline <> []);
  Alcotest.(check (list string))
    "materialized online converges" offline
    (online_snapshot_materialized trace)

let convergence_property =
  QCheck.Test.make ~count:25
    ~name:"online (window=0, promote=1, demote=1) converges to offline \
           training over every source kind"
    (QCheck.make Test_stream.random_trace_gen)
    (fun trace ->
      let offline = offline_snapshot trace in
      let check kind got =
        if got <> offline then
          QCheck.Test.fail_reportf "%s online snapshot diverges:\n%s\nvs\n%s"
            kind
            (String.concat "; " got)
            (String.concat "; " offline)
      in
      check "materialized" (online_snapshot_materialized trace);
      List.iter
        (fun (kind, make) -> check kind (online_snapshot_source (make ())))
        (Test_stream.sources_of trace);
      let v3 = Lp_trace.Binio.to_string_v3 ~chunk_events:16 trace in
      let sh = Lp_trace.Sharded.of_string ~name:"conv.lpt" v3 in
      check "sharded" (online_snapshot_source (Lp_trace.Sharded.source sh));
      true)

(* -- no state leak between consecutive replays ------------------------------------ *)

let sim_json oracle trace =
  let sim =
    Lifetime.Simulate.run ~allocators:[ "arena"; "segfit" ] ~config ~oracle
      ~test:trace ()
  in
  String.concat "\n"
    (List.map
       (fun name ->
         name ^ "\t"
         ^ Lp_allocsim.Metrics.to_json (Lifetime.Simulate.metrics sim name))
       (Lifetime.Simulate.names sim))

(* one Oracle.t value replayed twice: if window state leaked through the
   prepared-trace pool or the oracle value itself, the second replay
   would start warm and its mispredict counters would differ *)
let no_leak_between_replays () =
  let trace = two_site_trace () in
  let oracle = O.online config in
  let first = sim_json oracle trace in
  let second = sim_json oracle trace in
  Alcotest.(check string) "second replay starts cold" first second

let domain_determinism () =
  let trace = two_site_trace () in
  let at n =
    Lifetime.Parallel.with_domains n (fun () ->
        sim_json (O.online config) trace)
  in
  Alcotest.(check string) "1 vs 4 domains byte-identical" (at 1) (at 4)

let suites =
  [
    ( "oracle",
      [
        Alcotest.test_case "spec parse errors" `Quick spec_errors;
        Alcotest.test_case "spec parsing" `Quick spec_parse;
        Alcotest.test_case "spec canonicalization" `Quick canonicalization;
        Alcotest.test_case "static spec needs a predictor" `Quick
          of_spec_static_needs_predictor;
        Alcotest.test_case "README oracle grammar table" `Quick
          readme_oracle_grammar;
        Alcotest.test_case "EXPERIMENTS oracle comparison table" `Slow
          experiments_oracle_table;
        Alcotest.test_case "driver mispredict accounting" `Quick
          mispredict_counters;
        Alcotest.test_case "online converges to offline (unit)" `Quick
          convergence_unit;
        QCheck_alcotest.to_alcotest convergence_property;
        Alcotest.test_case "no state leak between replays" `Quick
          no_leak_between_replays;
        Alcotest.test_case "online domain determinism" `Quick domain_determinism;
      ] );
  ]
