(* Tests for the static-analysis layer: the trace linter against a golden
   corpus of corrupt traces (one seeded defect per rule, asserting the
   exact rule id and event index), the shadow-heap sanitizer against both
   deliberately buggy backends and every registry backend, and the
   predictor-model validator against seeded model defects. *)

module D = Lp_analysis.Diagnostic
module Lint = Lp_analysis.Lint
module San = Lp_analysis.Sanitize
module Validate = Lp_analysis.Validate

let findings diags =
  List.map (fun (d : D.t) -> (d.rule, Option.value d.event ~default:(-1))) diags

let check_findings what expected diags =
  Alcotest.(check (list (pair string int))) what expected (findings diags)

(* -- golden corrupt-trace corpus ------------------------------------------------ *)

(* each file seeds exactly one kind of defect; the linter must report
   exactly these (rule, event-index) pairs and nothing else *)
let corpus =
  [
    ("double_free.txt", [ ("double-free", 2) ]);
    ("free_without_alloc.txt", [ ("free-without-alloc", 1) ]);
    ("touch_after_free.txt", [ ("touch-after-free", 2) ]);
    ("size_mismatch_at_free.txt", [ ("size-mismatch-at-free", 1) ]);
    ("nonpositive_size.txt", [ ("nonpositive-size", 0) ]);
    ("negative_size.txt", [ ("nonpositive-size", 0) ]);
    ("realloc_of_unallocated.txt", [ ("realloc-of-unallocated", 1) ]);
    ("realloc_after_free.txt", [ ("realloc-after-free", 2) ]);
    ("realloc_size_regression.txt", [ ("realloc-size-regression", 1) ]);
    ( "non_monotonic_birth.txt",
      [ ("non-monotonic-birth", 1); ("non-monotonic-birth", 2) ] );
    ("leaked_at_exit.txt", [ ("leaked-at-exit", 1) ]);
    ("chain_anomaly.txt", [ ("chain-anomaly", 0) ]);
  ]

let corpus_trace file = Lp_trace.Io.read_file ("corrupt_traces/" ^ file)

let corpus_case (file, expected) =
  Alcotest.test_case file `Quick (fun () ->
      check_findings file expected (Lint.run (corpus_trace file)))

let rule_selection () =
  let trace = corpus_trace "double_free.txt" in
  check_findings "disabled" [] (Lint.run ~disable:[ "double-free" ] trace);
  check_findings "only other rule" []
    (Lint.run ~only:[ "leaked-at-exit" ] trace);
  check_findings "only it" [ ("double-free", 2) ]
    (Lint.run ~only:[ "double-free" ] trace);
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument
       "Diagnostic.select: unknown rule \"no-such-rule\" in --only (known: \
        double-free, free-without-alloc, touch-after-free, \
        size-mismatch-at-free, realloc-of-unallocated, realloc-after-free, \
        realloc-size-regression, nonpositive-size, non-monotonic-birth, \
        leaked-at-exit, chain-anomaly)")
    (fun () -> ignore (Lint.run ~only:[ "no-such-rule" ] trace))

let severity_contract () =
  List.iter
    (fun (file, _) ->
      let diags = Lint.run (corpus_trace file) in
      let expect_clean =
        file = "leaked_at_exit.txt" || file = "chain_anomaly.txt"
      in
      Alcotest.(check bool)
        (file ^ " clean?") expect_clean (Lint.clean diags))
    corpus

let deep_chain_anomaly () =
  (* a legitimate deep chain becomes an anomaly only past the limit *)
  let rt = Lp_ialloc.Runtime.create ~program:"deep" ~input:"x" () in
  let fs =
    List.init 6 (fun i -> Lp_ialloc.Runtime.func rt (Printf.sprintf "f%d" i))
  in
  List.iter (Lp_ialloc.Runtime.enter rt) fs;
  let h = Lp_ialloc.Runtime.alloc rt ~size:8 in
  Lp_ialloc.Runtime.free rt h;
  List.iter (fun _ -> Lp_ialloc.Runtime.leave rt) fs;
  let trace = Lp_ialloc.Runtime.finish rt in
  check_findings "under limit" [] (Lint.run trace);
  check_findings "over limit"
    [ ("chain-anomaly", 0) ]
    (Lint.run ~max_chain_depth:3 trace)

(* a declared free size must survive the binary codec (it switches the
   file to format version 2) and still trip the linter after reload *)
let sized_free_binary_roundtrip () =
  let trace = corpus_trace "size_mismatch_at_free.txt" in
  let reloaded = Lp_trace.Binio.of_string (Lp_trace.Binio.to_string trace) in
  check_findings "diagnostics survive binary round-trip"
    [ ("size-mismatch-at-free", 1) ]
    (Lint.run reloaded);
  (* traces without declared sizes keep the version-1 encoding *)
  let plain = corpus_trace "double_free.txt" in
  let s = Lp_trace.Binio.to_string plain in
  Alcotest.(check int) "format version 1" 1 (Char.code s.[4]);
  let sized = Lp_trace.Binio.to_string trace in
  Alcotest.(check int) "format version 2" 2 (Char.code sized.[4])

let bundled_traces_lint_clean () =
  List.iter
    (fun (p : Lp_workloads.Registry.program) ->
      let trace =
        Lp_workloads.Registry.trace ~program:p.name ~input:"tiny" ()
      in
      let diags = Lint.run trace in
      Alcotest.(check bool)
        (p.name ^ " lints clean (no errors)")
        true (Lint.clean diags))
    Lp_workloads.Registry.programs

let json_rendering () =
  let diags = Lint.run (corpus_trace "double_free.txt") in
  Alcotest.(check string)
    "json"
    "[{\"rule\":\"double-free\",\"severity\":\"error\",\"event\":2,\"obj\":0,\
     \"site\":\"main\",\"message\":\"object 0 freed again (first freed at \
     event 1)\"}]"
    (D.list_to_json diags)

(* -- shadow-heap sanitizer ------------------------------------------------------- *)

(* a backend with a seeded placement bug: every block is placed at [stride
   * i] for a stride smaller than the sizes it serves, so consecutive live
   allocations overlap.  stride 0 places everything at the same address. *)
module Buggy (P : sig
  val stride : int
  val base : int
end) : Lp_allocsim.Backend.BACKEND = struct
  type t = {
    mutable next : int;
    mutable allocs : int;
    mutable frees : int;
    mutable live : int;
    mutable peak : int;
  }

  let name = "buggy"
  let uses_prediction = false

  let create ?base:_ () =
    { next = P.base; allocs = 0; frees = 0; live = 0; peak = 0 }

  let release _ = ()

  let alloc t ~size ~predicted:_ =
    let addr = t.next in
    t.next <- t.next + P.stride;
    t.allocs <- t.allocs + 1;
    t.live <- t.live + size;
    if t.live > t.peak then t.peak <- t.live;
    addr

  let free t _ = t.frees <- t.frees + 1
  let realloc = None
  let charge_alloc _ _ = ()
  let allocs t = t.allocs
  let frees t = t.frees
  let alloc_instr _ = 0
  let free_instr _ = 0
  let max_heap_size t = t.peak
  let extra _ = Lp_allocsim.Metrics.Core
  let check_invariants _ = ()
end

let violation_of f =
  match f () with
  | _ -> Alcotest.fail "expected Sanitize.Violation"
  | exception San.Violation d -> d

let catches_overlap () =
  let backend =
    San.wrap (module Buggy (struct let stride = 0 let base = 0 end)) in
  let (module B : Lp_allocsim.Backend.BACKEND) = backend in
  let t = B.create () in
  let _ = B.alloc t ~size:16 ~predicted:false in
  let d = violation_of (fun () -> B.alloc t ~size:16 ~predicted:false) in
  Alcotest.(check string) "rule" "shadow-overlap" d.rule;
  Alcotest.(check (option int)) "op index" (Some 1) d.event;
  (* freeing the first block makes the address legal again *)
  B.free t 0;
  let addr = B.alloc t ~size:16 ~predicted:false in
  Alcotest.(check int) "re-placed" 0 addr

(* property: under the sanitizer, the seeded overlap bug is caught for any
   schedule of two or more live allocations, at the first overlapping one *)
let overlap_always_caught =
  QCheck.Test.make ~count:100 ~name:"sanitizer: seeded overlap bug always caught"
    QCheck.(pair (int_range 0 8) (list_of_size (QCheck.Gen.int_range 2 12) (int_range 1 64)))
    (fun (stride, sizes) ->
      let module B =
        (val San.wrap
               (module Buggy (struct
                 let stride = stride
                 let base = 0
               end)) : Lp_allocsim.Backend.BACKEND)
      in
      let t = B.create () in
      (* block i lives at [stride*i, stride*i + size_i): an overlap exists
         iff some block other than the last has a size exceeding the
         stride (the last block has nothing placed after it to overlap) *)
      let rec all_but_last = function [] | [ _ ] -> [] | s :: tl -> s :: all_but_last tl in
      let should_fail = List.exists (fun s -> s > stride) (all_but_last sizes) in
      match List.iter (fun s -> ignore (B.alloc t ~size:s ~predicted:false)) sizes with
      | () -> not should_fail
      | exception San.Violation d -> should_fail && d.D.rule = "shadow-overlap")

let catches_unmapped_free () =
  let (module B : Lp_allocsim.Backend.BACKEND) =
    San.wrap (Lp_allocsim.Registry.backend "first-fit")
  in
  let t = B.create () in
  let addr = B.alloc t ~size:32 ~predicted:false in
  let d = violation_of (fun () -> B.free t (addr + 1)) in
  Alcotest.(check string) "rule" "shadow-unmapped-free" d.rule;
  Alcotest.(check (option int)) "op index" (Some 1) d.event;
  B.free t addr;
  let d = violation_of (fun () -> B.free t addr) in
  Alcotest.(check string) "freed twice" "shadow-unmapped-free" d.rule

let catches_misalignment () =
  let backend =
    San.wrap ~alignment:8
      (module Buggy (struct let stride = 64 let base = 4 end))
  in
  let (module B : Lp_allocsim.Backend.BACKEND) = backend in
  let t = B.create () in
  let d = violation_of (fun () -> B.alloc t ~size:16 ~predicted:false) in
  Alcotest.(check string) "rule" "shadow-misaligned" d.rule;
  Alcotest.(check (option int)) "op index" (Some 0) d.event

let catches_boundary_straddle () =
  (* blocks at 0, 48, 96, ... with size 32: the second straddles 64 *)
  let backend =
    San.wrap ~boundary:64
      (module Buggy (struct let stride = 48 let base = 0 end))
  in
  let (module B : Lp_allocsim.Backend.BACKEND) = backend in
  let t = B.create () in
  let _ = B.alloc t ~size:32 ~predicted:false in
  let d = violation_of (fun () -> B.alloc t ~size:32 ~predicted:false) in
  Alcotest.(check string) "rule" "shadow-boundary" d.rule;
  Alcotest.(check (option int)) "op index" (Some 1) d.event

let perl_trace =
  lazy (Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" ())

(* every registry backend, replaying a real workload trace under the
   sanitizer: no violations, and metrics byte-identical to the plain
   replay (the wrapper must be metrically invisible) *)
let registry_backends_replay_clean () =
  let trace = Lazy.force perl_trace in
  List.iter
    (fun name ->
      let plain =
        Lp_allocsim.Driver.run trace (Lp_allocsim.Registry.backend name)
      in
      let sanitized =
        Lp_allocsim.Driver.run trace
          (San.for_backend (Lp_allocsim.Registry.backend name))
      in
      Alcotest.(check bool)
        (name ^ ": sanitized metrics identical")
        true (plain = sanitized))
    (Lp_allocsim.Registry.names ())

(* a realloc-heavy synthetic trace: sizes picked so size-class backends
   (bsd, segfit) absorb some resizes in place and must move for others,
   while list/arena backends fall back to free+alloc for every one *)
let realloc_trace =
  lazy
    (let rt = Lp_ialloc.Runtime.create ~program:"resizer" ~input:"x" () in
     let f = Lp_ialloc.Runtime.func rt "grow" in
     Lp_ialloc.Runtime.enter rt f;
     let hs =
       Array.init 6 (fun i -> Lp_ialloc.Runtime.alloc rt ~size:(40 + (4 * i)))
     in
     Array.iter
       (fun h ->
         (* 40..60 -> 56: stays in the 64-byte class *)
         ignore (Lp_ialloc.Runtime.realloc rt h ~new_size:56);
         (* 56 -> 96: crosses into the 128-byte class *)
         ignore (Lp_ialloc.Runtime.realloc rt h ~new_size:96);
         (* 96 -> 72: shrink within the 128-byte class *)
         ignore (Lp_ialloc.Runtime.realloc rt h ~new_size:72))
       hs;
     Array.iter (Lp_ialloc.Runtime.free rt) hs;
     Lp_ialloc.Runtime.leave rt;
     Lp_ialloc.Runtime.finish rt)

(* the shadow heap must follow every resize — through the native realloc
   hooks and through the free+alloc fallback alike — without violations,
   and stay metrically invisible *)
let realloc_sanitized_replay_clean () =
  let trace = Lazy.force realloc_trace in
  List.iter
    (fun name ->
      let plain =
        Lp_allocsim.Driver.run trace (Lp_allocsim.Registry.backend name)
      in
      let sanitized =
        Lp_allocsim.Driver.run trace
          (San.for_backend (Lp_allocsim.Registry.backend name))
      in
      Alcotest.(check bool)
        (name ^ ": sanitized realloc metrics identical")
        true (plain = sanitized))
    (Lp_allocsim.Registry.names ())

(* the driver attributes each resize to exactly one bucket, and the
   in-place/move split genuinely differs between a size-class backend
   and one running on the free+alloc fallback *)
let driver_realloc_attribution () =
  let trace = Lazy.force realloc_trace in
  let events = 3 * 6 in
  let bsd = Lp_allocsim.Driver.run_named trace "bsd" in
  Alcotest.(check int) "bsd reallocs" events bsd.Lp_allocsim.Metrics.reallocs;
  Alcotest.(check int) "bsd split sums"
    events
    (bsd.Lp_allocsim.Metrics.realloc_in_place
    + bsd.Lp_allocsim.Metrics.realloc_moves);
  (* with the 8-byte header, 40..56 start in the 64-byte class and 60 in
     the 128-byte class: ->56 is in place except for the size-60 object,
     ->96 always moves, and the 96->72 shrink stays in the 128 class *)
  Alcotest.(check int) "bsd in place" 11
    bsd.Lp_allocsim.Metrics.realloc_in_place;
  Alcotest.(check int) "bsd moves" 7 bsd.Lp_allocsim.Metrics.realloc_moves;
  let ff = Lp_allocsim.Driver.run_named trace "first-fit" in
  Alcotest.(check int) "fallback reallocs" events
    ff.Lp_allocsim.Metrics.reallocs;
  Alcotest.(check int) "fallback never in place" 0
    ff.Lp_allocsim.Metrics.realloc_in_place;
  Alcotest.(check int) "fallback all moves" events
    ff.Lp_allocsim.Metrics.realloc_moves

let simulate_sanitized_parallel_identical () =
  let test = Lazy.force perl_trace in
  let config = Lifetime.Config.default in
  let table = Lifetime.Train.collect ~config test in
  let predictor = Lifetime.Predictor.build ~config ~funcs:test.funcs table in
  let arena_config = Lifetime.Config.arena_config config in
  let wrap b = San.for_backend ~arena_config b in
  let run domains =
    Lifetime.Parallel.with_domains domains (fun () ->
        Lifetime.Simulate.run ~wrap ~config
          ~oracle:(Lifetime.Oracle.static predictor) ~test ())
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check (list string)) "same jobs"
    (Lifetime.Simulate.names seq) (Lifetime.Simulate.names par);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " identical under --sanitize")
        true
        (Lifetime.Simulate.metrics seq name = Lifetime.Simulate.metrics par name))
    (Lifetime.Simulate.names seq)

(* -- predictor-model validator --------------------------------------------------- *)

let key chain size = { Lifetime.Portable.chain; size }

let entry ?(predicted = false) ?(count = 1) ?(short_count = count)
    ?(max_lifetime = 0) k : Lifetime.Model.entry =
  { key = k; predicted; count; short_count; max_lifetime }

let model ?(threshold = 1000) ?(clock = 100_000) entries : Lifetime.Model.t =
  {
    program = "synthetic";
    threshold;
    rounding = 4;
    policy = "complete-chain";
    clock;
    entries;
  }

let validator_findings what expected m =
  check_findings what expected (Validate.run m)

let validator_seeded_defects () =
  validator_findings "clean" []
    (model [ entry ~predicted:true (key [ "f" ] 16) ]);
  validator_findings "orphaned"
    [ ("model-orphaned-site", 0) ]
    (model [ entry ~predicted:true ~count:0 ~short_count:0 (key [ "f" ] 16) ]);
  validator_findings "inconsistent stats"
    [ ("model-orphaned-site", 1) ]
    (model
       [
         entry (key [ "f" ] 16);
         entry ~count:1 ~short_count:2 (key [ "g" ] 16);
       ]);
  validator_findings "contradicted label"
    [ ("model-contradictory-prefix", 0) ]
    (model [ entry ~predicted:true ~count:3 ~short_count:2 (key [ "f" ] 16) ]);
  validator_findings "contradicted prefix"
    [ ("model-contradictory-prefix", 0) ]
    (model
       [
         entry ~predicted:true (key [ "f" ] 16);
         entry ~count:5 ~short_count:0 ~max_lifetime:99_999 (key [ "f"; "g" ] 16);
       ]);
  (* same chain but different size: no contradiction *)
  validator_findings "different size"
    []
    (model
       [
         entry ~predicted:true (key [ "f" ] 16);
         entry ~count:5 ~short_count:0 ~max_lifetime:99_999 (key [ "f"; "g" ] 24);
       ]);
  validator_findings "nonpositive threshold"
    [ ("model-threshold-range", -1) ]
    (model ~threshold:0 []);
  validator_findings "threshold beyond clock"
    [ ("model-threshold-range", -1) ]
    (model ~threshold:200_000 []);
  validator_findings "lifetime at threshold"
    [ ("model-threshold-range", 0) ]
    (model [ entry ~predicted:true ~max_lifetime:1000 (key [ "f" ] 16) ])

let trained_model_roundtrip () =
  let trace = Lazy.force perl_trace in
  let config = Lifetime.Config.default in
  let table = Lifetime.Train.collect ~config trace in
  let predictor = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  let m = Lifetime.Model.of_training ~config ~trace table predictor in
  Alcotest.(check bool) "has entries" true (m.entries <> []);
  Alcotest.(check int) "clock" (Lp_trace.Trace.total_bytes trace) m.clock;
  let m' = Lifetime.Model.of_string (Lifetime.Model.to_string m) in
  Alcotest.(check bool) "round-trips" true (m = m');
  (* the rebuilt predictor accepts exactly the entries marked predicted *)
  let rebuilt = Lifetime.Model.predictor ~config m' in
  Alcotest.(check int) "key count" (Lifetime.Predictor.size predictor)
    (Lifetime.Predictor.size rebuilt);
  List.iter
    (fun (e : Lifetime.Model.entry) ->
      Alcotest.(check bool)
        (Lifetime.Portable.to_string e.key)
        e.predicted
        (Lifetime.Predictor.predicts_key rebuilt e.key))
    m'.entries;
  (* a freshly trained model validates clean *)
  check_findings "trained model validates clean" [] (Validate.run m)

let model_detection () =
  let trace = Lazy.force perl_trace in
  Alcotest.(check bool) "model magic" true
    (Lifetime.Model.looks_like_model "lpmodel 1\nend\n");
  Alcotest.(check bool) "trace is not a model" false
    (Lifetime.Model.looks_like_model (Lp_trace.Textio.to_string trace))

let suites =
  [
    ( "lint-corpus",
      List.map corpus_case corpus
      @ [
          Alcotest.test_case "rule selection" `Quick rule_selection;
          Alcotest.test_case "severity contract" `Quick severity_contract;
          Alcotest.test_case "deep chain anomaly" `Quick deep_chain_anomaly;
          Alcotest.test_case "json rendering" `Quick json_rendering;
          Alcotest.test_case "sized-free binary round-trip" `Quick
            sized_free_binary_roundtrip;
          Alcotest.test_case "bundled traces lint clean" `Quick
            bundled_traces_lint_clean;
        ] );
    ( "sanitizer",
      [
        Alcotest.test_case "catches overlap" `Quick catches_overlap;
        QCheck_alcotest.to_alcotest overlap_always_caught;
        Alcotest.test_case "catches unmapped free" `Quick catches_unmapped_free;
        Alcotest.test_case "catches misalignment" `Quick catches_misalignment;
        Alcotest.test_case "catches boundary straddle" `Quick
          catches_boundary_straddle;
        Alcotest.test_case "registry backends replay clean" `Quick
          registry_backends_replay_clean;
        Alcotest.test_case "sanitized realloc replay clean" `Quick
          realloc_sanitized_replay_clean;
        Alcotest.test_case "driver realloc attribution" `Quick
          driver_realloc_attribution;
        Alcotest.test_case "parallel sanitized simulate identical" `Quick
          simulate_sanitized_parallel_identical;
      ] );
    ( "model-validator",
      [
        Alcotest.test_case "seeded defects" `Quick validator_seeded_defects;
        Alcotest.test_case "trained model round-trip" `Quick
          trained_model_roundtrip;
        Alcotest.test_case "model detection" `Quick model_detection;
      ] );
  ]
