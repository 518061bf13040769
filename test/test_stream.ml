(* Streamed-vs-materialized equivalence for the pull-based event-source
   architecture: every registry backend must produce byte-identical
   metrics whether it replays a materialized trace or pulls the same
   events from a text parser, a binary decoder or an in-memory cursor —
   sequentially and across domains.  Plus the
   satellite contracts: streaming training/stats/lifetimes/lint
   equivalence, the LPALLOC_DOMAINS usage error, the streaming
   observability counters, and file/offset context on I/O failures. *)

module Rt = Lp_ialloc.Runtime
module Source = Lp_trace.Source
module D = Lp_analysis.Diagnostic

(* random traces via the instrumented runtime, as in test_properties *)
let trace_of_ops ops =
  let rt = Rt.create ~program:"fuzz" ~input:"gen" () in
  let funcs = Array.init 4 (fun i -> Rt.func rt (Printf.sprintf "f%d" i)) in
  let live = ref [] in
  List.iter
    (fun (size, action) ->
      match action with
      | 0 | 1 | 2 ->
          let depth = 1 + (size mod 3) in
          for d = 0 to depth - 1 do
            Rt.enter rt funcs.(d)
          done;
          let h = Rt.alloc rt ~size in
          Rt.touch rt h (1 + (size mod 4));
          for _ = 1 to depth do
            Rt.leave rt
          done;
          live := h :: !live
      | 3 | 4 -> (
          match !live with
          | h :: rest ->
              Rt.free rt h;
              live := rest
          | [] -> ())
      | _ -> Rt.non_heap_refs rt size)
    ops;
  Rt.finish rt

let random_trace_gen =
  QCheck.Gen.(
    list_size (int_range 1 60) (pair (int_range 1 200) (int_range 0 6))
    >|= trace_of_ops)

(* Long traces for the streamed feeder's block edges: every op allocates
   before its random action, so each trace spans thousands of events
   (many blocks) and over 1024 objects — past the initial tables of a
   source without an object hint (text), which then grow mid-stream. *)
let long_trace_gen =
  QCheck.Gen.(
    list_size (int_range 1100 1400) (pair (int_range 1 200) (int_range 0 6))
    >|= fun ops ->
    trace_of_ops (List.concat_map (fun (size, a) -> [ (size, 0); (size, a) ]) ops))

(* the realloc-bearing twin of [random_trace_gen], for the v3-only paths
   (the v1/v2 writers refuse these traces); every generated trace carries
   at least one resize, and both grow and shrink directions occur *)
let random_realloc_trace_gen =
  QCheck.Gen.(
    list_size (int_range 5 60) (pair (int_range 1 200) (int_range 0 8))
    >|= fun ops ->
    let rt = Rt.create ~program:"fuzz" ~input:"realloc" () in
    let funcs = Array.init 4 (fun i -> Rt.func rt (Printf.sprintf "f%d" i)) in
    let live = ref [] in
    let reallocs = ref 0 in
    List.iter
      (fun (size, action) ->
        match action with
        | 0 | 1 | 2 ->
            let depth = 1 + (size mod 3) in
            for d = 0 to depth - 1 do
              Rt.enter rt funcs.(d)
            done;
            let h = Rt.alloc rt ~size in
            Rt.touch rt h (1 + (size mod 4));
            for _ = 1 to depth do
              Rt.leave rt
            done;
            live := h :: !live
        | 3 | 4 -> (
            match !live with
            | h :: rest ->
                Rt.free rt h;
                live := rest
            | [] -> ())
        | 5 | 6 -> (
            (* resize the most recent survivor inside a frame, so the
               resize site has its own call-chain *)
            match !live with
            | h :: _ ->
                Rt.enter rt funcs.(size mod 4);
                ignore (Rt.realloc rt h ~new_size:(1 + (size * 7 mod 311)) : int);
                Rt.leave rt;
                incr reallocs
            | [] -> ())
        | _ -> Rt.non_heap_refs rt size)
      ops;
    if !reallocs = 0 then begin
      let h = Rt.alloc rt ~size:48 in
      ignore (Rt.realloc rt h ~new_size:96 : int)
    end;
    Rt.finish rt)

let arena_config = Lifetime.Config.arena_config Lifetime.Config.default

(* the three serialized/in-memory source kinds of one trace *)
let sources_of trace =
  let text = Lp_trace.Textio.to_string trace in
  let bin = Lp_trace.Binio.to_string trace in
  [
    ("of_trace", fun () -> Source.of_trace trace);
    ("text", fun () -> Source.of_string ~name:"fuzz.txt" text);
    ("binary", fun () -> Source.of_string ~name:"fuzz.lpt" bin);
  ]

(* -- replay: every backend, every source kind ------------------------------------ *)

(* A stateless predictor with mixed verdicts: under it every survivor is
   classified at the end of the replay, so a table that failed to grow
   with the objects would show in the mispredict counters. *)
let size_predictor : Lp_allocsim.Driver.predictor =
  {
    predicted = (fun ~obj:_ ~size ~chain:_ ~key:_ -> size mod 3 <> 0);
    predict_cost = 18;
    short_threshold = 4096;
    on_outcome = None;
  }

(* each backend replays plain, and with the predictor and a cache (every
   touch walked) *)
let replay_fingerprints replay =
  let cache = Lp_allocsim.Cache.create ~size_bytes:8192 () in
  let m = replay (Some cache) (Some size_predictor) in
  [
    Lp_allocsim.Metrics.to_json (replay None None);
    Printf.sprintf "%s accesses=%d misses=%d"
      (Lp_allocsim.Metrics.to_json m)
      (Lp_allocsim.Cache.accesses cache)
      (Lp_allocsim.Cache.misses cache);
  ]

let backend_replay_equivalence =
  QCheck.Test.make ~count:30
    ~name:"streamed replay equals materialized for every backend and source"
    (QCheck.make QCheck.Gen.(frequency [ (1, random_trace_gen); (1, long_trace_gen) ]))
    (fun trace ->
      let srcs = sources_of trace in
      List.for_all
        (fun name ->
          let backend = Lp_allocsim.Registry.backend ~arena_config name in
          let expect =
            replay_fingerprints (fun cache predictor ->
                Lp_allocsim.Driver.run ?cache ?predictor trace backend)
          in
          List.for_all
            (fun (kind, make) ->
              let got =
                replay_fingerprints (fun cache predictor ->
                    Lp_allocsim.Driver.run_source ?cache ?predictor (make ()) backend)
              in
              if got <> expect then
                QCheck.Test.fail_reportf "%s via %s source:\n%s\nvs\n%s" name
                  kind (String.concat "\n" got) (String.concat "\n" expect);
              true)
            srcs)
        (Lp_allocsim.Registry.names ()))

(* -- validation at block edges -------------------------------------------------- *)

let hand_trace = Test_allocsim.hand_trace
let alloc obj size = Lp_trace.Event.Alloc { obj; size; chain = 0; key = 0; tag = -1 }
let free obj = Lp_trace.Event.Free { obj; size = -1 }
let touch obj = Lp_trace.Event.Touch { obj; count = 1 }

let realloc obj new_size =
  Lp_trace.Event.Realloc
    { obj; old_size = 16; new_size; chain = 0; key = 0; tag = -1 }

(* Every validation message, with the bad event it answers.  Object 0 is
   live and object 2 freed when the bad event comes; object 1 is never
   allocated.  The text codec has no negative ids, so the out-of-range
   rows run on the in-memory paths only. *)
let validation_rows =
  [
    ("alloc of out-of-range object -1", alloc (-1) 16, false);
    ("free of out-of-range object -1", free (-1), false);
    ("realloc of out-of-range object -1", realloc (-1) 32, false);
    ("touch of out-of-range object -1", touch (-1), false);
    ("second alloc of live object 0", alloc 0 16, true);
    ("free of never-allocated or already-freed object 1", free 1, true);
    ("free of never-allocated or already-freed object 2", free 2, true);
    ("realloc of never-allocated or already-freed object 1", realloc 1 32, true);
    ("alloc of size 0 for object 1", alloc 1 0, true);
    ("alloc of size -5 for object 1", alloc 1 (-5), true);
    ("realloc to size 0 of object 0", realloc 0 0, true);
  ]

(* [bad] at event [at] (>= 3) of a trace that allocates object 0, then
   allocates and frees objects 2, 3, ... up to it *)
let trace_with_bad_event ~at bad =
  let pad = List.init ((at - 1) / 2) (fun i -> [ alloc (i + 2) 16; free (i + 2) ]) in
  let odd = if (at - 1) mod 2 = 1 then [ touch 0 ] else [] in
  hand_trace
    ((alloc 0 16 :: List.concat pad) @ odd @ [ bad; free 0 ])
    (List.length pad + 2)

(* The streamed feeder replays blocks of 128 events: the bad event sits
   at the last event of a block (127, 255), at the first of the next
   (128, 256) and mid-block (200).  The prepared path, the streamed one
   over an in-memory source, and the streamed one over text must all
   raise the identical message, event index included. *)
let validation_at_block_edges () =
  let raised f = match f () with _ -> None | exception Failure m -> Some m in
  List.iter
    (fun (what, bad, in_text) ->
      List.iter
        (fun at ->
          let trace = trace_with_bad_event ~at bad in
          let expect = Some (Printf.sprintf "Driver.run: %s at event %d" what at) in
          List.iter
            (fun name ->
              let backend = Lp_allocsim.Registry.backend ~arena_config name in
              let check path f =
                Alcotest.(check (option string))
                  (Printf.sprintf "%s at %d, %s, %s" what at name path)
                  expect (raised f)
              in
              check "run" (fun () -> Lp_allocsim.Driver.run trace backend);
              check "run_source of_trace" (fun () ->
                  Lp_allocsim.Driver.run_source (Source.of_trace trace) backend);
              if in_text then
                check "run_source text" (fun () ->
                    Lp_allocsim.Driver.run_source
                      (Source.of_string ~name:"bad.txt"
                         (Lp_trace.Textio.to_string trace))
                      backend))
            (Lp_allocsim.Registry.names ()))
        [ 127; 128; 200; 255; 256 ])
    validation_rows

(* A streamed Touch may name an id that no table covers.  Under a cache it
   is skipped like a touch of a dead object — never read past a table,
   nor from a pooled table's stale slots: a prior replay leaves this
   domain's scratch 4000 ids long and full of live addresses, while the
   text source (no object hint) covers 1024. *)
let streamed_touch_beyond_tables () =
  let cached run =
    let cache = Lp_allocsim.Cache.create ~size_bytes:8192 () in
    let m = run cache in
    (Lp_allocsim.Metrics.to_json m, Lp_allocsim.Cache.accesses cache,
     Lp_allocsim.Cache.misses cache)
  in
  let big = hand_trace (List.init 4000 (fun obj -> alloc obj 16)) 4000 in
  ignore
    (cached (fun cache ->
         Lp_allocsim.Driver.run ~cache big (Lp_allocsim.Registry.backend "first-fit")));
  let text ~extra =
    String.concat "\n"
      ([ "trace t i"; "func 0 main"; "chain 0 0" ]
      @ List.init 10 (fun obj -> Printf.sprintf "a %d %d 0 5 -1 1" obj (16 * (obj + 1)))
      @ [ "r 3 4" ] @ extra
      @ List.init 10 (fun obj -> Printf.sprintf "r %d 2" obj)
      @ List.init 5 (fun obj -> Printf.sprintf "f %d" (2 * obj))
      @ [ "counters 1 1 1 1"; "end"; "" ])
  in
  let with_touches = text ~extra:[ "r 500 2"; "r 3000 2"; "r 1000000 2" ] in
  let without = text ~extra:[] in
  List.iter
    (fun name ->
      let backend = Lp_allocsim.Registry.backend ~arena_config name in
      let streamed s cache =
        Lp_allocsim.Driver.run_source ~cache (Source.of_string ~name:"t.txt" s) backend
      in
      let expect = cached (streamed without) in
      Alcotest.(check (triple string int int))
        (name ^ ": materialized without the touches")
        expect
        (cached (fun cache ->
             Lp_allocsim.Driver.run ~cache (Lp_trace.Textio.of_string without) backend));
      Alcotest.(check (triple string int int))
        (name ^ ": streamed with the touches")
        expect (cached (streamed with_touches)))
    (Lp_allocsim.Registry.names ())

(* -- the full pipeline: Simulate.run_streamed -------------------------------------- *)

let sim_fingerprint sim =
  List.map
    (fun n -> (n, Lp_allocsim.Metrics.to_json (Lifetime.Simulate.metrics sim n)))
    (Lifetime.Simulate.names sim)

let simulate_streamed_equivalence () =
  let config = Lifetime.Config.default in
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  let table = Lifetime.Train.collect ~config trace in
  let predictor = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  let allocators = Lp_allocsim.Registry.names () in
  let oracle = Lifetime.Oracle.static predictor in
  let expect =
    sim_fingerprint
      (Lifetime.Simulate.run ~allocators ~config ~oracle ~test:trace ())
  in
  let bin = Lp_trace.Binio.to_string trace in
  let check_source what source =
    List.iter
      (fun domains ->
        let got =
          Lifetime.Parallel.with_domains domains (fun () ->
              sim_fingerprint
                (Lifetime.Simulate.run_streamed ~allocators ~config ~oracle
                   ~source ()))
        in
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "%s, %d domains" what domains)
          expect got)
      [ 1; 2 ]
  in
  check_source "binary" (fun () -> Source.of_string ~name:"perl.lpt" bin);
  check_source "of_trace" (fun () -> Source.of_trace trace)

(* -- training ----------------------------------------------------------------------- *)

let train_streamed_equivalence =
  QCheck.Test.make ~count:50
    ~name:"streamed training produces an identical model"
    (QCheck.make random_trace_gen)
    (fun trace ->
      let config = Lifetime.Config.default in
      let table = Lifetime.Train.collect ~config trace in
      let predictor = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
      let expect =
        Lifetime.Model.to_string
          (Lifetime.Model.of_training ~config ~trace table predictor)
      in
      List.for_all
        (fun (kind, make) ->
          let src : Source.t = make () in
          let st = Lifetime.Train.collect_source ~config src in
          let funcs = src.Source.funcs in
          let predictor' =
            Lifetime.Predictor.build ~config ~funcs st.Lifetime.Train.table
          in
          let got =
            Lifetime.Model.to_string
              (Lifetime.Model.of_training_parts ~config
                 ~program:src.Source.program ~funcs
                 ~clock:st.Lifetime.Train.end_clock st.Lifetime.Train.table
                 predictor')
          in
          if got <> expect then
            QCheck.Test.fail_reportf "model differs via %s source" kind;
          true)
        (sources_of trace))

(* -- stats and lifetimes ------------------------------------------------------------- *)

let stats_streamed_equivalence =
  QCheck.Test.make ~count:50 ~name:"streamed stats equal materialized stats"
    (QCheck.make random_trace_gen)
    (fun trace ->
      let expect = Lp_trace.Stats.compute trace in
      List.for_all
        (fun (kind, make) ->
          let got = Lp_trace.Stats.compute_source (make ()) in
          if got <> expect then
            QCheck.Test.fail_reportf "stats differ via %s source" kind;
          true)
        (sources_of trace))

let lifetimes_streamed_equivalence =
  QCheck.Test.make ~count:50
    ~name:"streamed lifetime summary equals materialized fold"
    (QCheck.make random_trace_gen)
    (fun trace ->
      let threshold = 32768 in
      (* the materialized fold as the lifetimes CLI performs it *)
      let lifetimes = Lp_trace.Lifetimes.compute trace in
      let hist = Lp_quantile.Histogram.create () in
      let short = ref 0 and total = ref 0 in
      Lp_trace.Trace.iter_allocs trace (fun ~obj ~size ~chain:_ ~key:_ ~tag:_ ->
          Lp_quantile.Histogram.observe_weighted hist ~weight:size
            (float_of_int lifetimes.lifetime.(obj));
          total := !total + size;
          if Lp_trace.Lifetimes.is_short_lived lifetimes ~threshold obj then
            short := !short + size);
      List.for_all
        (fun (kind, make) ->
          let s = Lp_trace.Lifetimes.summary_source ~threshold (make ()) in
          let same_quartiles =
            (* a trace without allocations has an empty histogram on both
               paths; quartiles raise there, so compare counts instead *)
            if Lp_quantile.Histogram.count hist = 0 then
              Lp_quantile.Histogram.count s.Lp_trace.Lifetimes.hist = 0
            else
              Lp_quantile.Histogram.quartiles s.Lp_trace.Lifetimes.hist
              = Lp_quantile.Histogram.quartiles hist
          in
          if
            (not same_quartiles)
            || s.Lp_trace.Lifetimes.short_bytes <> !short
            || s.Lp_trace.Lifetimes.total_alloc_bytes <> !total
          then QCheck.Test.fail_reportf "lifetime summary differs via %s" kind;
          true)
        (sources_of trace))

(* -- lint: identical diagnostics on the corrupt corpus ------------------------------ *)

let corpus_files =
  [
    "double_free.txt";
    "free_without_alloc.txt";
    "touch_after_free.txt";
    "size_mismatch_at_free.txt";
    "nonpositive_size.txt";
    "realloc_of_unallocated.txt";
    "realloc_after_free.txt";
    "realloc_size_regression.txt";
    "non_monotonic_birth.txt";
    "leaked_at_exit.txt";
    "chain_anomaly.txt";
  ]

let lint_stream_corpus_equivalence () =
  List.iter
    (fun file ->
      let path = "corrupt_traces/" ^ file in
      let expect = D.list_to_json (Lp_analysis.Lint.run (Lp_trace.Io.read_file path)) in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let got =
        D.list_to_json
          (Lp_analysis.Lint.run_source (Source.of_string ~name:path contents))
      in
      Alcotest.(check string) file expect got)
    corpus_files

(* -- satellite: LPALLOC_DOMAINS usage errors ---------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let domains_env_parse () =
  (match Lifetime.Parallel.parse_env_value "4" with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "\"4\" should parse as 4");
  (match Lifetime.Parallel.parse_env_value " 2 " with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "whitespace should be tolerated");
  List.iter
    (fun bad ->
      match Lifetime.Parallel.parse_env_value bad with
      | Ok n -> Alcotest.failf "%S should not parse (got %d)" bad n
      | Error msg ->
          if not (contains msg (Printf.sprintf "%S" bad)) then
            Alcotest.failf "error for %S does not name the value: %s" bad msg)
    [ "banana"; "0"; "-3"; ""; "2.5" ]

let domains_env_check () =
  Unix.putenv "LPALLOC_DOMAINS" "banana";
  (match Lifetime.Parallel.check_env () with
  | Error msg ->
      if not (String.length msg > 0 && String.sub msg 0 14 = "LPALLOC_DOMAIN") then
        Alcotest.failf "unexpected message: %s" msg
  | Ok () -> Alcotest.fail "invalid env value accepted");
  Unix.putenv "LPALLOC_DOMAINS" "2";
  match Lifetime.Parallel.check_env () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid env value rejected: %s" msg

(* -- satellite: streaming observability counters ------------------------------------ *)

let counter value = Option.value ~default:0 (List.assoc_opt value (Lp_obs.Timings.counters ()))

let streaming_counters () =
  Lp_obs.Timings.set_enabled true;
  Fun.protect ~finally:(fun () -> Lp_obs.Timings.set_enabled false) @@ fun () ->
  let trace =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 11 |]) random_trace_gen
  in
  let before = counter "trace.events_streamed" in
  Source.iter ignore (Source.of_trace trace);
  let streamed = counter "trace.events_streamed" - before in
  Alcotest.(check int) "events_streamed counts the drain"
    (Array.length trace.events) streamed;
  if counter "trace.peak_resident_words" <= 0 then
    Alcotest.fail "peak_resident_words not recorded"

(* -- satellite: I/O failures carry file context ------------------------------------- *)

let with_temp_file contents f =
  let path = Filename.temp_file "lpstream" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let expect_failure_naming path f =
  match f () with
  | _ -> Alcotest.failf "no failure raised for %s" path
  | exception Failure msg ->
      if not (contains msg path) then
        Alcotest.failf "failure message lacks the file name: %s" msg

let io_error_context () =
  (* text: malformed line -> name and line number *)
  with_temp_file "trace 1\nbogus line\n" (fun path ->
      expect_failure_naming path (fun () -> Lp_trace.Io.read_file path);
      expect_failure_naming path (fun () ->
          Source.iter ignore (Source.of_file path)));
  (* text: truncated (no end) *)
  with_temp_file "trace 1\nprogram p\ninput i\n" (fun path ->
      expect_failure_naming path (fun () -> Lp_trace.Io.read_file path));
  (* binary: truncated after the magic *)
  let trace =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 5 |]) random_trace_gen
  in
  let bin = Lp_trace.Binio.to_string trace in
  with_temp_file (String.sub bin 0 (String.length bin / 2)) (fun path ->
      expect_failure_naming path (fun () -> Lp_trace.Io.read_file path);
      expect_failure_naming path (fun () ->
          Source.iter ignore (Source.of_file path)))

(* -- Grow: the shared growable-array substrate -------------------------------------- *)

let grow_basics () =
  let g = Lp_trace.Grow.create ~default:(-7) 2 in
  Alcotest.(check int) "empty length" 0 (Lp_trace.Grow.length g);
  Alcotest.(check int) "default beyond length" (-7) (Lp_trace.Grow.get g 41);
  Lp_trace.Grow.set g 5 99;
  Alcotest.(check int) "set extends" 6 (Lp_trace.Grow.length g);
  Alcotest.(check int) "gap holds default" (-7) (Lp_trace.Grow.get g 3);
  Alcotest.(check int) "set value" 99 (Lp_trace.Grow.get g 5);
  Lp_trace.Grow.push g 7;
  Alcotest.(check int) "push appends" 7 (Lp_trace.Grow.get g 6);
  Alcotest.(check (array int)) "take"
    [| -7; -7; -7; -7; -7; 99; 7 |] (Lp_trace.Grow.take g);
  (* a grow filled exactly to its capacity hands its storage over *)
  let full = Lp_trace.Grow.create 16 in
  for i = 0 to 15 do
    Lp_trace.Grow.push full i
  done;
  Alcotest.(check bool) "take of a full grow copies nothing" true
    (Lp_trace.Grow.take full == Lp_trace.Grow.take full)

(* An allocation of size <= 0 (which stats, convert and lint accept) has
   no weight in the byte-weighted lifetime summary: the materialized,
   streamed and sharded folds all skip it instead of dying in
   [Histogram.observe_weighted], and agree with each other. *)
let lifetimes_skip_weightless_allocations () =
  let threshold = 32768 in
  let summaries text =
    let trace = Lp_trace.Textio.of_string text in
    let path = Filename.temp_file "weightless" ".trace" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    let streamed =
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Lp_trace.Lifetimes.summary_source ~threshold (Source.of_file path))
    in
    [
      ( "materialized",
        Lp_trace.Lifetimes.summary_source ~threshold (Source.of_trace trace) );
      ("streamed", streamed);
    ]
    @
    (* the binary codecs carry sizes unsigned: size 0 only *)
    if Array.exists
         (function Lp_trace.Event.Alloc { size; _ } -> size < 0 | _ -> false)
         trace.events
    then []
    else
      [
        ( "sharded",
          Lp_trace.Lifetimes.project
            (List.hd
               (Lifetime.Shard.run
                  ~analyses:[ Lp_trace.Lifetimes.domain ~threshold ]
                  (Lp_trace.Sharded.of_string
                     (Lp_trace.Binio.to_string_v3 ~chunk_events:1 trace)))) );
      ]
  in
  let render (s : Lp_trace.Lifetimes.summary) =
    ( Lp_quantile.Histogram.count s.hist,
      (if Lp_quantile.Histogram.count s.hist = 0 then ""
       else
         Format.asprintf "%a" Lp_quantile.Histogram.pp_quartiles
           (Lp_quantile.Histogram.quartiles s.hist)),
      s.short_bytes,
      s.total_alloc_bytes )
  in
  let check name text expected =
    List.iter
      (fun (path, s) ->
        let weight, quartiles, short, total = render s in
        Alcotest.(check (pair int string))
          (name ^ " " ^ path ^ " weight, quartiles")
          (fst expected, snd expected) (weight, quartiles);
        Alcotest.(check (pair int int))
          (name ^ " " ^ path ^ " short, total bytes")
          (if weight = 0 then (0, 0) else (weight, weight))
          (short, total))
      (summaries text)
  in
  check "size 0"
    (In_channel.with_open_bin "corrupt_traces/nonpositive_size.txt"
       In_channel.input_all)
    (0, "");
  check "negative size"
    "trace t i\nfunc 0 main\nchain 0 0\na 0 -5 0 5 -1 1\na 1 16 0 5 -1 1\n\
     f 0\nf 1\ncounters 1 1 1 1\nend\n"
    (16, "{min=16; q25=16; median=16; q75=16; max=16}")

let suites =
  [
    ( "stream",
      [
        QCheck_alcotest.to_alcotest backend_replay_equivalence;
        QCheck_alcotest.to_alcotest train_streamed_equivalence;
        QCheck_alcotest.to_alcotest stats_streamed_equivalence;
        QCheck_alcotest.to_alcotest lifetimes_streamed_equivalence;
        Alcotest.test_case "simulate --stream pipeline equivalence" `Quick
          simulate_streamed_equivalence;
        Alcotest.test_case "lint streams the corrupt corpus identically" `Quick
          lint_stream_corpus_equivalence;
        Alcotest.test_case "validation at block edges" `Quick
          validation_at_block_edges;
        Alcotest.test_case "streamed touch beyond the tables" `Quick
          streamed_touch_beyond_tables;
        Alcotest.test_case "grow array basics" `Quick grow_basics;
        Alcotest.test_case "lifetimes skip weightless allocations" `Quick
          lifetimes_skip_weightless_allocations;
      ] );
    ( "stream-satellites",
      [
        Alcotest.test_case "LPALLOC_DOMAINS parse errors" `Quick domains_env_parse;
        Alcotest.test_case "LPALLOC_DOMAINS env check" `Quick domains_env_check;
        Alcotest.test_case "streaming counters" `Quick streaming_counters;
        Alcotest.test_case "I/O failures name the file" `Quick io_error_context;
      ] );
  ]
