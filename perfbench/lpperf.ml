(* lpperf: the benchmark's worker.  Each subcommand is meant to run in a
   fresh process, so no phase pays for another's heap:

   - [setup]: generate a workload's traces with Lp_workloads.Registry and
     encode them to the .lpt files the timed job reads;
   - [job]: the timed job.  It makes each layer's public calls itself so
     that, with --trace, every call gets its own span;
   - [reference]: the same outputs computed through Simulate.run and
     Simulate.run_streamed (and the materialized analysis twins), from
     which the expected digests are generated.

   Everything runs at one domain.  Each subcommand prints one JSON object
   on stdout. *)

module Json = Lp_report.Json
module Driver = Lp_allocsim.Driver
module Metrics = Lp_allocsim.Metrics
module Source = Lp_trace.Source

let now = Unix.gettimeofday

(* -- spans --------------------------------------------------------------------- *)

(* Spans are kept in memory and written out when the job ends.  With
   tracing off, [span] is a single test of a flag. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start : float;
  stop : float;
  minor : float;  (** Gc.quick_stat deltas over the span *)
  promoted : float;
  majors : int;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let g0 = Gc.quick_stat () in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        let g1 = Gc.quick_stat () in
        current := parent;
        spans :=
          {
            id;
            parent;
            name;
            start;
            stop;
            minor = g1.Gc.minor_words -. g0.Gc.minor_words;
            promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
            majors = g1.Gc.major_collections - g0.Gc.major_collections;
          }
          :: !spans)
  end

let duration s = s.stop -. s.start

(* Per span name: calls, total time, self time (the span minus the time its
   child spans cover) and GC work. *)
type agg = {
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable a_minor : float;
  mutable a_promoted : float;
  mutable a_majors : int;
}

let aggregate () =
  let all = List.rev !spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    all;
  let by_name = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      let a =
        match Hashtbl.find_opt by_name s.name with
        | Some a -> a
        | None ->
            let a =
              { calls = 0; total = 0.; self = 0.; a_minor = 0.; a_promoted = 0.; a_majors = 0 }
            in
            Hashtbl.add by_name s.name a;
            order := s.name :: !order;
            a
      in
      let d = duration s in
      a.calls <- a.calls + 1;
      a.total <- a.total +. d;
      a.self <- a.self +. d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id);
      a.a_minor <- a.a_minor +. s.minor;
      a.a_promoted <- a.a_promoted +. s.promoted;
      a.a_majors <- a.a_majors + s.majors)
    all;
  List.rev_map (fun n -> (n, Hashtbl.find by_name n)) !order

let num x = Json.Number x
let int n = Json.Number (float_of_int n)

let spans_json ~origin =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", int s.id);
             ("parent", int s.parent);
             ("name", Json.String s.name);
             ("start_s", num (s.start -. origin));
             ("end_s", num (s.stop -. origin));
             ("gc_minor_words", num s.minor);
             ("gc_promoted_words", num s.promoted);
             ("gc_major_collections", int s.majors);
           ])
       !spans)

let breakdown_json aggs =
  Json.List
    (List.map
       (fun (name, a) ->
         Json.Obj
           [
             ("layer", Json.String name);
             ("calls", int a.calls);
             ("total_s", num a.total);
             ("self_s", num a.self);
             ("gc_minor_mwords", num (a.a_minor /. 1e6));
             ("gc_promoted_mwords", num (a.a_promoted /. 1e6));
             ("gc_major_collections", int a.a_majors);
           ])
       aggs)

(* -- outputs and their digests -------------------------------------------------- *)

(* Every computed output is digested under a job name; a job that raises is
   recorded with its exception instead, and the run carries on. *)
let outputs : (string * (string, string) result) list ref = ref []

let check name render f =
  match f () with
  | v ->
      outputs := (name, Ok (Digest.to_hex (Digest.string (render v)))) :: !outputs;
      Some v
  | exception e ->
      outputs := (name, Error (Printexc.to_string e)) :: !outputs;
      None

let outputs_json () =
  Json.Obj
    (List.rev_map
       (fun (name, r) ->
         ( name,
           match r with
           | Ok d -> Json.Obj [ ("digest", Json.String d) ]
           | Error msg -> Json.Obj [ ("error", Json.String msg) ] ))
       !outputs)

let render_metrics = Metrics.to_json
let render_diagnostics = Lp_analysis.Diagnostic.list_to_json
let render_stats s = Format.asprintf "%a" Lp_trace.Stats.pp s

let render_lifetimes (s : Lp_trace.Lifetimes.summary) =
  Format.asprintf "%a short=%d total=%d" Lp_quantile.Histogram.pp_quartiles
    (Lp_quantile.Histogram.quartiles s.hist)
    s.short_bytes s.total_alloc_bytes

(* the outcome without engine counters, as the determinism test renders it *)
let render_outcome o = Json.to_string (Lifetime.Tune.json_of_outcome o)

(* -- workloads ------------------------------------------------------------------ *)

type workload = Simulate_perl | Stream_gawk | Tune_pint

let workload_of_string = function
  | "simulate-perl" -> Simulate_perl
  | "stream-gawk" -> Stream_gawk
  | "tune-pint" -> Tune_pint
  | s -> failwith ("unknown workload " ^ s)

type layout = V2 | V3

(* (program, input, file, .lpt layout) written by each workload's set-up *)
let files = function
  | Simulate_perl ->
      [ ("perl", "train", "perl-train.lpt", V2); ("perl", "test", "perl-test.lpt", V2) ]
  | Stream_gawk -> [ ("gawk", "test", "gawk-test.lpt", V3) ]
  | Tune_pint ->
      [ ("pint", "train", "pint-train.lpt", V3); ("pint", "test", "pint-test.lpt", V3) ]

let config = Lifetime.Config.default
let arena_config = Lifetime.Config.arena_config config
let backends = [ "first-fit"; "best-fit"; "bsd"; "segfit"; "arena" ]

(* The replay jobs, expanded as Simulate.run expands them: a predicting
   backend runs twice, at length-4 and at call-chain-encryption pricing. *)
let replay_jobs ~cce =
  List.concat_map
    (fun name ->
      let backend = Lp_allocsim.Registry.backend ~arena_config name in
      if Lp_allocsim.Backend.uses_prediction backend then
        [
          (name, backend, Some Lp_allocsim.Cost_model.predict_len4);
          (name ^ "-cce", backend, Some cce);
        ]
      else [ (name, backend, None) ])
    backends

(* total simulated alloc+free instructions, folded back from the averages
   exactly as Tune does *)
let instructions_of (m : Metrics.t) =
  int_of_float (Float.round (m.instr_per_alloc *. float_of_int m.allocs))
  + int_of_float (Float.round (m.instr_per_free *. float_of_int m.frees))

(* What a timed job hands back besides its outputs. *)
type summary = {
  events : int;  (** events consumed by its replay and analysis passes *)
  candidates : int;  (** allocator configurations evaluated *)
  test_events : int;  (** events in the test trace *)
  decoded_events : int;  (** events Binio decoded *)
  arena : Metrics.t option;  (** the arena job at length-4 pricing *)
  best_instr : int option;  (** fewest total instructions of any candidate *)
  tune_sizes : (int * int) option;  (** candidates and Pareto-front size *)
}

let best_of instrs =
  match List.filter_map Fun.id instrs with
  | [] -> None
  | l -> Some (List.fold_left min max_int l)

let read path = Lp_trace.Io.read_file path

let per_s n s = if s > 0. then float_of_int n /. s else 0.

let simulate_perl dir =
  let path f = Filename.concat dir f in
  let train = span "binio.decode" (fun () -> read (path "perl-train.lpt")) in
  let test = span "binio.decode" (fun () -> read (path "perl-test.lpt")) in
  let table = span "train.collect" (fun () -> Lifetime.Train.collect ~config train) in
  let predictor =
    span "train.build" (fun () ->
        Lifetime.Predictor.build ~config ~funcs:train.Lp_trace.Trace.funcs table)
  in
  let oracle = Lifetime.Oracle.static predictor in
  let prepared = span "driver.prepare" (fun () -> Driver.prepare test) in
  let jobs = replay_jobs ~cce:(Lifetime.Simulate.cce_cost test) in
  let results =
    List.map
      (fun (display, backend, cost) ->
        ( display,
          check display render_metrics (fun () ->
              span ("replay." ^ display) (fun () ->
                  match cost with
                  | None -> Driver.run_prepared prepared backend
                  | Some predict_cost ->
                      let inst =
                        Lifetime.Oracle.instance_for_trace ~pooled:true oracle
                          ~predict_cost test
                      in
                      Driver.run_prepared
                        ~predictor:(Lifetime.Oracle.driver_predictor inst)
                        prepared backend)) ))
      jobs
  in
  let n = Array.length test.events in
  {
    events = n * List.length jobs;
    candidates = List.length jobs;
    test_events = n;
    decoded_events = Array.length train.events + n;
    arena = Option.join (List.assoc_opt "arena" results);
    best_instr = best_of (List.map (fun (_, m) -> Option.map instructions_of m) results);
    tune_sizes = None;
  }

let stream_gawk dir =
  let path = Filename.concat dir "gawk-test.lpt" in
  let open_src () = Source.of_file path in
  let probe = open_src () in
  let n, calls, allocs =
    match (probe.n_events_hint, probe.counters_now (), probe.n_objects_hint) with
    | Some n, Some c, Some o -> (n, c.Source.calls, o)
    | _ -> failwith (path ^ ": no event, call or object totals in the header")
  in
  (* each analysis pass opens its own stream and decodes the file again *)
  let fold name render f =
    ignore (check name render (fun () -> span ("analysis." ^ name) (fun () -> f (open_src ()))))
  in
  fold "stats" render_stats Lp_trace.Stats.compute_source;
  fold "lifetimes" render_lifetimes
    (Lp_trace.Lifetimes.summary_source ~threshold:config.short_lived_threshold);
  fold "lint" render_diagnostics (fun src -> Lp_analysis.Lint.run_source src);
  fold "audit" render_diagnostics
    (Lp_analysis.Audit.run_source Lp_analysis.Audit.default_options);
  let folds = 4 in
  let oracle = Lifetime.Oracle.online config in
  let jobs = replay_jobs ~cce:(Lifetime.Simulate.cce_cost_of ~calls ~allocs) in
  let results =
    List.map
      (fun (display, backend, cost) ->
        (* as Simulate.run_streamed at one domain: a full major collection
           before each job keeps the heap's high-water mark one job in size *)
        span "gc.full_major" Gc.full_major;
        ( display,
          check display render_metrics (fun () ->
              span ("stream." ^ display) (fun () ->
                  let src = open_src () in
                  match cost with
                  | None -> Driver.run_source src backend
                  | Some predict_cost ->
                      let inst =
                        Lifetime.Oracle.instance_for_source oracle ~predict_cost src
                      in
                      Driver.run_source
                        ~predictor:(Lifetime.Oracle.driver_predictor inst)
                        src backend)) ))
      jobs
  in
  {
    events = n * (folds + List.length jobs);
    candidates = List.length jobs;
    test_events = n;
    decoded_events = 0;
    arena = Option.join (List.assoc_opt "arena" results);
    best_instr = best_of (List.map (fun (_, m) -> Option.map instructions_of m) results);
    tune_sizes = None;
  }

let tune_pint dir =
  let path f = Filename.concat dir f in
  let train = span "binio.decode" (fun () -> read (path "pint-train.lpt")) in
  let test = span "binio.decode" (fun () -> read (path "pint-test.lpt")) in
  let outcome =
    check "tune" render_outcome (fun () ->
        span "tune.search" (fun () ->
            Lifetime.Tune.search ~options:Lifetime.Tune.default_options ~workload:"pint"
              ~train ~test ()))
  in
  let n = Array.length test.events in
  let none =
    {
      events = 0;
      candidates = 0;
      test_events = n;
      decoded_events = Array.length train.events + n;
      arena = None;
      best_instr = None;
      tune_sizes = None;
    }
  in
  match outcome with
  | None -> none
  | Some (o : Lifetime.Tune.outcome) ->
      let tuned = List.length o.results in
      {
        none with
        events = n * (tuned + List.length o.baselines);
        candidates = tuned;
        arena =
          Option.map
            (fun (r : Lifetime.Tune.result) -> r.metrics)
            (List.assoc_opt "arena-len4" o.baselines);
        best_instr =
          best_of (List.map (fun (r : Lifetime.Tune.result) -> Some r.instructions) o.pareto);
        tune_sizes = Some (tuned, List.length o.pareto);
      }

let run_workload = function
  | Simulate_perl -> simulate_perl
  | Stream_gawk -> stream_gawk
  | Tune_pint -> tune_pint

(* -- subcommands ----------------------------------------------------------------- *)

let print_json fields = print_endline (Json.to_string (Json.Obj fields))

let setup w ~scale ~dir =
  let gen = ref 0. and enc = ref 0. and sizes = ref [] in
  let t0 = now () in
  List.iter
    (fun (program, input, file, layout) ->
      let g0 = now () in
      let trace = Lp_workloads.Registry.trace ~scale ~program ~input () in
      let g1 = now () in
      Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
          match layout with
          | V2 -> Lp_trace.Binio.output oc trace
          | V3 -> Lp_trace.Binio.output_v3 oc trace);
      let g2 = now () in
      gen := !gen +. (g1 -. g0);
      enc := !enc +. (g2 -. g1);
      sizes := (file, int (Array.length trace.events)) :: !sizes;
      (* nothing reads the memo again; keep the set-up heap one trace big *)
      Lp_workloads.Registry.clear_cache ())
    (files w);
  let total = now () -. t0 in
  print_json
    [
      ("setup_s", num total);
      ("generate_s", num !gen);
      ("encode_s", num !enc);
      ("events", Json.Obj (List.rev !sizes));
    ]

(* Exact counts from Lp_obs.Timings, under the benchmark's metric names. *)
let counter_metrics () =
  let counters = Lp_obs.Timings.counters () in
  List.map
    (fun c ->
      ("count." ^ c, float_of_int (Option.value ~default:0 (List.assoc_opt c counters))))
    [
      "trace.decodes";
      "replay.validations";
      "replay.scratch_reuses";
      "predictor.memo_reuses";
      "trace.events_streamed";
    ]

let layer_metrics (s : summary) aggs ~gc0 ~gc1 =
  let total name =
    match List.assoc_opt name aggs with Some a -> a.total | None -> 0.
  in
  let stages = Lp_obs.Timings.stages () in
  let stage name =
    List.find_opt (fun (st : Lp_obs.Timings.stage) -> st.name = name) stages
  in
  let timed name = (name ^ "_s", total name) in
  let rate name n = (name ^ "_events_per_s", per_s n (total name)) in
  let decode_s = total "binio.decode" in
  let prepare_s =
    (* Tune prepares its trace internally; its Timings stage times it *)
    match (List.assoc_opt "driver.prepare" aggs, stage "prepare") with
    | Some a, _ -> a.total
    | None, Some st -> st.seconds
    | None, None -> 0.
  in
  let displays = List.map (fun (d, _, _) -> d) (replay_jobs ~cce:0) in
  let oracle =
    match s.arena with
    | Some m ->
        let miss = m.mispredicts_short_lived + m.mispredicts_long_lived in
        [
          ("oracle.predictions", float_of_int m.predictions);
          ("oracle.mispredict_rate", float_of_int miss /. float_of_int (max 1 m.predictions));
        ]
    | None -> []
  in
  let tune_stages =
    if s.tune_sizes = None then []
    else
      List.concat_map
        (fun b ->
          match stage ("replay/" ^ b) with
          | Some st ->
              [
                ("tune.replay." ^ b ^ "_s", st.seconds);
                ("tune.replay." ^ b ^ "_calls", float_of_int st.calls);
              ]
          | None -> [])
        backends
  in
  [
    ("binio.decode_s", decode_s);
    ("binio.decode_events_per_s", per_s s.decoded_events decode_s);
    timed "source.drain";
    rate "source.drain" s.test_events;
    ("driver.prepare_s", prepare_s);
    timed "train.collect";
    timed "train.build";
    timed "tune.search";
    timed "analysis.stats";
    timed "analysis.lifetimes";
    timed "analysis.lint";
    timed "analysis.audit";
    ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
    ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
    ( "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
  ]
  @ List.concat_map
      (fun d -> [ timed ("replay." ^ d); rate ("replay." ^ d) s.test_events ])
      displays
  @ List.map (fun d -> timed ("stream." ^ d)) displays
  @ oracle @ tune_stages @ counter_metrics ()
  @
  match s.tune_sizes with
  | Some (candidates, pareto) ->
      [
        ("tune.candidates", float_of_int candidates);
        ("tune.pareto_size", float_of_int pareto);
      ]
  | None -> []

let job w ~dir ~trace ~spans_out =
  tracing := trace;
  Lp_obs.Timings.set_enabled trace;
  (* one drain of the stream with no consumer, before the clock starts: a
     streamed pass's self time is its span minus this drain *)
  if trace && w = Stream_gawk then
    span "source.drain" (fun () ->
        Source.iter ignore (Source.of_file (Filename.concat dir "gawk-test.lpt")));
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let s = span "job" (fun () -> run_workload w dir) in
  let wall = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let mb = float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. in
  let sim f = match s.arena with Some m -> f m | None -> 0. in
  let base =
    [
      ("wall_s", num wall);
      ("events", int s.events);
      ("candidates", int s.candidates);
      ("peak_heap_mb", num mb);
      ("sim_instr_per_alloc", num (sim (fun m -> m.instr_per_alloc)));
      ("sim_max_heap_kb", num (sim (fun m -> float_of_int m.max_heap /. 1024.)));
      ("best_instr", int (Option.value ~default:0 s.best_instr));
      ("outputs", outputs_json ());
    ]
  in
  if not trace then print_json base
  else begin
    let aggs = aggregate () in
    (match spans_out with
    | Some file ->
        Out_channel.with_open_bin file (fun oc ->
            output_string oc (Json.to_pretty_string (spans_json ~origin:t0)))
    | None -> ());
    let layers = layer_metrics s aggs ~gc0 ~gc1 in
    print_json
      (base
      @ [
          ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) layers));
          ("breakdown", breakdown_json aggs);
        ])
  end

(* The expected outputs, computed through the pipelines the job's
   per-backend calls stand in for. *)
let reference w ~dir =
  let path f = Filename.concat dir f in
  let record sim =
    List.iter
      (fun name ->
        ignore (check name render_metrics (fun () -> Lifetime.Simulate.metrics sim name)))
      (Lifetime.Simulate.names sim)
  in
  (match w with
  | Simulate_perl ->
      let train = read (path "perl-train.lpt") and test = read (path "perl-test.lpt") in
      let predictor =
        Lifetime.Predictor.build ~config ~funcs:train.funcs
          (Lifetime.Train.collect ~config train)
      in
      record
        (Lifetime.Simulate.run ~allocators:backends ~config
           ~oracle:(Lifetime.Oracle.static predictor) ~test ())
  | Stream_gawk ->
      let file = path "gawk-test.lpt" in
      let trace = read file in
      let threshold = config.short_lived_threshold in
      ignore (check "stats" render_stats (fun () -> Lp_trace.Stats.compute trace));
      ignore
        (check "lifetimes" render_lifetimes (fun () ->
             Lp_trace.Lifetimes.summary_source ~threshold (Source.of_trace trace)));
      ignore (check "lint" render_diagnostics (fun () -> Lp_analysis.Lint.run trace));
      ignore
        (check "audit" render_diagnostics (fun () ->
             Lp_analysis.Audit.run Lp_analysis.Audit.default_options trace));
      record
        (Lifetime.Simulate.run_streamed ~allocators:backends ~config
           ~oracle:(Lifetime.Oracle.online config)
           ~source:(fun () -> Source.of_file file)
           ())
  | Tune_pint ->
      let train = read (path "pint-train.lpt") and test = read (path "pint-test.lpt") in
      ignore
        (check "tune" render_outcome (fun () ->
             Lifetime.Tune.search ~options:Lifetime.Tune.default_options
               ~workload:"pint" ~train ~test ())));
  print_json [ ("outputs", outputs_json ()) ]

(* lpbench's load and sequential phases for one program, alone in this
   process: the test trace at scale 1, decoded from its encoding and
   replayed through Simulate.run at one domain, [repeat] times each.  Both
   the best (lpbench's estimator) and the median repeat are reported. *)
let gap ~program ~repeat =
  let timed f =
    let t0 = now () in
    let r = f () in
    (now () -. t0, r)
  in
  let times f = List.init repeat (fun _ -> fst (timed f)) |> List.sort compare in
  let generated = Lp_workloads.Registry.trace ~program ~input:"test" () in
  let encoded =
    if Lp_trace.Trace.has_realloc generated then Lp_trace.Binio.to_string_v3 generated
    else Lp_trace.Binio.to_string generated
  in
  Lp_workloads.Registry.clear_cache ();
  let decode () = Lp_trace.Binio.of_string ~name:(program ^ ".lpt") encoded in
  let load = times decode in
  let trace = decode () in
  let predictor =
    Lifetime.Predictor.build ~config ~funcs:trace.funcs (Lifetime.Train.collect ~config trace)
  in
  let oracle = Lifetime.Oracle.static predictor in
  let jobs = ref 0 in
  let replay =
    times (fun () ->
        let sim = Lifetime.Simulate.run ~allocators:backends ~config ~oracle ~test:trace () in
        jobs := List.length (Lifetime.Simulate.names sim))
  in
  let events = Array.length trace.events in
  let best l = List.hd l and med l = List.nth l (List.length l / 2) in
  print_json
    [
      ("program", Json.String program);
      ("events", int events);
      ("repeat", int repeat);
      ("load_best_events_per_s", num (per_s events (best load)));
      ("load_median_events_per_s", num (per_s events (med load)));
      ("sequential_best_events_per_s", num (per_s (events * !jobs) (best replay)));
      ("sequential_median_events_per_s", num (per_s (events * !jobs) (med replay)));
      ( "top_heap_mb",
        num (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
    ]

let usage =
  "lpperf (setup --scale S | job [--trace] [--spans FILE] | reference) --workload W --dir DIR\n\
   lpperf gap --program P [--repeat N]"

let () =
  let workload = ref "" and dir = ref "" and scale = ref 1.0 in
  let trace = ref false and spans_out = ref None in
  let program = ref "" and repeat = ref 5 in
  let cmd = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W simulate-perl | stream-gawk | tune-pint");
      ("--program", Arg.Set_string program, "P workload program (gap)");
      ("--repeat", Arg.Set_int repeat, "N repeats of each phase (gap)");
      ("--dir", Arg.Set_string dir, "DIR directory of the workload's .lpt files");
      ("--scale", Arg.Set_float scale, "S workload input scale (setup)");
      ("--trace", Arg.Set trace, " record spans and Lp_obs.Timings (job)");
      ("--spans", Arg.String (fun f -> spans_out := Some f), "FILE write the spans here (job)");
    ]
    (fun a -> if !cmd = "" then cmd := a else raise (Arg.Bad ("unexpected " ^ a)))
    usage;
  Lifetime.Parallel.set_domains 1;
  let w () =
    if !dir = "" then (prerr_endline usage; exit 2);
    workload_of_string !workload
  in
  match !cmd with
  | "setup" -> setup (w ()) ~scale:!scale ~dir:!dir
  | "job" -> job (w ()) ~dir:!dir ~trace:!trace ~spans_out:!spans_out
  | "reference" -> reference (w ()) ~dir:!dir
  | "gap" when !program <> "" && !repeat > 0 -> gap ~program:!program ~repeat:!repeat
  | _ ->
      prerr_endline usage;
      exit 2
