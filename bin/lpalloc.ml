(* lpalloc: command-line interface to the lifetime-prediction library.

   Subcommands:
     list                           the built-in workload programs
     trace    -p PROG -i INPUT      run a workload, write its trace (text)
     convert  FILE -o OUT           convert/tile a trace; --v3 writes sharded
     stats    FILE                  statistics of a trace file (Table 2 row)
     lifetimes FILE                 lifetime quartiles of a trace (Table 3 row)
     train    FILE                  train a predictor, show its sites
     evaluate --train A --test B    self/true prediction quality (Table 4 row)
     simulate --train A --test B    first-fit vs BSD vs arena (Tables 7-9)
     tune     --train A --test B    design-space search over allocator
                                    parameters; Pareto front + baselines
     lint     FILE                  statically check a trace or model file
     audit    TRACE [--model M]     chain-collision / coverage / live-interval
                                    analyses over a trace and its model  *)

open Cmdliner

(* Every subcommand follows lint's exit-code contract: 0 on success (for
   lint: no error-severity diagnostic), 1 for errors found in otherwise
   well-formed input (lint errors, sanitizer violations), 2 for usage and
   I/O errors (bad flags, missing arguments, unreadable or malformed
   files).  [io_guard] maps the loader exceptions onto the last class. *)
let io_guard f =
  try f ()
  with Failure msg | Sys_error msg ->
    Printf.eprintf "lpalloc: %s\n" msg;
    exit 2

(* Auto-detects binary (.lpt) vs text traces by their magic bytes. *)
let read_trace path = io_guard (fun () -> Lp_trace.Io.read_file path)

let timings_arg =
  let doc =
    "Record per-stage wall-clock timings (trace load/store, replay per \
     allocator) and event counters; print the aggregate table to stderr on \
     exit.  Also enables debug logging on the lpalloc.obs source."
  in
  Arg.(value & flag & info [ "timings" ] ~doc)

let with_timings enabled f =
  if enabled then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug);
    Lp_obs.Timings.set_enabled true
  end;
  let r = f () in
  if enabled then Format.eprintf "%a@?" Lp_obs.Timings.pp_report ();
  r

let scale_arg =
  let doc = "Scale factor for workload input sizes (0 < S <= 1)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let stream_arg =
  let doc =
    "Stream the trace file in a single bounded-memory pass instead of \
     materializing the event array: binary $(b,.lpt) files decode \
     incrementally over a read-only memory map, text traces parse \
     line-at-a-time.  Results are byte-identical to the materialized path; \
     peak memory is bounded by the live-object population instead of the \
     trace length."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let threshold_arg =
  let doc = "Short-lived threshold in bytes (the paper uses 32768)." in
  Arg.(value & opt int 32768 & info [ "threshold" ] ~docv:"BYTES" ~doc)

let sharded_arg =
  let doc =
    "Replay the trace range-parallel across OCaml domains.  The file must \
     be a sharded binary trace ($(b,.lpt) version 3, written by $(b,lpalloc \
     convert --v3)); its chunk index fans out over the domain pool \
     (LPALLOC_DOMAINS, default up to 8) and the deterministic merge makes \
     the output byte-identical to $(b,--stream).  Implies bounded-memory \
     streaming."
  in
  Arg.(value & flag & info [ "sharded" ] ~doc)

let load_sharded path =
  try Lp_trace.Sharded.load path
  with Failure msg ->
    Printf.eprintf "lpalloc: %s\n" msg;
    exit 2

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains for the parallel replays (default: up to 8, per the \
           machine; 1 forces the sequential order; the LPALLOC_DOMAINS \
           environment variable sets the same knob globally).")

let set_domains domains =
  match domains with Some n -> Lifetime.Parallel.set_domains n | None -> ()

(* -- list ---------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (p : Lp_workloads.Registry.program) ->
        Printf.printf "%-9s %s\n          inputs: tiny, train, test. %s\n" p.name
          p.description p.input_notes)
      Lp_workloads.Registry.programs
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in workload programs")
    Term.(const run $ const ())

(* -- trace --------------------------------------------------------------------- *)

let trace_cmd =
  let program =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "program" ] ~docv:"PROG" ~doc:"Workload program name.")
  in
  let input =
    Arg.(
      value & opt string "test"
      & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Input set: tiny, train or test.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace here (default stdout).")
  in
  let format =
    let fmt_conv =
      Arg.enum [ ("auto", None); ("text", Some Lp_trace.Io.Text); ("binary", Some Lp_trace.Io.Binary) ]
    in
    Arg.(
      value & opt fmt_conv None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Trace format: $(b,text), $(b,binary), or $(b,auto) (the default: \
             binary for .lpt files, text otherwise and on stdout).")
  in
  let run program input output format scale timings =
    with_timings timings (fun () ->
        let trace = Lp_workloads.Registry.trace ~scale ~program ~input () in
        match output with
        | Some path ->
            Lp_trace.Io.write_file ?format path trace;
            Printf.printf "wrote %d events (%d objects) to %s\n"
              (Array.length trace.events) trace.n_objects path
        | None ->
            let format = Option.value format ~default:Lp_trace.Io.Text in
            if format = Lp_trace.Io.Binary then set_binary_mode_out stdout true;
            Lp_trace.Io.output ~format stdout trace)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a workload and emit its allocation trace")
    Term.(const run $ program $ input $ output $ format $ scale_arg $ timings_arg)

(* -- stats --------------------------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")

let json_arg =
  let doc = "Emit machine-readable JSON instead of the human-readable report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let stats_cmd =
  let run path json stream sharded domains timings =
    with_timings timings (fun () ->
        set_domains domains;
        let s =
          if sharded then
            Lp_trace.Stats.project
              (List.hd
                 (Lifetime.Shard.run ~analyses:[ Lp_trace.Stats.domain ]
                    (load_sharded path)))
          else if stream then
            io_guard (fun () ->
                Lp_trace.Stats.compute_source (Lp_trace.Source.of_file path))
          else Lp_trace.Stats.compute (read_trace path)
        in
        if json then
          Printf.printf
            "{\"program\":%S,\"input\":%S,\"instructions\":%d,\"calls\":%d,\
             \"total_bytes\":%d,\"total_objects\":%d,\"max_bytes\":%d,\
             \"max_objects\":%d,\"heap_ref_pct\":%.6g,\"distinct_chains\":%d,\
             \"mean_object_size\":%.6g}\n"
            s.program s.input s.instructions s.calls s.total_bytes
            s.total_objects s.max_bytes s.max_objects s.heap_ref_pct
            s.distinct_chains s.mean_object_size
        else Format.printf "%a@." Lp_trace.Stats.pp s)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Execution statistics of a trace (cf. Table 2)")
    Term.(
      const run $ file_arg $ json_arg $ stream_arg $ sharded_arg $ domains_arg
      $ timings_arg)

let lifetimes_cmd =
  let run path threshold stream sharded domains timings =
    with_timings timings @@ fun () ->
    set_domains domains;
    let s : Lp_trace.Lifetimes.summary =
      if sharded then
        Lp_trace.Lifetimes.project
          (List.hd
             (Lifetime.Shard.run
                ~analyses:[ Lp_trace.Lifetimes.domain ~threshold ]
                (load_sharded path)))
      else if stream then
        io_guard (fun () ->
            Lp_trace.Lifetimes.summary_source ~threshold
              (Lp_trace.Source.of_file path))
      else
        Lp_trace.Lifetimes.summary_source ~threshold
          (Lp_trace.Source.of_trace (read_trace path))
    in
    if Lp_quantile.Histogram.count s.hist = 0 then
      print_endline "byte-weighted lifetime quartiles: no allocated bytes"
    else
      Format.printf "byte-weighted lifetime quartiles: %a@."
        Lp_quantile.Histogram.pp_quartiles
        (Lp_quantile.Histogram.quartiles s.hist);
    Printf.printf "short-lived (< %d bytes): %.1f%% of bytes\n" threshold
      (100. *. float_of_int s.short_bytes
      /. float_of_int (max 1 s.total_alloc_bytes))
  in
  Cmd.v
    (Cmd.info "lifetimes" ~doc:"Lifetime distribution of a trace (cf. Table 3)")
    Term.(
      const run $ file_arg $ threshold_arg $ stream_arg $ sharded_arg
      $ domains_arg $ timings_arg)

(* -- train ---------------------------------------------------------------------- *)

let train_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every predictor site.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Write the trained predictor as a portable model file: the \
             accepted keys plus per-key training statistics, checkable with \
             $(b,lpalloc lint).")
  in
  let run path threshold verbose save stream sharded domains timings =
    with_timings timings @@ fun () ->
    set_domains domains;
    let config = { Lifetime.Config.default with short_lived_threshold = threshold } in
    let program, funcs, clock, table =
      if sharded then begin
        let sh = load_sharded path in
        let st =
          Lifetime.Train.project
            (List.hd
               (Lifetime.Shard.run
                  ~analyses:[ Lifetime.Train.domain ~config () ]
                  sh))
        in
        ( (Lp_trace.Sharded.header sh).Lp_trace.Binio.program,
          Lp_trace.Binio.indexed_funcs (Lp_trace.Sharded.index sh),
          st.Lifetime.Train.end_clock,
          st.Lifetime.Train.table )
      end
      else if stream then begin
        let src = io_guard (fun () -> Lp_trace.Source.of_file path) in
        let st = io_guard (fun () -> Lifetime.Train.collect_source ~config src) in
        ( src.Lp_trace.Source.program,
          src.Lp_trace.Source.funcs,
          st.Lifetime.Train.end_clock,
          st.Lifetime.Train.table )
      end
      else
        let trace = read_trace path in
        ( trace.program,
          trace.funcs,
          Lp_trace.Trace.total_bytes trace,
          Lifetime.Train.collect ~config trace )
    in
    let predictor = Lifetime.Predictor.build ~config ~funcs table in
    Printf.printf "%d allocation sites, %d predictor (all-short) sites\n"
      (Lifetime.Train.total_sites table)
      (Lifetime.Predictor.size predictor);
    if verbose then
      Lifetime.Predictor.iter_keys predictor (fun key ->
          print_endline ("  " ^ Lifetime.Portable.to_string key));
    match save with
    | None -> ()
    | Some out ->
        let model =
          Lifetime.Model.of_training_parts ~config ~program ~funcs ~clock table
            predictor
        in
        Lifetime.Model.save out model;
        Printf.printf "wrote model (%d keys, %d predicted) to %s\n"
          (List.length model.entries)
          (List.length
             (List.filter (fun e -> e.Lifetime.Model.predicted) model.entries))
          out
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train a short-lived-site predictor from a trace")
    Term.(
      const run $ file_arg $ threshold_arg $ verbose $ save $ stream_arg
      $ sharded_arg $ domains_arg $ timings_arg)

(* -- evaluate ------------------------------------------------------------------- *)

let train_file =
  Arg.(
    required
    & opt (some file) None
    & info [ "train" ] ~docv:"FILE" ~doc:"Training trace.")

let test_file =
  Arg.(
    required & opt (some file) None & info [ "test" ] ~docv:"FILE" ~doc:"Test trace.")

let evaluate_cmd =
  let run train_path test_path threshold timings =
    with_timings timings @@ fun () ->
    let train = read_trace train_path in
    let test = read_trace test_path in
    let config = { Lifetime.Config.default with short_lived_threshold = threshold } in
    let _, e = Lifetime.Evaluate.train_and_evaluate ~config ~train ~test in
    Printf.printf "test sites:            %d\n" e.total_sites;
    Printf.printf "predictor sites used:  %d\n" e.sites_used;
    Printf.printf "actual short-lived:    %.1f%% of bytes\n"
      (Lifetime.Evaluate.actual_short_pct e);
    Printf.printf "predicted short-lived: %.1f%% of bytes\n"
      (Lifetime.Evaluate.predicted_pct e);
    Printf.printf "error bytes:           %.2f%%\n" (Lifetime.Evaluate.error_pct e);
    Printf.printf "new-ref share:         %.1f%% of heap references\n"
      (Lifetime.Evaluate.new_ref_pct e)
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Evaluate prediction quality of a trained predictor (cf. Table 4)")
    Term.(const run $ train_file $ test_file $ threshold_arg $ timings_arg)

(* -- simulate ------------------------------------------------------------------- *)

(* Shared by simulate and audit: parse an oracle spec with the same
   exit-2 contract as allocator specs. *)
let oracle_spec_of ~cmd spec =
  match Lifetime.Oracle.spec_of_string spec with
  | Ok s -> s
  | Error msg ->
      Printf.eprintf "lpalloc %s: %s\n" cmd msg;
      exit 2

let oracle_arg ~cmd =
  let doc =
    Printf.sprintf
      "Lifetime oracle answering \"will this allocation die young?\": \
       $(b,static) (the default) uses the site database trained offline \
       from $(b,--train); \
       $(b,online:window=N:promote=K:demote=K:threshold=B) predicts with \
       no profile run, promoting a site once its last $(i,window) \
       outcomes (at least $(i,promote) of them) were all short-lived and \
       demoting it after $(i,demote) consecutive long-lived outcomes.  \
       Parameters are separated by ':' only, as in allocator specs; \
       every parameter is optional; a malformed spec is a usage error \
       (exit 2).  See the README's Oracles section for the grammar.%s"
      (match cmd with
      | "simulate" ->
          "  With $(b,online), $(b,--train) is not needed and is ignored."
      | "audit" ->
          "  For the audit, $(b,online) arms the \
           $(b,coverage-online-cold) rule: keys with member sites the \
           trace exercises fewer than $(i,promote) times would never \
           leave the online oracle's cold-start window."
      | _ -> "")
  in
  Arg.(value & opt string "static" & info [ "oracle" ] ~docv:"SPEC" ~doc)

let simulate_cmd =
  let allocators =
    let doc =
      "Comma-separated allocator backends to replay, by registry name or \
       alias: $(b,first-fit)/$(b,ff), $(b,best-fit)/$(b,bf), $(b,bsd), \
       $(b,segfit)/$(b,seg), $(b,arena).  A predicting backend (arena) \
       reports both prediction pricings, as $(i,name) and $(i,name)-cce.  \
       Names may carry parameters as $(i,name:key=value:...) — e.g. \
       $(b,segfit:slab=16+64+256), $(b,arena:n=8:chunk=8192) — see the \
       README's tuning section for the grammar; a malformed spec, or an \
       empty one anywhere in the list, is a usage error (exit 2)."
    in
    (* split by [Registry.specs_of_list]: [Arg.list] drops empty elements *)
    Arg.(
      value
      & opt (some string) None
      & info [ "allocators" ] ~docv:"NAMES" ~doc)
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Replay every backend under the shadow-heap sanitizer, which \
             mirrors placements into a shadow interval map and aborts on \
             overlapping live blocks, frees at unmapped addresses, or \
             arena-boundary violations (exit 1, with the diagnostic on \
             stderr).  A clean sanitized replay produces byte-identical \
             metrics.")
  in
  let train_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "train" ] ~docv:"FILE"
          ~doc:
            "Training trace (required by $(b,--oracle static), ignored by \
             $(b,--oracle online)).")
  in
  let run train_path test_path threshold oracle_spec allocators json domains
      sanitize stream timings =
    with_timings timings @@ fun () ->
    set_domains domains;
    let spec = oracle_spec_of ~cmd:"simulate" oracle_spec in
    (* full spec validation up front — a bad parameter or an empty spec is
       a usage error (exit 2), not a mid-replay failure *)
    let allocators =
      Option.map
        (fun list ->
          match Lp_allocsim.Registry.specs_of_list list with
          | Ok specs -> specs
          | Error msg ->
              Printf.eprintf "lpalloc simulate: %s\n" msg;
              exit 2)
        allocators
    in
    let config = { Lifetime.Config.default with short_lived_threshold = threshold } in
    let predictor =
      (* the static oracle is the trained database; online trains itself
         mid-replay and needs no profile run *)
      match spec with
      | Lifetime.Oracle.Spec_online _ -> None
      | Lifetime.Oracle.Spec_static -> (
          match train_path with
          | None ->
              Printf.eprintf
                "lpalloc simulate: --oracle static needs a training trace \
                 (--train FILE)\n";
              exit 2
          | Some train_path ->
              Some
                (if stream then begin
                   let src =
                     io_guard (fun () -> Lp_trace.Source.of_file train_path)
                   in
                   let st =
                     io_guard (fun () ->
                         Lifetime.Train.collect_source ~config src)
                   in
                   Lifetime.Predictor.build ~config ~funcs:src.Lp_trace.Source.funcs
                     st.Lifetime.Train.table
                 end
                 else
                   let train = read_trace train_path in
                   let table = Lifetime.Train.collect ~config train in
                   Lifetime.Predictor.build ~config ~funcs:train.funcs table))
    in
    let oracle =
      match Lifetime.Oracle.of_spec ~config ?predictor spec with
      | Ok o -> o
      | Error msg ->
          Printf.eprintf "lpalloc simulate: %s\n" msg;
          exit 2
    in
    let wrap =
      if sanitize then
        let arena_config = Lifetime.Config.arena_config config in
        Some (fun b -> Lp_analysis.Sanitize.for_backend ~arena_config b)
      else None
    in
    let sim =
      io_guard @@ fun () ->
      try
        if stream then
          Lifetime.Simulate.run_streamed ?allocators ?wrap ~config ~oracle
            ~source:(fun () -> Lp_trace.Source.of_file test_path)
            ()
        else
          let test = read_trace test_path in
          Lifetime.Simulate.run ?allocators ?wrap ~config ~oracle ~test ()
      with Lp_analysis.Sanitize.Violation d ->
        Format.eprintf "%a@." (Lp_analysis.Diagnostic.pp ~source:test_path) d;
        exit 1
    in
    if json then
      print_string
        ("{"
        ^ String.concat ","
            (List.map
               (fun name ->
                 Printf.sprintf "%S:%s" name
                   (Lp_allocsim.Metrics.to_json (Lifetime.Simulate.metrics sim name)))
               (Lifetime.Simulate.names sim))
        ^ "}\n")
    else
      Lifetime.Simulate.names sim
      |> List.iteri (fun i name ->
             if i > 0 then print_newline ();
             Format.printf "%a@." Lp_allocsim.Metrics.pp
               (Lifetime.Simulate.metrics sim name))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Replay a test trace through a set of registry allocator backends — \
          by default first-fit, BSD and the lifetime-predicting arena — in \
          parallel across OCaml domains (cf. Tables 7-9)")
    Term.(
      const run $ train_file $ test_file $ threshold_arg
      $ oracle_arg ~cmd:"simulate" $ allocators $ json_arg $ domains_arg
      $ sanitize $ stream_arg $ timings_arg)

(* -- tune ------------------------------------------------------------------------- *)

let tune_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Search seed.  The whole run is a pure function of the seed and \
             the traces: grid order, mutations, Pareto front and JSON output \
             are byte-identical for a fixed seed at any $(b,--domains) \
             setting.")
  in
  let generations =
    Arg.(
      value & opt int 4
      & info [ "generations" ] ~docv:"N"
          ~doc:"Evolutionary refinement rounds after the seed grid.")
  in
  let population =
    Arg.(
      value & opt int 16
      & info [ "population" ] ~docv:"N"
          ~doc:"Fresh mutated candidates per generation.")
  in
  let max_candidates =
    Arg.(
      value & opt int 512
      & info [ "max-candidates" ] ~docv:"N"
          ~doc:"Hard cap on total candidate evaluations.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Workload label in the output (default: the test trace's \
             basename).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Also write the outcome JSON here.  The file is byte-identical \
             for a fixed seed regardless of the domain count — the golden \
             determinism artifact.")
  in
  let format =
    Arg.(
      value
      & opt
          (Arg.enum [ ("text", `Text); ("json", `Json); ("markdown", `Markdown) ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output on stdout: $(b,text) (Pareto table), $(b,json) (the full \
             outcome), or $(b,markdown) (the EXPERIMENTS best-config rows).")
  in
  let run train_path test_path seed generations population max_candidates
      workload out format domains timings =
    with_timings timings @@ fun () ->
    set_domains domains;
    if generations < 0 then begin
      Printf.eprintf "lpalloc tune: --generations must be >= 0\n";
      exit 2
    end;
    if population < 1 then begin
      Printf.eprintf "lpalloc tune: --population must be positive\n";
      exit 2
    end;
    if max_candidates < 1 then begin
      Printf.eprintf "lpalloc tune: --max-candidates must be positive\n";
      exit 2
    end;
    (* counters run even without --timings: the outcome embeds the decode,
       validation and training-profile counts that prove the
       decode-once/replay-many contract (all deterministic, unlike the
       per-domain pool counters, so they are safe in the golden artifact) *)
    let counters_were_on = Lp_obs.Timings.enabled () in
    Lp_obs.Timings.set_enabled true;
    let train = read_trace train_path in
    let test = read_trace test_path in
    let workload =
      match workload with
      | Some w -> w
      | None -> Filename.remove_extension (Filename.basename test_path)
    in
    let options = { Lifetime.Tune.seed; generations; population; max_candidates } in
    let outcome =
      io_guard (fun () -> Lifetime.Tune.search ~options ~workload ~train ~test ())
    in
    let engine =
      List.filter
        (fun (k, _) ->
          k = "trace.decodes" || k = "replay.validations" || k = "train.profiles")
        (Lp_obs.Timings.counters ())
    in
    if not counters_were_on then Lp_obs.Timings.set_enabled false;
    let json = Lifetime.Tune.json_of_outcome ~engine outcome in
    (match out with
    | None -> ()
    | Some path ->
        io_guard (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (Lp_report.Json.to_pretty_string json))));
    match format with
    | `Json -> print_string (Lp_report.Json.to_pretty_string json)
    | `Markdown ->
        print_string (Lifetime.Tune.markdown_header ^ Lifetime.Tune.markdown_rows outcome)
    | `Text ->
        Printf.printf "workload %s: %d candidates evaluated, %d on the Pareto front\n"
          workload
          (List.length outcome.Lifetime.Tune.results)
          (List.length outcome.Lifetime.Tune.pareto);
        List.iter (fun (k, v) -> Printf.printf "  %s = %d\n" k v) engine;
        print_string (Lifetime.Tune.table_of_outcome outcome)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Search the allocator design space instead of evaluating the paper's \
         fixed points: a deterministic seeded grid over backend parameters \
         (sbrk chunk, segfit slab ladder, arena geometry and fallback, \
         predictor chain depth 1-8, short-lived threshold) followed by \
         evolutionary refinement of the Pareto front.  Every candidate \
         replays the same prepared test trace — decoded and validated \
         exactly once — in parallel across OCaml domains, and every \
         predictor derives its sites from one profile of the train trace; \
         the emitted $(b,trace.decodes), $(b,replay.validations) and \
         $(b,train.profiles) counters prove it.";
      `P
        "The report is the Pareto front minimizing (simulated instructions, \
         heap high-water) plus the paper's fixed baselines (first-fit, bsd, \
         arena at length-4 and CCE pricing) for reference.";
    ]
  in
  Cmd.v
    (Cmd.info "tune" ~man
       ~doc:
         "Search allocator parameters with a seeded grid plus evolutionary \
          refinement, replaying one prepared trace per workload")
    Term.(
      const run $ train_file $ test_file $ seed $ generations $ population
      $ max_candidates $ workload $ out $ format $ domains_arg $ timings_arg)

(* -- convert ---------------------------------------------------------------------- *)

let convert_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the converted trace here.")
  in
  let v3 =
    Arg.(
      value & flag
      & info [ "v3" ]
          ~doc:
            "Write the sharded binary layout ($(b,.lpt) version 3): the event \
             stream split into fixed-size chunks with per-chunk interning \
             deltas and carry-in sets plus a footer index, so the file seeks \
             in O(1) and replays range-parallel ($(b,--sharded) elsewhere).  \
             Converting v2 to v3 and back is byte-identical.")
  in
  let chunk_events =
    Arg.(
      value
      & opt int Lp_trace.Binio.default_chunk_events
      & info [ "chunk-events" ] ~docv:"N"
          ~doc:
            "Events per chunk of the sharded layout (with $(b,--v3); default \
             $(b,262144)).  Smaller chunks seek finer and give short traces \
             enough chunks to spread over the domain pool; larger chunks \
             delta-compress better.  A trace replays well sharded when it \
             has at least a few chunks per domain.")
  in
  let tile =
    Arg.(
      value & opt int 1
      & info [ "tile" ] ~docv:"N"
          ~doc:
            "Concatenate $(docv) copies of the trace before writing, \
             renumbering objects so dense birth order is preserved — a way \
             to synthesize long traces for scale tests and benchmarks.")
  in
  let format =
    let fmt_conv =
      Arg.enum
        [ ("auto", None); ("text", Some Lp_trace.Io.Text); ("binary", Some Lp_trace.Io.Binary) ]
    in
    Arg.(
      value & opt fmt_conv None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format when not $(b,--v3): $(b,text), $(b,binary), or \
             $(b,auto) (binary for .lpt files).")
  in
  let run path output v3 chunk_events tile format timings =
    with_timings timings @@ fun () ->
    if chunk_events < 1 then begin
      Printf.eprintf "lpalloc convert: --chunk-events must be positive\n";
      exit 2
    end;
    if tile < 1 then begin
      Printf.eprintf "lpalloc convert: --tile must be positive\n";
      exit 2
    end;
    let trace = read_trace path in
    let trace = Lp_trace.Trace.tile trace tile in
    if v3 then begin
      io_guard (fun () ->
          (* encode first: a trace the layout cannot store leaves no file *)
          let s = Lp_trace.Binio.to_string_v3 ~name:output ~chunk_events trace in
          Out_channel.with_open_bin output (fun oc -> output_string oc s));
      let sh = load_sharded output in
      Printf.printf "wrote %d events (%d objects) as %d chunks of %d to %s\n"
        (Array.length trace.events) trace.n_objects
        (Lp_trace.Sharded.n_chunks sh)
        chunk_events output
    end
    else begin
      io_guard (fun () -> Lp_trace.Io.write_file ?format output trace);
      Printf.printf "wrote %d events (%d objects) to %s\n"
        (Array.length trace.events) trace.n_objects output
    end
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace between formats — text, binary, and the sharded \
          (seekable, range-parallel) binary layout — optionally tiling it \
          into a longer synthetic trace")
    Term.(
      const run $ file_arg $ output $ v3 $ chunk_events $ tile $ format
      $ timings_arg)

(* -- diagnostics plumbing shared by lint and audit ----------------------------- *)

(* Unknown rule ids in --only/--disable are usage errors: fail before any
   work happens, listing the command's registry.  Diagnostic.select
   still backstops the library API. *)
let validate_rules ~cmd ~(rules : Lp_analysis.Diagnostic.rule list) only disable
    =
  let known id =
    List.exists (fun (r : Lp_analysis.Diagnostic.rule) -> r.id = id) rules
  in
  let unknown =
    List.filter
      (fun id -> not (known id))
      (Option.value only ~default:[] @ Option.value disable ~default:[])
  in
  match unknown with
  | [] -> ()
  | us ->
      Printf.eprintf "lpalloc %s: unknown rule%s %s (known: %s)\n" cmd
        (if List.length us > 1 then "s" else "")
        (String.concat ", " (List.map (Printf.sprintf "%S") us))
        (String.concat ", "
           (List.map (fun (r : Lp_analysis.Diagnostic.rule) -> r.id) rules));
      exit 2

let format_arg =
  let doc =
    "Report format: $(b,text) (the default human-readable report), $(b,json) \
     (one JSON array, as $(b,--json)), or $(b,sarif) (a SARIF 2.1.0 log for \
     code-scanning upload)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

(* --json predates --format and stays as an alias for --format json *)
let effective_format json format =
  match (json, format) with true, `Text -> `Json | _ -> format

let print_text_report ~source ~rules ~max_per_rule diags =
  (* cap the per-rule flood in the text report; the summary and --json
     still account for every diagnostic *)
  let printed = Hashtbl.create 8 in
  List.iter
    (fun (d : Lp_analysis.Diagnostic.t) ->
      let n = Option.value (Hashtbl.find_opt printed d.rule) ~default:0 in
      Hashtbl.replace printed d.rule (n + 1);
      if n < max_per_rule then
        Format.printf "%a@." (Lp_analysis.Diagnostic.pp ~source) d
      else if n = max_per_rule then
        Format.printf "%s: [%s] further diagnostics suppressed (--json has all)@."
          source d.rule)
    diags;
  Format.printf "%a" (Lp_analysis.Diagnostic.pp_summary ~rules) diags

let emit_diagnostics ~tool_name ~source ~rules ~format ~max_per_rule diags =
  match format with
  | `Json -> print_endline (Lp_analysis.Diagnostic.list_to_json diags)
  | `Sarif ->
      print_endline (Lp_analysis.Sarif.to_string ~tool_name ~rules ~source diags)
  | `Text -> print_text_report ~source ~rules ~max_per_rule diags

let rule_section title rules =
  `S title
  :: List.map
       (fun (r : Lp_analysis.Diagnostic.rule) ->
         `P
           (Printf.sprintf "$(b,%s) (%s): %s." r.id
              (match r.default_severity with
              | Lp_analysis.Diagnostic.Error -> "error"
              | Warning -> "warning"
              | Info -> "info")
              r.doc))
       rules

let only_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "only" ] ~docv:"RULES"
        ~doc:"Run only these comma-separated rule ids.")

let disable_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "disable" ] ~docv:"RULES" ~doc:"Skip these comma-separated rule ids.")

let max_per_rule_arg =
  Arg.(
    value & opt int 20
    & info [ "max-per-rule" ] ~docv:"N"
        ~doc:
          "Print at most $(docv) diagnostics per rule in the text report (the \
           summary counts, the exit code and the machine formats always cover \
           all of them).")

let contract_exits =
  Cmd.Exit.info 1
    ~doc:"at least one error-severity diagnostic (warnings alone exit 0)."
  :: Cmd.Exit.info 2 ~doc:"usage or I/O error (unknown rule id, unreadable file)."
  :: Cmd.Exit.defaults

(* -- lint ------------------------------------------------------------------------ *)

let lint_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "File to check: a trace (text or binary) or a portable model \
             written by $(b,lpalloc train --save); told apart by their magic \
             bytes.")
  in
  let max_chain_depth =
    Arg.(
      value
      & opt int Lp_analysis.Lint.default_max_chain_depth
      & info [ "max-chain-depth" ] ~docv:"N"
          ~doc:"Call chains deeper than $(docv) frames are chain anomalies.")
  in
  let run path json format only disable max_chain_depth max_per_rule stream
      sharded domains timings =
    with_timings timings @@ fun () ->
    set_domains domains;
    let format = effective_format json format in
    (* model files are a few kilobytes; only trace linting streams *)
    let model_file =
      In_channel.with_open_bin path (fun ic ->
          match
            In_channel.really_input_string ic (String.length Lifetime.Model.magic)
          with
          | Some m -> String.equal m Lifetime.Model.magic
          | None -> false)
    in
    validate_rules ~cmd:"lint"
      ~rules:
        (if model_file then Lp_analysis.Validate.rules
         else Lp_analysis.Lint.rules)
      only disable;
    let diags, rules =
      try
        if sharded && not model_file then
          ( Lp_analysis.Lint.project
              (List.hd
                 (Lifetime.Shard.run
                    ~analyses:
                      [ Lp_analysis.Lint.domain ?only ?disable ~max_chain_depth () ]
                    (Lp_trace.Sharded.load path))),
            Lp_analysis.Lint.rules )
        else if stream && not model_file then
          ( Lp_analysis.Lint.run_source ?only ?disable ~max_chain_depth
              (Lp_trace.Source.of_file path),
            Lp_analysis.Lint.rules )
        else
          let contents = In_channel.with_open_bin path In_channel.input_all in
          if Lifetime.Model.looks_like_model contents then
            ( Lp_analysis.Validate.run ?only ?disable
                (Lifetime.Model.of_string ~name:path contents),
              Lp_analysis.Validate.rules )
          else
            ( Lp_analysis.Lint.run ?only ?disable ~max_chain_depth
                (read_trace path),
              Lp_analysis.Lint.rules )
      with Invalid_argument msg | Failure msg ->
        Printf.eprintf "lpalloc lint: %s\n" msg;
        exit 2
    in
    emit_diagnostics ~tool_name:"lpalloc lint" ~source:path ~rules ~format
      ~max_per_rule diags;
    if Lp_analysis.Diagnostic.has_errors diags then exit 1
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Statically check a trace or a portable predictor model and report \
         structured diagnostics.  The exit code is the contract: $(b,0) when \
         no error-severity diagnostic was found (warnings allowed), $(b,1) \
         when at least one error was, $(b,2) on usage or I/O errors.";
    ]
    @ rule_section "LINT RULES (traces)" Lp_analysis.Lint.rules
    @ rule_section "LINT RULES (models)" Lp_analysis.Validate.rules
  in
  Cmd.v
    (Cmd.info "lint" ~man ~exits:contract_exits
       ~doc:"Statically check a trace or predictor-model file")
    Term.(
      const run $ file $ json_arg $ format_arg $ only_arg $ disable_arg
      $ max_chain_depth $ max_per_rule_arg $ stream_arg $ sharded_arg
      $ domains_arg $ timings_arg)

(* -- audit ----------------------------------------------------------------------- *)

let audit_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"Trace file to audit (text or binary; sharded with $(b,--sharded)).")
  in
  let model =
    Arg.(
      value
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:
            "Portable model (written by $(b,lpalloc train --save)) to audit \
             the trace against.  The model's training configuration — \
             threshold, size rounding and site policy — replaces the \
             command-line values so the trace is profiled under the same \
             abstraction the model was trained with; it also arms the \
             model-dependent rules (cold start, dead sites, mispredict \
             hardening).")
  in
  let margin =
    Arg.(
      value
      & opt float Lp_analysis.Coverage.default_margin
      & info [ "margin" ] ~docv:"FRAC"
          ~doc:
            "Threshold-sensitivity band as a fraction of the short-lived \
             cutoff: a site whose observed maximum lifetime lands within \
             cutoff ± $(docv)·cutoff is reported \
             $(b,coverage-threshold-sensitive).")
  in
  let hotspot_share =
    Arg.(
      value
      & opt float Lp_analysis.Liveint.default_hotspot_share
      & info [ "hotspot-share" ] ~docv:"FRAC"
          ~doc:
            "Overlap-hotspot cutoff: a site fires $(b,live-overlap-hotspot) \
             when its own live-byte peak and the foreign bytes co-live at \
             that peak each reach $(docv) of the global live-heap peak.")
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Shorthand for $(b,--policy) last-$(docv)-callers: key sites by \
             the last $(docv) callers of the allocation chain (the paper's \
             depth sweep, Tables 5-6).")
  in
  let policy =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Site abstraction keying the profile: $(b,complete-chain) (the \
             default), $(b,last-N-callers), $(b,size-only) or \
             $(b,encrypted-key).")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list-rules" ]
          ~doc:
            "Print the audit rule registry as a markdown table (the exact \
             table embedded in the README) and exit.")
  in
  let run path model_path threshold margin hotspot_share depth policy
      oracle_spec list_rules json format only disable max_per_rule stream
      sharded domains timings =
    with_timings timings @@ fun () ->
    if list_rules then begin
      print_string (Lp_analysis.Audit.rules_markdown ());
      exit 0
    end;
    let online_params =
      match oracle_spec_of ~cmd:"audit" oracle_spec with
      | Lifetime.Oracle.Spec_static -> None
      | Lifetime.Oracle.Spec_online p -> Some p
    in
    let path =
      match path with
      | Some p -> p
      | None ->
          Printf.eprintf "lpalloc audit: required argument TRACE is missing\n";
          exit 2
    in
    set_domains domains;
    let format = effective_format json format in
    validate_rules ~cmd:"audit" ~rules:Lp_analysis.Audit.rules only disable;
    let policy =
      match (depth, policy) with
      | Some _, Some _ ->
          Printf.eprintf
            "lpalloc audit: --depth and --policy are mutually exclusive\n";
          exit 2
      | Some n, None ->
          if n < 1 then begin
            Printf.eprintf "lpalloc audit: --depth must be positive\n";
            exit 2
          end;
          Some (Lp_callchain.Site.Last_callers n)
      | None, Some s -> (
          match Lp_callchain.Site.policy_of_string s with
          | Some p -> Some p
          | None ->
              Printf.eprintf
                "lpalloc audit: unknown policy %S (known: complete-chain, \
                 last-N-callers, size-only, encrypted-key)\n"
                s;
              exit 2)
      | None, None -> None
    in
    let opts =
      {
        Lp_analysis.Audit.default_options with
        au_threshold = threshold;
        au_margin = margin;
        au_hotspot_share = hotspot_share;
        au_online = online_params;
        au_only = only;
        au_disable = disable;
      }
    in
    let opts =
      match policy with
      | Some p -> { opts with Lp_analysis.Audit.au_policy = p }
      | None -> opts
    in
    let opts =
      match model_path with
      | None -> opts
      | Some mp ->
          Lp_analysis.Audit.with_model opts
            (io_guard (fun () -> Lifetime.Model.load mp))
    in
    let diags =
      try
        if sharded then Lp_analysis.Audit.run_sharded opts (load_sharded path)
        else if stream then
          io_guard (fun () ->
              Lp_analysis.Audit.run_source opts (Lp_trace.Source.of_file path))
        else Lp_analysis.Audit.run opts (read_trace path)
      with Invalid_argument msg | Failure msg ->
        Printf.eprintf "lpalloc audit: %s\n" msg;
        exit 2
    in
    emit_diagnostics ~tool_name:"lpalloc audit" ~source:path
      ~rules:Lp_analysis.Audit.rules ~format ~max_per_rule diags;
    if Lp_analysis.Diagnostic.has_errors diags then exit 1
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Audit a trace — and optionally the model trained from it — with \
         three static analyses sharing one streaming pass: chain-key \
         collision detection (distinct call chains folded onto one predictor \
         key with disagreeing lifetime classes), predictor-coverage gaps \
         (cold-start sites the model misses, dead model sites, sites within \
         a margin of the short-lived cutoff), and live-interval overlap \
         (peak simultaneous live bytes per site, cross-site overlap \
         pressure, fragmentation hotspots).";
      `P
        "Same exit-code contract as $(b,lpalloc lint): $(b,0) when no \
         error-severity diagnostic was found, $(b,1) when at least one was \
         (only $(b,chain-collision-mispredict) is error-severity by \
         default), $(b,2) on usage or I/O errors.  Output is byte-identical \
         across the materialized, $(b,--stream) and $(b,--sharded) paths at \
         any domain count.";
    ]
    @ rule_section "AUDIT RULES" Lp_analysis.Audit.rules
  in
  Cmd.v
    (Cmd.info "audit" ~man ~exits:contract_exits
       ~doc:
         "Audit a trace (and optionally its trained model) with \
          chain-collision, predictor-coverage and live-interval analyses")
    Term.(
      const run $ file $ model $ threshold_arg $ margin $ hotspot_share $ depth
      $ policy $ oracle_arg ~cmd:"audit" $ list_rules $ json_arg $ format_arg
      $ only_arg $ disable_arg $ max_per_rule_arg $ stream_arg $ sharded_arg
      $ domains_arg $ timings_arg)

let () =
  (* fail fast, before any subcommand runs, on a malformed LPALLOC_DOMAINS
     — a typo'd value silently falling back to a default would make
     parallel results unreproducible *)
  (match Lifetime.Parallel.check_env () with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "lpalloc: %s\n" msg;
      exit 2);
  let doc =
    "lifetime-predicting memory allocation (reproduction of Barrett & Zorn, PLDI \
     1993)"
  in
  let info = Cmd.info "lpalloc" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        list_cmd; trace_cmd; convert_cmd; stats_cmd; lifetimes_cmd; train_cmd;
        evaluate_cmd; simulate_cmd; tune_cmd; lint_cmd; audit_cmd;
      ]
  in
  (* cmdliner's stock cli_error exit is 124; fold parse errors (missing
     arguments, unknown flags — cmdliner has already printed the usage to
     stderr) into the 2 = usage-error class of the contract above *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
