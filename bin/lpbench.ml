(* lpbench: the performance harness behind the repo's BENCH_*.json files.

   Where bench/main.exe regenerates the paper's *simulated* evaluation
   tables, lpbench measures the *simulator itself* on this machine: trace
   generation, binary (.lpt) decode, sequential replay through every
   registry allocator backend, and the parallel fan-out across domains —
   per workload, reporting wall-clock seconds, events/sec and heap
   high-water marks, as machine-readable JSON.

   The committed BENCH_seed.json (pre-optimization) and BENCH_<rev>.json
   files make simulator-throughput regressions diffable; CI runs
   `lpbench --scale tiny --validate` as a non-gating smoke job.

   The lp_obs timing spans recorded during the run (the same numbers
   `--timings` prints elsewhere) are embedded in the JSON under "timings",
   so one file carries both phase timings and throughput.

   Schema v2 adds a per-workload "streamed" phase (the sequential job set
   replayed through pull-based decoders over the encoded bytes, with the
   heap-growth delta it caused) and the trace.events_streamed /
   trace.peak_resident_words counters; --validate accepts v1 files and
   only demands the additions from v2 files.

   Schema v3 adds a per-workload "sharded" phase: the trace re-encoded in
   the seekable v3 layout (~8 chunks) and the training fold replayed over
   the chunk index sequentially and across domains.  Byte-identity of the
   merged fold is a test/CI property; here only the wall clock is
   measured.  The speedup is recorded, never asserted — on boxes without
   >= 4 real cores (Domain.recommended_domain_count) a warning is all a
   shortfall produces, since domains > cores just oversubscribes the
   stop-the-world minor GC.

   Schema v4 adds a per-workload "realloc" phase for realloc-bearing
   traces (today: the pint interpreter workload, which also joins the
   default workload set): the realloc event count plus, per backend, how
   the sequential replay split resizes into in-place extensions and
   moves.  Realloc-free workloads omit the phase; --validate demands it
   from v4 files on at least one workload.

   Schema v5 adds a per-workload "tune" phase measuring the
   decode-once/replay-many candidate engine: a fixed 16-spec parameter
   sweep replayed through one prepared trace versus the naive
   decode-per-candidate baseline (fresh Binio decode + validating replay
   per candidate — the pre-engine cost), plus a small lpalloc-tune
   search reporting candidates evaluated, candidates/sec and the Pareto
   front size.  --validate demands the phase from v5 files.

   Schema v6 adds a per-workload "online" phase: one arena replay driven
   by the profile-free online oracle (default window/hysteresis) at one
   domain, reporting wall clock plus the oracle consultations and
   mispredict counters the replay classified.  --validate demands the
   phase from v6 files. *)

open Cmdliner
module Json = Lp_report.Json

let schema_version = 6

(* -- measurement helpers -------------------------------------------------------- *)

let time f =
  let t0 = Lp_obs.Timings.now () in
  let r = f () in
  (Lp_obs.Timings.now () -. t0, r)

(* best-of-N wall clock: min is the standard estimator for a noisy timer *)
let best_of repeat f =
  let rec go best n =
    if n = 0 then best
    else
      let dt, _ = time f in
      go (Float.min best dt) (n - 1)
  in
  let dt, r = time f in
  (go dt (repeat - 1), r)

let rate items seconds = if seconds > 0. then float_of_int items /. seconds else 0.

let num f = Json.Number f
let int_ n = Json.Number (float_of_int n)
let str s = Json.String s

(* difference of two Timings snapshots, keyed by stage name *)
let stage_delta before after =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (s : Lp_obs.Timings.stage) -> Hashtbl.replace tbl s.name s) before;
  List.filter_map
    (fun (s : Lp_obs.Timings.stage) ->
      let prev =
        match Hashtbl.find_opt tbl s.name with
        | Some p -> p
        | None -> { s with calls = 0; seconds = 0.; items = 0 }
      in
      if s.calls = prev.calls then None
      else
        Some
          {
            Lp_obs.Timings.name = s.name;
            calls = s.calls - prev.calls;
            seconds = s.seconds -. prev.seconds;
            items = s.items - prev.items;
          })
    after

(* -- one workload --------------------------------------------------------------- *)

type replay_setup = {
  config : Lifetime.Config.t;
  oracle : Lifetime.Oracle.t;
  allocators : string list;
}

let replay setup trace () =
  Lifetime.Simulate.run ~allocators:setup.allocators ~config:setup.config
    ~oracle:setup.oracle ~test:trace ()

let bench_workload ~program ~input ~scale ~repeat ~domains ~allocators =
  Printf.eprintf "lpbench: %s-%s (scale %g)\n%!" program input scale;
  let gen_seconds, trace =
    time (fun () -> Lp_workloads.Registry.trace ~scale ~program ~input ())
  in
  let events = Array.length trace.events in
  (* realloc-bearing traces only exist in the v3 layout; everything else
     stays on the v2 writer the committed baselines were measured with *)
  let encode_seconds, encoded =
    time (fun () ->
        if Lp_trace.Trace.has_realloc trace then Lp_trace.Binio.to_string_v3 trace
        else Lp_trace.Binio.to_string trace)
  in
  let load_seconds, loaded =
    best_of repeat (fun () -> Lp_trace.Binio.of_string ~name:(program ^ ".lpt") encoded)
  in
  (* replay the decoded trace: the measured path is the real pipeline *)
  let trace = loaded in
  let config = Lifetime.Config.default in
  let train_seconds, predictor =
    time (fun () ->
        let table = Lifetime.Train.collect ~config trace in
        Lifetime.Predictor.build ~config ~funcs:trace.funcs table)
  in
  let setup = { config; oracle = Lifetime.Oracle.static predictor; allocators } in
  (* sequential: same job set as the parallel fan-out, pinned to 1 domain;
     per-backend seconds come from the lp_obs replay spans *)
  let before = Lp_obs.Timings.stages () in
  let seq_seconds, seq_sim =
    best_of repeat (fun () ->
        Lifetime.Parallel.with_domains 1 (replay setup trace))
  in
  let seq_stages =
    stage_delta before (Lp_obs.Timings.stages ())
    |> List.filter (fun (s : Lp_obs.Timings.stage) ->
           String.length s.name > 7 && String.sub s.name 0 7 = "replay/")
  in
  let backend_rows =
    List.map
      (fun (s : Lp_obs.Timings.stage) ->
        (* [best_of] may have replayed each backend [repeat] times; the
           span table aggregates, so report the per-call mean *)
        let seconds = s.seconds /. float_of_int (max 1 s.calls) in
        let items = s.items / max 1 s.calls in
        Json.Obj
          [
            ("backend", str (String.sub s.name 7 (String.length s.name - 7)));
            ("seconds", num seconds);
            ("events_per_sec", num (rate items seconds));
          ])
      seq_stages
  in
  let jobs =
    List.fold_left
      (fun n (s : Lp_obs.Timings.stage) -> n + (s.calls / max 1 repeat))
      0 seq_stages
  in
  let par_seconds, _ =
    best_of repeat (fun () ->
        Lifetime.Parallel.with_domains domains (replay setup trace))
  in
  (* streamed: the same job set pinned to 1 domain, but each replay pulls
     events from a fresh incremental decoder over the encoded bytes — no
     event array exists; the top-heap delta it causes is the streaming
     memory claim, measurable here because everything above has already
     pushed the high-water mark to its materialized level *)
  let gc_before = Gc.quick_stat () in
  let streamed_seconds, _ =
    best_of repeat (fun () ->
        Lifetime.Parallel.with_domains 1 (fun () ->
            Lifetime.Simulate.run_streamed ~allocators:setup.allocators
              ~config:setup.config ~oracle:setup.oracle
              ~source:(fun () ->
                Lp_trace.Source.of_string ~name:(program ^ ".lpt") encoded)
              ()))
  in
  let streamed_peak_delta =
    (Gc.quick_stat ()).Gc.top_heap_words - gc_before.Gc.top_heap_words
  in
  (* online phase (schema v6): the profile-free oracle — one arena replay
     learning site lifetimes as it goes, at one domain; the mispredict
     counters come from the replay's own outcome classification *)
  let online_oracle = Lifetime.Oracle.online config in
  let online_seconds, online_m =
    best_of repeat (fun () ->
        Lifetime.Parallel.with_domains 1 (fun () ->
            Lifetime.Simulate.arena_with_cost ~config ~oracle:online_oracle
              ~test:trace ~predict_cost:Lp_allocsim.Cost_model.predict_len4))
  in
  (* sharded: the same trace in the seekable v3 layout, the training fold
     replayed over the chunk index — the one-trace data-parallel path *)
  let chunk_events = max 1 ((events + 7) / 8) in
  let encode_v3_seconds, encoded_v3 =
    time (fun () -> Lp_trace.Binio.to_string_v3 ~chunk_events trace)
  in
  let sh = Lp_trace.Sharded.of_string ~name:(program ^ "_v3.lpt") encoded_v3 in
  let shard_train domains =
    Lifetime.Shard.run ~domains
      ~analyses:[ Lifetime.Train.domain ~config () ]
      sh
  in
  (* level the GC field before each measurement: the fold allocates
     per-allocation arrays, so whichever phase runs second would
     otherwise pay the first's accumulated garbage *)
  Gc.full_major ();
  let shard_seq_seconds, _ = best_of repeat (fun () -> shard_train 1) in
  (* at one domain the "parallel" phase is literally the same call, and
     re-timing it only measures heap-state drift — reuse the number *)
  let shard_par_seconds =
    if domains <= 1 then shard_seq_seconds
    else begin
      Gc.full_major ();
      fst (best_of repeat (fun () -> shard_train domains))
    end
  in
  let shard_speedup =
    if shard_par_seconds > 0. then shard_seq_seconds /. shard_par_seconds else 0.
  in
  if
    domains >= 4
    && Domain.recommended_domain_count () >= 4
    && shard_speedup < 1.8
  then
    Printf.eprintf
      "lpbench: WARNING: sharded replay speedup %.2fx at %d domains (< 1.8x)\n%!"
      shard_speedup domains;
  (* realloc phase (schema v4): how each backend split the trace's
     resizes, read off the sequential replay already measured above *)
  let realloc_phase =
    if not (Lp_trace.Trace.has_realloc trace) then []
    else
      let n_reallocs =
        Array.fold_left
          (fun n e ->
            match e with Lp_trace.Event.Realloc _ -> n + 1 | _ -> n)
          0 trace.events
      in
      let rows =
        List.map
          (fun name ->
            let m = Lifetime.Simulate.metrics seq_sim name in
            Json.Obj
              [
                ("backend", str name);
                ("reallocs", int_ m.Lp_allocsim.Metrics.reallocs);
                ("in_place", int_ m.Lp_allocsim.Metrics.realloc_in_place);
                ("moves", int_ m.Lp_allocsim.Metrics.realloc_moves);
              ])
          (Lifetime.Simulate.names seq_sim)
      in
      [
        ( "realloc",
          Json.Obj [ ("events", int_ n_reallocs); ("backends", Json.List rows) ]
        );
      ]
  in
  (* tune phase (schema v5): the candidate engine's reason to exist.
     One fixed parameter sweep, two ways: every candidate replaying the
     shared prepared trace (decoded and validated once — the seq phase
     above already memoized the validation) versus the naive baseline
     that decodes the encoded bytes and re-validates per candidate.  Same
     specs, same backends, 1 domain, so the ratio isolates the engine. *)
  let sweep_specs =
    [
      "first-fit"; "best-fit"; "bsd"; "segfit"; "arena";
      "first-fit:sbrk=4096"; "first-fit:sbrk=32768"; "best-fit:sbrk=4096";
      "segfit:slab=16+64+256+1024";
      "segfit:slab=16+32+48+64+96+128+192+256+384+512+768+1024+1536+2048";
      "arena:n=8"; "arena:n=32"; "arena:chunk=2048"; "arena:chunk=8192";
      "arena:n=8:chunk=8192"; "arena:fallback=segfit";
    ]
  in
  let backend_of_spec s =
    match Lp_allocsim.Registry.backend_of_spec s with
    | Ok b -> b
    | Error msg -> failwith ("lpbench: " ^ msg)
  in
  let sweep_backends = List.map backend_of_spec sweep_specs in
  Gc.full_major ();
  let prepared_seconds, _ =
    best_of repeat (fun () ->
        let prepared = Lp_allocsim.Driver.prepare trace in
        Lifetime.Parallel.with_domains 1 (fun () ->
            List.iter
              (fun b -> ignore (Lp_allocsim.Driver.run_prepared prepared b))
              sweep_backends))
  in
  Gc.full_major ();
  let decode_per_candidate_seconds, _ =
    best_of repeat (fun () ->
        Lifetime.Parallel.with_domains 1 (fun () ->
            List.iter
              (fun s ->
                (* a fresh decode per candidate also defeats the
                   validation memo: every replay pays the full
                   pre-engine path *)
                let t = Lp_trace.Binio.of_string ~name:(program ^ ".lpt") encoded in
                ignore (Lp_allocsim.Driver.run t (backend_of_spec s)))
              sweep_specs))
  in
  let sweep_speedup =
    if prepared_seconds > 0. then decode_per_candidate_seconds /. prepared_seconds
    else 0.
  in
  if sweep_speedup < 3.0 then
    Printf.eprintf
      "lpbench: WARNING: candidate-sweep speedup %.2fx vs decode-per-candidate \
       (< 3x)\n\
       %!"
      sweep_speedup;
  let search_seconds, tune_outcome =
    time (fun () ->
        Lifetime.Tune.search
          ~options:
            { Lifetime.Tune.seed = 42; generations = 1; population = 8; max_candidates = 64 }
          ~workload:program ~train:trace ~test:trace ())
  in
  let tune_candidates = List.length tune_outcome.Lifetime.Tune.results in
  let tune_phase =
    Json.Obj
      [
        ("sweep_specs", int_ (List.length sweep_specs));
        ("prepared_seconds", num prepared_seconds);
        ("decode_per_candidate_seconds", num decode_per_candidate_seconds);
        ("speedup_vs_decode_per_candidate", num sweep_speedup);
        ( "events_per_sec",
          num (rate (events * List.length sweep_specs) prepared_seconds) );
        ("candidates", int_ tune_candidates);
        ("search_seconds", num search_seconds);
        ("candidates_per_sec", num (rate tune_candidates search_seconds));
        ("pareto_size", int_ (List.length tune_outcome.Lifetime.Tune.pareto));
      ]
  in
  let gc = Gc.quick_stat () in
  ( events,
    Json.Obj
      ([
        ("name", str program);
        ("input", str input);
        ("events", int_ events);
        ("objects", int_ trace.n_objects);
        ("encoded_bytes", int_ (String.length encoded));
        ("generate", Json.Obj [ ("seconds", num gen_seconds) ]);
        ("encode", Json.Obj [ ("seconds", num encode_seconds) ]);
        ( "load",
          Json.Obj
            [
              ("seconds", num load_seconds);
              ("events_per_sec", num (rate events load_seconds));
            ] );
        ("train", Json.Obj [ ("seconds", num train_seconds) ]);
        ( "sequential",
          Json.Obj
            [
              ("jobs", int_ jobs);
              ("wall_seconds", num seq_seconds);
              ("events_per_sec", num (rate (events * jobs) seq_seconds));
              ("backends", Json.List backend_rows);
            ] );
        ( "parallel",
          Json.Obj
            [
              ("domains", int_ domains);
              ("jobs", int_ jobs);
              ("wall_seconds", num par_seconds);
              ("events_per_sec", num (rate (events * jobs) par_seconds));
              ( "speedup_vs_sequential",
                num (if par_seconds > 0. then seq_seconds /. par_seconds else 0.) );
            ] );
        ( "streamed",
          Json.Obj
            [
              ("jobs", int_ jobs);
              ("wall_seconds", num streamed_seconds);
              ("events_per_sec", num (rate (events * jobs) streamed_seconds));
              ("peak_words_delta", int_ streamed_peak_delta);
            ] );
        ( "online",
          Json.Obj
            [
              ("seconds", num online_seconds);
              ("events_per_sec", num (rate events online_seconds));
              ("predictions", int_ online_m.Lp_allocsim.Metrics.predictions);
              ( "mispredicts_short_lived",
                int_ online_m.Lp_allocsim.Metrics.mispredicts_short_lived );
              ( "mispredicts_long_lived",
                int_ online_m.Lp_allocsim.Metrics.mispredicts_long_lived );
            ] );
        ( "sharded",
          Json.Obj
            [
              ("chunk_events", int_ chunk_events);
              ("chunks", int_ (Lp_trace.Sharded.n_chunks sh));
              ("encoded_v3_bytes", int_ (String.length encoded_v3));
              ("encode_v3_seconds", num encode_v3_seconds);
              ("domains", int_ domains);
              ("sequential_seconds", num shard_seq_seconds);
              ("parallel_seconds", num shard_par_seconds);
              ("events_per_sec", num (rate events shard_par_seconds));
              ("speedup_vs_sequential", num shard_speedup);
            ] );
        ("tune", tune_phase);
        ("top_heap_words", int_ gc.Gc.top_heap_words);
      ]
      @ realloc_phase) )

(* -- the whole run --------------------------------------------------------------- *)

let timings_json () =
  let stages =
    List.map
      (fun (s : Lp_obs.Timings.stage) ->
        Json.Obj
          [
            ("stage", str s.name);
            ("calls", int_ s.calls);
            ("seconds", num s.seconds);
            ("items", int_ s.items);
            ("items_per_sec", num (rate s.items s.seconds));
          ])
      (Lp_obs.Timings.stages ())
  in
  let counters =
    List.map (fun (k, v) -> (k, int_ v)) (Lp_obs.Timings.counters ())
  in
  (Json.List stages, Json.Obj counters)

let run_bench rev out workloads input scale repeat domains allocators =
  Lp_obs.Timings.set_enabled true;
  let allocators =
    match Lp_allocsim.Registry.specs_of_list allocators with
    | Ok specs -> specs
    | Error msg ->
        Printf.eprintf "lpbench: %s\n" msg;
        exit 2
  in
  List.iter
    (fun p ->
      if not (List.mem p Lp_workloads.Registry.names) then begin
        Printf.eprintf "lpbench: unknown workload %S (known: %s)\n" p
          (String.concat ", " Lp_workloads.Registry.names);
        exit 2
      end)
    workloads;
  let total_seconds, rows =
    time (fun () ->
        List.map
          (fun program ->
            bench_workload ~program ~input ~scale ~repeat ~domains ~allocators)
          workloads)
  in
  let total_events = List.fold_left (fun n (e, _) -> n + e) 0 rows in
  let stages, counters = timings_json () in
  let gc = Gc.quick_stat () in
  let doc =
    Json.Obj
      [
        ("schema_version", int_ schema_version);
        ("rev", str rev);
        ("ocaml", str Sys.ocaml_version);
        ("word_size", int_ Sys.word_size);
        ("input", str input);
        ("scale", num scale);
        ("repeat", int_ repeat);
        ("domains", int_ domains);
        ("allocators", Json.List (List.map str allocators));
        ("total_events", int_ total_events);
        ("total_seconds", num total_seconds);
        ("workloads", Json.List (List.map snd rows));
        ("timings", stages);
        ("counters", counters);
        ( "gc",
          Json.Obj
            [
              ("top_heap_words", int_ gc.Gc.top_heap_words);
              ("minor_words", num gc.Gc.minor_words);
              ("major_words", num gc.Gc.major_words);
            ] );
      ]
  in
  let path = match out with Some p -> p | None -> "BENCH_" ^ rev ^ ".json" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_pretty_string doc));
  Printf.printf "wrote %s (%d workloads, %d events)\n" path (List.length rows)
    total_events

(* -- schema validation (the CI smoke gate) --------------------------------------- *)

let validate_error = ref 0

let check what cond =
  if not cond then begin
    Printf.eprintf "lpbench --validate: missing or malformed %s\n" what;
    incr validate_error
  end

let require_num what j key =
  check (what ^ "." ^ key)
    (match Json.member key j with Some (Json.Number _) -> true | _ -> false)

let require_str what j key =
  check (what ^ "." ^ key)
    (match Json.member key j with Some (Json.String _) -> true | _ -> false)

let validate_file path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let j =
    try Json.of_string contents
    with Json.Parse_error msg ->
      Printf.eprintf "lpbench --validate: %s: not JSON: %s\n" path msg;
      exit 1
  in
  let version =
    match Json.member "schema_version" j with
    | Some (Json.Number v) -> int_of_float v
    | _ -> 0
  in
  (* v1 files (the committed pre-streaming baselines) stay valid; the
     streaming additions are only demanded from v2 files, the sharded
     phase from v3, the realloc phase from v4, the tune phase from v5,
     the online phase from v6 *)
  check "schema_version in {1, 2, 3, 4, 5, 6}"
    (version >= 1 && version <= 6);
  let saw_realloc_phase = ref false in
  List.iter (require_str "top" j) [ "rev"; "ocaml"; "input" ];
  List.iter (require_num "top" j)
    [ "scale"; "domains"; "total_events"; "total_seconds" ];
  (match Json.member "workloads" j with
  | Some (Json.List (_ :: _ as ws)) ->
      List.iter
        (fun w ->
          List.iter (require_str "workload" w) [ "name"; "input" ];
          List.iter (require_num "workload" w)
            [ "events"; "objects"; "encoded_bytes"; "top_heap_words" ];
          (match Json.member "load" w with
          | Some l -> List.iter (require_num "load" l) [ "seconds"; "events_per_sec" ]
          | None -> check "workload.load" false);
          (match Json.member "sequential" w with
          | Some s -> (
              List.iter (require_num "sequential" s)
                [ "jobs"; "wall_seconds"; "events_per_sec" ];
              match Json.member "backends" s with
              | Some (Json.List (_ :: _ as bs)) ->
                  List.iter
                    (fun b ->
                      require_str "backend" b "backend";
                      List.iter (require_num "backend" b)
                        [ "seconds"; "events_per_sec" ])
                    bs
              | _ -> check "sequential.backends (non-empty)" false)
          | None -> check "workload.sequential" false);
          (match Json.member "parallel" w with
          | Some p ->
              List.iter (require_num "parallel" p)
                [ "domains"; "wall_seconds"; "speedup_vs_sequential" ]
          | None -> check "workload.parallel" false);
          (if version >= 2 then
             match Json.member "streamed" w with
             | Some s ->
                 List.iter (require_num "streamed" s)
                   [ "jobs"; "wall_seconds"; "events_per_sec"; "peak_words_delta" ]
             | None -> check "workload.streamed" false);
          (if version >= 3 then
             match Json.member "sharded" w with
             | Some s ->
                 List.iter (require_num "sharded" s)
                   [
                     "chunk_events";
                     "chunks";
                     "sequential_seconds";
                     "parallel_seconds";
                     "speedup_vs_sequential";
                   ]
             | None -> check "workload.sharded" false);
          (if version >= 5 then
             match Json.member "tune" w with
             | Some t ->
                 List.iter (require_num "tune" t)
                   [
                     "sweep_specs";
                     "prepared_seconds";
                     "decode_per_candidate_seconds";
                     "speedup_vs_decode_per_candidate";
                     "candidates";
                     "candidates_per_sec";
                     "pareto_size";
                   ]
             | None -> check "workload.tune" false);
          (if version >= 6 then
             match Json.member "online" w with
             | Some o ->
                 List.iter (require_num "online" o)
                   [
                     "seconds";
                     "events_per_sec";
                     "predictions";
                     "mispredicts_short_lived";
                     "mispredicts_long_lived";
                   ]
             | None -> check "workload.online" false);
          (* the realloc phase is per-trace optional (realloc-free
             workloads omit it) but a v4 file must exhibit it somewhere *)
          match Json.member "realloc" w with
          | Some r -> (
              saw_realloc_phase := true;
              require_num "realloc" r "events";
              match Json.member "backends" r with
              | Some (Json.List (_ :: _ as bs)) ->
                  List.iter
                    (fun b ->
                      require_str "realloc backend" b "backend";
                      List.iter (require_num "realloc backend" b)
                        [ "reallocs"; "in_place"; "moves" ])
                    bs
              | _ -> check "realloc.backends (non-empty)" false)
          | None -> ())
        ws
  | _ -> check "workloads (non-empty list)" false);
  if version >= 4 && not !saw_realloc_phase then
    check "a realloc phase on at least one workload (v4)" false;
  (if version >= 2 then
     match Json.member "counters" j with
     | Some c ->
         List.iter (require_num "counters" c)
           [ "trace.events_streamed"; "trace.peak_resident_words" ]
     | None -> check "counters" false);
  (match Json.member "timings" j with
  | Some (Json.List _) -> ()
  | _ -> check "timings (list)" false);
  (match Json.member "gc" j with
  | Some g -> require_num "gc" g "top_heap_words"
  | None -> check "gc" false);
  if !validate_error > 0 then exit 1
  else Printf.printf "%s: valid lpbench schema v%d\n" path version

(* -- CLI ------------------------------------------------------------------------- *)

let () =
  (* before anything touches the domain pool: a malformed LPALLOC_DOMAINS
     is a usage error, not an excuse for a default *)
  (match Lifetime.Parallel.check_env () with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "lpbench: %s\n" msg;
      exit 2);
  let workloads_arg =
    Arg.(
      value
      & opt (list string) Lp_workloads.Registry.names
      & info [ "workloads" ] ~docv:"NAMES"
          ~doc:"Comma-separated workload programs to benchmark (default: all six).")
  in
  let input_arg =
    Arg.(
      value & opt string "test"
      & info [ "input" ] ~docv:"INPUT" ~doc:"Input set: tiny, train or test.")
  in
  let scale_arg =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"S" ~doc:"Scale factor for workload input sizes.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Repetitions per timed phase; the best (minimum) wall time is kept.")
  in
  let rev_arg =
    Arg.(
      value & opt string "dev"
      & info [ "rev" ] ~docv:"REV"
          ~doc:"Revision label: the output file is BENCH_$(docv).json.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the report here instead of BENCH_<rev>.json.")
  in
  let domains_arg =
    Arg.(
      value
      & opt int (Lifetime.Parallel.default_domains ())
      & info [ "domains" ] ~docv:"N"
          ~doc:"Domains for the parallel-replay phase (default: the Parallel pool size).")
  in
  (* split by [Registry.specs_of_list]: [Arg.list] drops empty elements *)
  let allocators_arg =
    Arg.(
      value
      & opt string (String.concat "," (Lp_allocsim.Registry.names ()))
      & info [ "allocators" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated registry backends to replay (default: every \
             registered backend); an empty one is a usage error (exit 2).")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate $(docv) against the BENCH JSON schema and exit (0 valid, \
             1 invalid); no benchmarks run.")
  in
  let main validate rev out workloads input scale repeat domains allocators =
    match validate with
    | Some path -> validate_file path
    | None -> run_bench rev out workloads input scale repeat domains allocators
  in
  let term =
    Term.(
      const main $ validate_arg $ rev_arg $ out_arg $ workloads_arg $ input_arg
      $ scale_arg $ repeat_arg $ domains_arg $ allocators_arg)
  in
  let info =
    Cmd.info "lpbench" ~version:"1.0.0"
      ~doc:
        "Benchmark the trace pipeline and allocator simulators; write \
         machine-readable BENCH_<rev>.json"
  in
  exit (Cmd.eval (Cmd.v info term))
