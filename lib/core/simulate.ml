(** Simulation glue: run a test trace through a set of registry allocators
    with a trained predictor, producing the measurements behind Tables 7,
    8 and 9.

    The replays are independent — each {!Lp_allocsim.Driver.run} owns its
    allocator state and only reads the trace and the predictor — so they
    execute concurrently on the {!Parallel} domain pool.
    [Parallel.with_domains 1] (or [LPALLOC_DOMAINS=1]) forces the
    sequential order, which produces bit-identical metrics: parallelism
    only changes scheduling, never results.

    Allocators are named {!Lp_allocsim.Registry} entries.  A backend that
    uses prediction (the arena allocator) expands into two jobs, one per
    prediction pricing: its own name with the fixed length-4 chain cost,
    and ["<name>-cce"] with the amortised call-chain-encryption cost
    (§5.1's two implementation strategies). *)

type t = { results : (string * Lp_allocsim.Metrics.t) list }

let default_allocators = [ "first-fit"; "bsd"; "arena" ]

let metrics t name =
  match List.assoc_opt name t.results with
  | Some m -> m
  | None ->
      failwith
        (Printf.sprintf "Simulate.metrics: no result named %S (have: %s)" name
           (String.concat ", " (List.map fst t.results)))

let names t = List.map fst t.results
let first_fit t = metrics t "first-fit"
let bsd t = metrics t "bsd"
let arena_len4 t = metrics t "arena"
let arena_cce t = metrics t "arena-cce"

let cce_cost_of ~calls ~allocs =
  Lp_allocsim.Cost_model.site_lookup
  + Lp_allocsim.Cost_model.cce_per_alloc ~calls ~allocs

let cce_cost (test : Lp_trace.Trace.t) =
  cce_cost_of ~calls:test.calls ~allocs:(Lp_trace.Trace.total_objects test)

let arena_with_cost ~config ~oracle ~(test : Lp_trace.Trace.t) ~predict_cost =
  (* the oracle instance is created here, inside the calling job, so each
     parallel replay owns private lookup (and any online) state *)
  let inst = Oracle.instance_for_trace oracle ~predict_cost test in
  Lp_allocsim.Driver.run
    ~predictor:(Oracle.driver_predictor inst)
    test
    (Lp_allocsim.Registry.backend
       ~arena_config:(Config.arena_config config)
       "arena")

(* Allocator names may carry parameters ([segfit:slab=16+64], see
   {!Lp_allocsim.Registry.backend_of_spec}); a parameterized job is keyed
   by its canonical spec so several variants of one backend can run in the
   same sweep without colliding. *)
let resolve_spec ~arena_config name =
  match Lp_allocsim.Registry.backend_of_spec ~arena_config name with
  | Error msg -> failwith msg
  | Ok backend ->
      let display =
        if Lp_allocsim.Registry.is_spec name then
          match Lp_allocsim.Registry.canonical_spec name with
          | Ok c -> c
          | Error msg -> failwith msg
        else Lp_allocsim.Backend.name backend
      in
      (backend, display)

(* The allocator -> job expansion of [run] and [run_streamed].  [wrap]
   interposes on every backend — the sanitizer's hook; a well-behaved
   wrapper keeps the name and delegates the metrics.  A predicting backend
   expands into two pricings of the same allocator, the length-4 chain
   cost under its own name and [cce] under ["<name>-cce"].  [job backend
   predict_cost] builds one replay job, with [None] for a backend that
   ignores prediction; the oracle instance must be built inside the job,
   so each replay owns private lookup (and any online) state. *)
let build_jobs ~allocators ~wrap ~config ~cce job =
  let arena_config = Config.arena_config config in
  List.concat_map
    (fun name ->
      let backend, display = resolve_spec ~arena_config name in
      let backend = wrap backend in
      if Lp_allocsim.Backend.uses_prediction backend then
        [
          (display, job backend (Some Lp_allocsim.Cost_model.predict_len4));
          (display ^ "-cce", job backend (Some cce));
        ]
      else [ (display, job backend None) ])
    allocators

let results jobs metrics =
  { results = List.map2 (fun (name, _) m -> (name, m)) jobs metrics }

let run ?(allocators = default_allocators) ?(wrap = fun b -> b)
    ~(config : Config.t) ~(oracle : Oracle.t) ~(test : Lp_trace.Trace.t) () : t
    =
  (* decode-once/replay-many: validate and memoize the trace a single
     time; every job below replays the prepared trace with pooled
     per-domain scratch *)
  let prepared = Lp_allocsim.Driver.prepare test in
  let jobs =
    build_jobs ~allocators ~wrap ~config ~cce:(cce_cost test)
      (fun backend predict_cost () ->
        (* a static oracle resets its domain's pooled memo instead of
           allocating one, an online oracle gets fresh learning state *)
        let predictor =
          Option.map
            (fun predict_cost ->
              Oracle.driver_predictor
                (Oracle.instance_for_trace ~pooled:true oracle ~predict_cost
                   test))
            predict_cost
        in
        Lp_allocsim.Driver.run_prepared ?predictor prepared backend)
  in
  results jobs (Parallel.all (List.map snd jobs))

(* The streaming twin of [run]: [source] opens a fresh single-shot stream,
   and each replay job opens its own on the domain that runs it
   ({!Parallel.map_sources}), so concurrent replays never share a cursor
   and per-domain memory is bounded by one stream.  Each job replays the
   identical event sequence through {!Lp_allocsim.Driver.run_source}, so
   the fan-out is byte-identical to sequential and to the materialized
   [run]. *)
let run_streamed ?(allocators = default_allocators) ?(wrap = fun b -> b)
    ?(decode_ahead = false) ~(config : Config.t) ~(oracle : Oracle.t)
    ~(source : unit -> Lp_trace.Source.t) () : t =
  (* The CCE pricing needs the stream's call and object totals before any
     replay: file-backed sources declare both up front, text and
     generator sources pay one probe drain. *)
  let calls, allocs =
    let probe = source () in
    match
      ( probe.Lp_trace.Source.counters_now (),
        probe.Lp_trace.Source.n_objects_hint )
    with
    | Some c, Some n -> (c.Lp_trace.Source.calls, n)
    | _ ->
        Lp_trace.Source.iter (fun _ -> ()) probe;
        let c = Lp_trace.Source.counters probe in
        (c.Lp_trace.Source.calls, Lp_trace.Source.n_objects probe)
  in
  let jobs =
    build_jobs ~allocators ~wrap ~config ~cce:(cce_cost_of ~calls ~allocs)
      (fun backend predict_cost src ->
        (* the oracle instance is built over the job's own source *)
        let predictor =
          Option.map
            (fun predict_cost ->
              Oracle.driver_predictor
                (Oracle.instance_for_source oracle ~predict_cost src))
            predict_cost
        in
        Lp_allocsim.Driver.run_source ~decode_ahead ?predictor src backend)
  in
  results jobs (Parallel.map_sources source (List.map snd jobs))
