(* The decode-once/replay-many candidate engine and the `lpalloc tune`
   design-space search: golden seed-42 determinism (byte-identical JSON
   at 1 and 4 domains), the hoisted-validation regression (repeated
   replays of one trace validate once, metrics unchanged), the
   decode-once counters, the parameterized-spec parse/canonicalize
   contract, the qcheck default-spec equivalence property, and the drift
   tests pinning README's parameter grammar table and EXPERIMENTS'
   best-config table to the generators. *)

module Tune = Lifetime.Tune
module Registry = Lp_allocsim.Registry
module Spec = Lp_allocsim.Spec
module Driver = Lp_allocsim.Driver
module Metrics = Lp_allocsim.Metrics
module Timings = Lp_obs.Timings

let tiny program = Lp_workloads.Registry.trace ~scale:1.0 ~program ~input:"tiny" ()

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* -- golden determinism ---------------------------------------------------------- *)

(* one full search on the tiny corpus, rendered to the golden JSON
   artifact (no engine counters: those are the CLI's concern) *)
let tune_json ~domains ~seed =
  Lifetime.Parallel.with_domains domains (fun () ->
      let train = tiny "perl" and test = tiny "perl" in
      let options = { Tune.default_options with Tune.seed } in
      Lp_report.Json.to_pretty_string
        (Tune.json_of_outcome
           (Tune.search ~options ~workload:"perl-tiny" ~train ~test ())))

let golden_determinism () =
  let a = tune_json ~domains:1 ~seed:42 in
  let b = tune_json ~domains:1 ~seed:42 in
  Alcotest.(check string) "seed 42 twice is byte-identical" a b;
  let c = tune_json ~domains:4 ~seed:42 in
  Alcotest.(check string) "1 domain vs 4 domains byte-identical" a c;
  let d = tune_json ~domains:1 ~seed:43 in
  Alcotest.(check bool) "seed 43 yields a different search" true (a <> d)

(* the acceptance floor: the default search must evaluate >= 100
   candidates, and the Pareto front must be non-dominated and sorted *)
let search_shape () =
  let train = tiny "perl" and test = tiny "perl" in
  let o = Tune.search ~workload:"perl-tiny" ~train ~test () in
  Alcotest.(check bool)
    "at least 100 candidates" true
    (List.length o.Tune.results >= 100);
  Alcotest.(check bool) "non-empty Pareto front" true (o.Tune.pareto <> []);
  let rec check_front = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "instructions ascending" true
          (a.Tune.instructions <= b.Tune.instructions);
        Alcotest.(check bool) "heap strictly descending" true
          (a.Tune.max_heap > b.Tune.max_heap);
        check_front rest
    | _ -> ()
  in
  check_front o.Tune.pareto;
  (* every Pareto point must be undominated by every evaluated result *)
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "no evaluated result dominates a Pareto point"
            false
            (r.Tune.instructions < p.Tune.instructions
            && r.Tune.max_heap < p.Tune.max_heap))
        o.Tune.results)
    o.Tune.pareto;
  (* the four fixed reference points are all present *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " baseline present") true
        (List.mem_assoc name o.Tune.baselines))
    [ "first-fit"; "bsd"; "arena-len4"; "arena-cce" ]

(* -- hoisted validation ----------------------------------------------------------- *)

let with_counters f =
  Timings.reset ();
  Timings.set_enabled true;
  Fun.protect ~finally:(fun () -> Timings.set_enabled false) f

let counter name =
  match List.assoc_opt name (Timings.counters ()) with Some n -> n | None -> 0

(* a physically fresh trace record: the workload registry memoizes
   traces, and the driver's validation memo keys on physical identity —
   a cached trace may legitimately already be validated *)
let fresh (t : Lp_trace.Trace.t) =
  { t with Lp_trace.Trace.events = Array.copy t.Lp_trace.Trace.events }

let validation_hoisted () =
  let trace = fresh (tiny "gawk") in
  let backend = Registry.backend "first-fit" in
  with_counters (fun () ->
      (* three replays of the same trace — via run, run again, and an
         explicit prepare — must validate exactly once and agree *)
      let m1 = Driver.run trace backend in
      let m2 = Driver.run trace backend in
      let m3 = Driver.run_prepared (Driver.prepare trace) backend in
      Alcotest.(check string)
        "repeat replay metrics byte-identical" (Metrics.to_json m1)
        (Metrics.to_json m2);
      Alcotest.(check string)
        "prepared replay metrics byte-identical" (Metrics.to_json m1)
        (Metrics.to_json m3);
      Alcotest.(check int) "one validation for three replays" 1
        (counter "replay.validations"))

(* a corrupt trace must still fail with the same error, now at prepare *)
let prepare_rejects_corrupt () =
  let rt = Lp_ialloc.Runtime.create ~program:"bad" ~input:"x" () in
  let h = Lp_ialloc.Runtime.alloc rt ~size:16 in
  Lp_ialloc.Runtime.free rt h;
  let trace = Lp_ialloc.Runtime.finish rt in
  (* corrupt it: free the only object (id 0) a second time *)
  let events =
    Array.append trace.events [| Lp_trace.Event.Free { obj = 0; size = 16 } |]
  in
  let trace = { trace with Lp_trace.Trace.events } in
  match Driver.prepare trace with
  | _ -> Alcotest.fail "corrupt trace unexpectedly prepared"
  | exception Failure msg ->
      Alcotest.(check bool) "names the object" true (contains msg "object 0");
      Alcotest.(check bool) "names the event" true (contains msg "event")

let decode_once () =
  let trace = tiny "perl" in
  let encoded = Lp_trace.Binio.to_string trace in
  with_counters (fun () ->
      let t = Lp_trace.Io.of_string ~name:"sweep.lpt" encoded in
      let prepared = Driver.prepare t in
      (* a sweep of plain and parameterized candidates over one decode *)
      List.iter
        (fun spec ->
          match Registry.backend_of_spec spec with
          | Ok b -> ignore (Driver.run_prepared prepared b : Metrics.t)
          | Error msg -> Alcotest.fail msg)
        [
          "first-fit"; "best-fit"; "bsd"; "segfit"; "arena";
          "first-fit:sbrk=4096"; "segfit:slab=16+64+256+1024"; "arena:n=8";
          "arena:chunk=8192"; "arena:n=8:chunk=2048:fallback=segfit";
        ];
      Alcotest.(check int) "one decode for the whole sweep" 1
        (counter "trace.decodes");
      Alcotest.(check int) "one validation for the whole sweep" 1
        (counter "replay.validations"))

(* -- training and replay budget of one search ---------------------------------------- *)

let replays () =
  List.fold_left
    (fun n (st : Timings.stage) ->
      if String.starts_with ~prefix:"replay/" st.Timings.name then n + st.calls
      else n)
    0 (Timings.stages ())

(* One search profiles the train trace once, derives one table per
   distinct arena (threshold, depth), validates the test trace once, and
   replays each candidate once plus the CCE-priced baseline: the other
   three baselines are grid points it looks up. *)
let search_budget () =
  let train = fresh (tiny "perl") and test = fresh (tiny "perl") in
  with_counters (fun () ->
      let o = Tune.search ~workload:"perl-tiny" ~train ~test () in
      let arena_pairs =
        List.sort_uniq compare
          (List.filter_map
             (fun (r : Tune.result) ->
               if Tune.uses_prediction r.candidate then
                 Some (r.candidate.threshold, r.candidate.depth)
               else None)
             o.Tune.results)
      in
      Alcotest.(check int) "one training profile" 1 (counter "train.profiles");
      Alcotest.(check int) "one table per distinct arena (threshold, depth)"
        (List.length arena_pairs) (counter "train.tables");
      Alcotest.(check int) "one validation" 1 (counter "replay.validations");
      Alcotest.(check int) "one replay per candidate, plus arena-cce"
        (List.length o.Tune.results + 1)
        (replays ()))

(* a grid cut short by --max-candidates misses some baselines: those, and
   only those, are replayed — with the same results a full search reports *)
let capped_search_replays_missing_baselines () =
  let train = tiny "perl" and test = tiny "perl" in
  let full = Tune.search ~workload:"perl-tiny" ~train ~test () in
  with_counters (fun () ->
      let options = { Tune.default_options with Tune.max_candidates = 3 } in
      let o = Tune.search ~options ~workload:"perl-tiny" ~train ~test () in
      (* the grid opens first-fit, best-fit, bsd: arena-len4 is missing *)
      Alcotest.(check int) "three candidates" 3 (List.length o.Tune.results);
      Alcotest.(check int) "arena-len4 and arena-cce replayed on top" 5
        (replays ());
      Alcotest.(check string) "baselines equal the full search's"
        (Lp_report.Json.to_string
           (Tune.json_of_outcome { full with Tune.pareto = []; results = [] }))
        (Lp_report.Json.to_string
           (Tune.json_of_outcome { o with Tune.pareto = []; results = [] })))

(* -- the spec grammar ------------------------------------------------------------- *)

let spec_error spec =
  match Registry.backend_of_spec spec with
  | Error msg -> msg
  | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S unexpectedly parsed" spec)

let spec_errors () =
  let expect spec fragment =
    let msg = spec_error spec in
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s (got %S)" spec fragment msg)
      true (contains msg fragment)
  in
  expect "nosuch:sbrk=1" "unknown allocator backend";
  expect "bsd:sbrk=1" "takes no parameters";
  expect "first-fit:sbrk=0" "not a positive multiple of 8";
  expect "first-fit:sbrk=12" "not a positive multiple of 8";
  expect "first-fit:sbrk=many" "not an integer";
  expect "first-fit:sbrk" "expected key=value";
  expect "first-fit:slab=16" "unknown parameter";
  expect "segfit:slab=7" "not a multiple of 16";
  expect "segfit:slab=32+16" "not strictly ascending";
  expect "segfit:slab=16+8192" "outside [16, 4096]";
  expect "segfit:slab=" "not an integer";
  expect "arena:n=0" "outside [1, 4096]";
  expect "arena:chunk=63" "outside [64, 1048576]";
  expect "arena:fallback=arena" "must not be arena";
  expect "arena:fallback=nope" "unknown backend";
  expect "arena:n=8:n=8" "duplicate parameter";
  (* every error names the offending spec — the CLI's exit-2 message *)
  Alcotest.(check bool) "error cites the spec" true
    (contains (spec_error "segfit:slab=7") {|(in spec "segfit:slab=7")|});
  (* an --allocators list: an empty element is an empty spec *)
  List.iter
    (fun list ->
      match Registry.specs_of_list list with
      | Ok _ -> Alcotest.failf "list %S unexpectedly parsed" list
      | Error msg ->
          Alcotest.(check string) (Printf.sprintf "list %S" list)
            {|empty backend spec ""|} msg)
    [ ""; ","; "ff,,bsd"; "ff," ];
  Alcotest.(check (result (list string) string))
    "a list keeps its specs as given"
    (Ok [ "ff"; "seg:slab=16+32" ])
    (Registry.specs_of_list "ff,seg:slab=16+32")

let canonicalization () =
  let canon spec =
    match Registry.canonical_spec spec with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check string) "alias resolves" "segfit:slab=16+64"
    (canon "seg:slab=16+64");
  Alcotest.(check string) "defaults drop" "arena"
    (canon "arena:n=16:chunk=4096:fallback=first-fit");
  Alcotest.(check string) "default sbrk drops" "first-fit" (canon "ff:sbrk=8192");
  Alcotest.(check string) "params in grammar order" "arena:n=8:chunk=2048"
    (canon "arena:chunk=2048:n=8");
  Alcotest.(check string) "fallback alias canonicalizes" "arena:fallback=best-fit"
    (canon "arena:fallback=bf");
  Alcotest.(check string) "default slab drops" "segfit"
    (canon "segfit:slab=16+32+64+128+256+512+1024+2048");
  (* ladders print from their values, however they were written *)
  Alcotest.(check string) "ladder written with a zero and in hex" "segfit:slab=16+32"
    (canon "seg:slab=016+0x20");
  Alcotest.(check string) "canonical ladder is a fixed point" "segfit:slab=16+32"
    (canon "segfit:slab=16+32");
  Alcotest.(check string) "default ladder with an underscore drops" "segfit"
    (canon "segfit:slab=16+32+64+128+256+512+1024+2_048")

(* A simulation keys its results by canonical spec, so specs that
   canonicalize alike are one replay, reported once, in first-given
   order. *)
let equal_specs_replay_once () =
  let test = tiny "perl" in
  let config = Lifetime.Config.default in
  let replays = ref 0 in
  let counting b =
    let (module B : Lp_allocsim.Backend.BACKEND) = b in
    (module struct
      include B

      let create ?base () =
        incr replays;
        B.create ?base ()
    end : Lp_allocsim.Backend.BACKEND)
  in
  let sim =
    Lifetime.Parallel.with_domains 1 (fun () ->
        Lifetime.Simulate.run
          ~allocators:
            [
              "segfit";
              "seg";
              "arena:n=8";
              "ff";
              "arena:n=08";
              "segfit:slab=16+32+64+128+256+512+1024+2048";
            ]
          ~wrap:counting ~config ~oracle:(Lifetime.Oracle.online config) ~test
          ())
  in
  Alcotest.(check (list string)) "one result per canonical spec"
    [ "segfit"; "arena:n=8"; "arena:n=8-cce"; "first-fit" ]
    (Lifetime.Simulate.names sim);
  Alcotest.(check int) "one replay per result" 4 !replays

(* -- the grammar, generated from the parameter rows ---------------------------------- *)

(* Both spec families, each with its own entry point (which adds the
   oracle's promote-within-window rule). *)
let families =
  [
    (Registry.family, fun s -> Result.map ignore (Registry.backend_of_spec s));
    ( Lifetime.Oracle.family,
      fun s -> Result.map ignore (Lifetime.Oracle.spec_of_string s) );
  ]

type generated = {
  family : Spec.family;
  entry : string -> (unit, string) result;
  member : Spec.member;
  written_name : string;  (* the name or an alias *)
  params : (Spec.row * Spec.value * string) list;  (* value and how it is written *)
}

let written ?(segment = fun ((row : Spec.row), _, text) -> row.key ^ "=" ^ text) g =
  String.concat ":" (g.written_name :: List.map segment g.params)

let text_of = function
  | Spec.Int n -> string_of_int n
  | Ints cells -> String.concat "+" (List.map string_of_int (Array.to_list cells))
  | Name s -> s
  | Unset -> assert false

(* a valid value of [row], and one of several ways to write it *)
let value_gen (family : Spec.family) (member : Spec.member) (row : Spec.row) =
  let open QCheck.Gen in
  let write n =
    oneofl [ string_of_int n; "0" ^ string_of_int n; Printf.sprintf "0x%x" n ]
  in
  let int_in lo hi =
    let* n = int_range lo hi in
    let* text = write n in
    return (Spec.Int n, text)
  in
  match row.kind with
  | Bounded { lo; hi = Some hi; _ } -> int_in lo hi
  | Bounded { hi = None; multiple; _ } ->
      let m = Option.value multiple ~default:1 in
      let* k = int_range 1 4096 in
      let* text = write (k * m) in
      return (Spec.Int (k * m), text)
  | Optional { lo; _ } -> int_in lo (lo + 100_000)
  | Ladder { lo; hi; multiple; max_len } ->
      let* picks =
        list_size (int_range 1 (min max_len 12)) (int_range 0 ((hi - lo) / multiple))
      in
      let cells = List.map (fun i -> lo + (i * multiple)) (List.sort_uniq compare picks) in
      let* texts = flatten_l (List.map write cells) in
      return (Spec.Ints (Array.of_list cells), String.concat "+" texts)
  | Member ->
      let others =
        List.concat_map
          (fun (m : Spec.member) ->
            if m.name = member.name then []
            else List.map (fun w -> (m.name, w)) (m.name :: m.aliases))
          family.members
      in
      let* name, text = oneofl others in
      return (Spec.Name name, text)

let spec_gen =
  let open QCheck.Gen in
  let* family, entry = oneofl families in
  let* member = oneofl family.members in
  let* written_name = oneofl (member.name :: member.aliases) in
  let* rows = shuffle_l member.rows in
  let* k = int_range 0 (List.length rows) in
  let* params =
    flatten_l
      (List.map
         (fun row ->
           let* v, text = value_gen family member row in
           return (row, v, text))
         (List.filteri (fun i _ -> i < k) rows))
  in
  return { family; entry; member; written_name; params }

let arb_spec = QCheck.make ~print:(fun g -> written g) spec_gen

let spec_round_trip =
  QCheck.Test.make ~count:500
    ~name:"every spec generated from the rows parses, canonically and back" arb_spec
    (fun g ->
      let s = written g in
      let parse s =
        match Spec.parse g.family s with
        | Ok t -> t
        | Error msg -> QCheck.Test.fail_reportf "%S: %s" s msg
      in
      let t = parse s in
      (* the entry points take it too, but for the oracle's cross rule *)
      (match g.entry s with
      | Ok () -> ()
      | Error msg when contains msg "exceeds window" -> ()
      | Error msg -> QCheck.Test.fail_reportf "%S: %s" s msg);
      List.iter
        (fun (row : Spec.row) ->
          let want =
            match List.find_opt (fun (r, _, _) -> r == row) g.params with
            | Some (_, v, _) -> v
            | None -> row.default
          in
          if Spec.get t row.key <> want then
            QCheck.Test.fail_reportf "%S: parameter %s misread" s row.key)
        g.member.rows;
      let c = Spec.to_string t in
      let t' = parse c in
      if Spec.to_string t' <> c then QCheck.Test.fail_reportf "%S is not a fixed point" c;
      List.iter
        (fun (row : Spec.row) ->
          if Spec.get t' row.key <> Spec.get t row.key then
            QCheck.Test.fail_reportf "%S reads %s differently from %S" c row.key s)
        g.member.rows;
      let restated =
        String.concat ":"
          (g.written_name
          :: List.filter_map
               (fun (row : Spec.row) ->
                 if row.default = Unset then None
                 else Some (row.key ^ "=" ^ text_of row.default))
               g.member.rows)
      in
      Result.map Spec.to_string (Spec.parse g.family restated) = Ok g.member.name)

(* a value just outside [row]'s bounds *)
let out_of_bounds (member : Spec.member) (row : Spec.row) =
  match row.kind with
  | Bounded { hi = Some hi; _ } -> string_of_int (hi + 1)
  | Bounded { lo; hi = None; _ } | Optional { lo; _ } -> string_of_int (lo - 1)
  | Ladder { hi; multiple; _ } -> string_of_int (hi + multiple)
  | Member -> member.name

let spec_mutations =
  QCheck.Test.make ~count:500
    ~name:"mutated specs fail with a located error and never raise" arb_spec
    (fun g ->
      let drop_equals first ((row : Spec.row), _, text) =
        if row == first then row.key ^ text else row.key ^ "=" ^ text
      in
      let mutants =
        (written g ^ ":zz=1")
        :: (match g.params with
           | [] -> []
           | (first, _, _) :: _ -> [ written ~segment:(drop_equals first) g ])
        @ List.concat_map
            (fun (row : Spec.row) ->
              let others =
                { g with params = List.filter (fun (r, _, _) -> r != row) g.params }
              in
              [
                written g ^ ":" ^ row.key ^ "=1:" ^ row.key ^ "=1";
                written others ^ ":" ^ row.key ^ "=" ^ out_of_bounds g.member row;
              ])
            g.member.rows
      in
      List.for_all
        (fun m ->
          let suffix = Printf.sprintf "(in spec %S)" m in
          List.for_all
            (fun parse ->
              match parse m with
              | Ok () -> QCheck.Test.fail_reportf "%S parsed" m
              | Error msg ->
                  String.ends_with ~suffix msg
                  || QCheck.Test.fail_reportf "%S: %S lacks %s" m msg suffix)
            [ (fun s -> Result.map ignore (Spec.parse g.family s)); g.entry ])
        mutants)

(* -- default-parameter specs are byte-identical to the plain names ---------------- *)

let default_spec_pairs =
  [
    ("first-fit", "first-fit:sbrk=8192");
    ("best-fit", "best-fit:sbrk=8192");
    ("segfit", "segfit:slab=16+32+64+128+256+512+1024+2048");
    ("arena", "arena:n=16:chunk=4096:fallback=first-fit");
  ]

let default_spec_equivalence =
  QCheck.Test.make ~count:30
    ~name:"default-parameter specs equal their plain backends on every source"
    (QCheck.make Test_stream.random_trace_gen)
    (fun trace ->
      List.for_all
        (fun (name, spec) ->
          let backend_of s =
            match Registry.backend_of_spec s with
            | Ok b -> b
            | Error msg -> QCheck.Test.fail_report msg
          in
          let expect = Metrics.to_json (Driver.run trace (Registry.backend name)) in
          Metrics.to_json (Driver.run trace (backend_of spec)) = expect
          && List.for_all
               (fun (_, source) ->
                 Metrics.to_json (Driver.run_source (source ()) (backend_of spec))
                 = expect)
               (Test_stream.sources_of trace))
        default_spec_pairs)

let default_spec_equivalence_realloc =
  QCheck.Test.make ~count:15
    ~name:"default-parameter specs equal their plain backends under realloc"
    (QCheck.make Test_stream.random_realloc_trace_gen)
    (fun trace ->
      List.for_all
        (fun (name, spec) ->
          let backend =
            match Registry.backend_of_spec spec with
            | Ok b -> b
            | Error msg -> QCheck.Test.fail_report msg
          in
          Metrics.to_json (Driver.run trace backend)
          = Metrics.to_json (Driver.run trace (Registry.backend name)))
        default_spec_pairs)

(* -- drift tests ------------------------------------------------------------------ *)

(* README's tuning section embeds the generated parameter grammar table;
   adding or editing a parameter without regenerating it fails here *)
let readme_grammar_table () =
  let readme = In_channel.with_open_bin "../README.md" In_channel.input_all in
  Alcotest.(check bool)
    "README embeds the generated backend parameter grammar" true
    (contains readme (Registry.grammar_markdown ()))

(* EXPERIMENTS.md commits the tiny-corpus best-config table; it must
   regenerate byte-identically from the same seed (42) and corpus *)
let experiments_best_config_table () =
  let rows program =
    let train = tiny program and test = tiny program in
    Tune.markdown_rows
      (Tune.search ~workload:(program ^ "-tiny") ~train ~test ())
  in
  let table = Tune.markdown_header ^ rows "perl" ^ rows "pint" in
  let experiments =
    In_channel.with_open_bin "../EXPERIMENTS.md" In_channel.input_all
  in
  Alcotest.(check bool)
    "EXPERIMENTS embeds the regenerated best-config table" true
    (contains experiments table)

let suites =
  [
    ( "tune",
      [
        Alcotest.test_case "golden seed-42 determinism" `Slow golden_determinism;
        Alcotest.test_case "search shape and baselines" `Quick search_shape;
        Alcotest.test_case "validation hoisted out of replay" `Quick
          validation_hoisted;
        Alcotest.test_case "prepare rejects corrupt traces" `Quick
          prepare_rejects_corrupt;
        Alcotest.test_case "decode once, replay many" `Quick decode_once;
        Alcotest.test_case "one profile, one table per pair, one replay each"
          `Quick search_budget;
        Alcotest.test_case "capped search replays missing baselines" `Quick
          capped_search_replays_missing_baselines;
        Alcotest.test_case "spec parse errors" `Quick spec_errors;
        Alcotest.test_case "spec canonicalization" `Quick canonicalization;
        Alcotest.test_case "equal specs replay once" `Quick equal_specs_replay_once;
        Alcotest.test_case "README grammar table" `Quick readme_grammar_table;
        Alcotest.test_case "EXPERIMENTS best-config table" `Slow
          experiments_best_config_table;
        QCheck_alcotest.to_alcotest spec_round_trip;
        QCheck_alcotest.to_alcotest spec_mutations;
        QCheck_alcotest.to_alcotest default_spec_equivalence;
        QCheck_alcotest.to_alcotest default_spec_equivalence_realloc;
      ] );
  ]
