(* The sharded (.lpt v3) trace layout and its satellites: v2 -> v3 -> v2
   byte-identity, seek/sub window determinism, random covering-partition
   merges reproducing every sequential fold (stats, lifetimes, training,
   lint), the Shard orchestrators across domain counts, the corrupt
   corpus linted range-parallel, and the codec/capacity/GC regression
   tests for the bugs fixed alongside. *)

module Rt = Lp_ialloc.Runtime
module B = Lp_trace.Binio
module Source = Lp_trace.Source
module Sharded = Lp_trace.Sharded
module D = Lp_analysis.Diagnostic
module Absint = Lp_trace.Absint

let events src = List.rev (Source.fold (fun acc e -> e :: acc) [] src)

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let rec take n l =
  if n <= 0 then [] else match l with [] -> [] | h :: t -> h :: take (n - 1) t

(* -- wire codec satellites: zigzag/varint over the full int range ------------------- *)

let wire_corner_cases =
  [ min_int; min_int + 1; -129; -128; -2; -1; 0; 1; 2; 63; 64; 127; 128;
    0x3FFF; 0x4000; max_int - 1; max_int ]

let wire_explicit () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "unzigzag (zigzag %d)" n)
        n
        (B.Wire.unzigzag (B.Wire.zigzag n));
      Alcotest.(check int)
        (Printf.sprintf "zigzag wire %d" n)
        n
        (B.Wire.zigzag_of_string (B.Wire.zigzag_to_string n));
      Alcotest.(check int)
        (Printf.sprintf "varint_bits wire %d" n)
        n
        (B.Wire.varint_bits_of_string (B.Wire.varint_bits_to_string n));
      if n >= 0 then
        Alcotest.(check int)
          (Printf.sprintf "varint wire %d" n)
          n
          (B.Wire.varint_of_string (B.Wire.varint_to_string n)))
    wire_corner_cases;
  (* small magnitudes get small codes — the property the deltas rely on *)
  Alcotest.(check int) "zigzag 0" 0 (B.Wire.zigzag 0);
  Alcotest.(check int) "zigzag -1" 1 (B.Wire.zigzag (-1));
  Alcotest.(check int) "zigzag 1" 2 (B.Wire.zigzag 1);
  Alcotest.(check int) "zigzag -2" 3 (B.Wire.zigzag (-2))

(* a generator that actually reaches the top bits, unlike Gen.int *)
let any_int =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]);
          ( 6,
            map2
              (fun hi lo -> (hi lsl 31) lxor lo)
              (int_range (-(1 lsl 31)) ((1 lsl 31) - 1))
              (int_range 0 ((1 lsl 31) - 1)) );
        ])

let wire_roundtrip_prop =
  QCheck.Test.make ~count:500
    ~name:"wire codecs round-trip the full native int range" any_int
    (fun n ->
      B.Wire.unzigzag (B.Wire.zigzag n) = n
      && B.Wire.zigzag_of_string (B.Wire.zigzag_to_string n) = n
      && B.Wire.varint_bits_of_string (B.Wire.varint_bits_to_string n) = n
      && (n < 0 || B.Wire.varint_of_string (B.Wire.varint_to_string n) = n))

let expect_failure name sub f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" name
  | exception Failure m ->
      if
        not
          (String.length m >= String.length sub
          && (let found = ref false in
              for i = 0 to String.length m - String.length sub do
                if String.sub m i (String.length sub) = sub then found := true
              done;
              !found))
      then Alcotest.failf "%s: %S does not mention %S" name m sub

let wire_rejections () =
  (match B.Wire.varint_to_string (-1) with
  | _ -> Alcotest.fail "encoding -1 as unsigned varint should be rejected"
  | exception Invalid_argument _ -> ());
  expect_failure "negative bit pattern into unsigned decode" "unsigned"
    (fun () -> B.Wire.varint_of_string (B.Wire.varint_bits_to_string (-1)));
  expect_failure "overlong varint" "too long" (fun () ->
      B.Wire.varint_bits_of_string (String.make 10 '\xff'));
  expect_failure "trailing bytes" "trailing bytes" (fun () ->
      B.Wire.varint_of_string "\x05\x00");
  expect_failure "truncated varint" "unexpected end" (fun () ->
      B.Wire.varint_of_string "\xff")

(* -- satellite: Grow.ensure clamps at Sys.max_array_length -------------------------- *)

let grow_capacity_overflow () =
  let g = Lp_trace.Grow.create 4 in
  Lp_trace.Grow.set g 2 7;
  Alcotest.(check int) "set/get" 7 (Lp_trace.Grow.get g 2);
  let oob n =
    Alcotest.check_raises
      (Printf.sprintf "ensure %d" n)
      (Failure
         (Printf.sprintf
            "Grow.ensure: requested length %d exceeds Sys.max_array_length (%d)"
            n Sys.max_array_length))
      (fun () -> Lp_trace.Grow.ensure g n)
  in
  oob (Sys.max_array_length + 1);
  oob max_int;
  (* the huge requests must not have disturbed the array *)
  Alcotest.(check int) "contents survive the rejection" 7 (Lp_trace.Grow.get g 2);
  Lp_trace.Grow.ensure g 64;
  Alcotest.(check int) "normal growth still works" 7 (Lp_trace.Grow.get g 2)

(* An index outside [0, Sys.max_array_length) is refused before it
   touches the storage: [set] at [max_int] used to compute the length
   [max_int + 1], which wraps negative, skip the growth and write the
   array's header word; a negative index read or wrote before the data. *)
let grow_refuses_out_of_range_indices () =
  let g = Lp_trace.Grow.create ~default:(-1) 4 in
  Lp_trace.Grow.set g 0 10;
  Lp_trace.Grow.set g 3 13;
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "set max_int" (fun () -> Lp_trace.Grow.set g max_int 1);
  refused "set -1" (fun () -> Lp_trace.Grow.set g (-1) 1);
  refused "set max_array_length" (fun () ->
      Lp_trace.Grow.set g Sys.max_array_length 1);
  refused "get -1" (fun () -> ignore (Lp_trace.Grow.get g (-1)));
  refused "get min_int" (fun () -> ignore (Lp_trace.Grow.get g min_int));
  refused "widen max_int" (fun () ->
      ignore (Lp_trace.Grow.widen [||] ~default:0 max_int));
  refused "widen_bytes -1" (fun () ->
      ignore (Lp_trace.Grow.widen_bytes Bytes.empty (-1)));
  (* the table is intact: same length, same contents *)
  Alcotest.(check int) "length" 4 (Lp_trace.Grow.length g);
  Alcotest.(check (array int)) "contents" [| 10; -1; -1; 13 |]
    (Array.init 4 (Lp_trace.Grow.get g));
  Alcotest.(check int) "beyond the length reads the default" (-1)
    (Lp_trace.Grow.get g (Sys.max_array_length - 1));
  Lp_trace.Grow.push g 14;
  Alcotest.(check int) "push still appends" 14 (Lp_trace.Grow.get g 4)

(* -- satellite: no stop-the-world full major per job in parallel fan-out ------------ *)

let map_sources_gc_behavior () =
  let trace =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |])
      Test_stream.random_trace_gen
  in
  let make () = Source.of_trace trace in
  let job src = Source.fold (fun n _ -> n + 1) 0 src in
  let jobs = List.init 8 (fun _ -> job) in
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  (* sequential path: one forced full major per job keeps the high-water
     mark one-job-sized *)
  let before = majors () in
  ignore (Lifetime.Parallel.map_sources ~domains:1 make jobs);
  let seq_delta = majors () - before in
  if seq_delta < List.length jobs then
    Alcotest.failf
      "sequential map_sources ran %d major cycles for %d jobs (expected one per job)"
      seq_delta (List.length jobs);
  (* parallel path: a full major per job is a stop-the-world barrier that
     serializes the pool, so it must not happen *)
  let before = majors () in
  ignore (Lifetime.Parallel.map_sources ~domains:2 make jobs);
  let par_delta = majors () - before in
  if par_delta >= List.length jobs then
    Alcotest.failf "parallel map_sources forced %d major cycles for %d jobs"
      par_delta (List.length jobs)

(* -- v3: golden round trip and sequential-decode equivalence ------------------------ *)

let chunked_gen =
  QCheck.Gen.(pair Test_stream.random_trace_gen (int_range 1 40))

let print_chunked (_, chunk_events) =
  Printf.sprintf "<trace> chunk_events=%d" chunk_events

let v3_roundtrip =
  QCheck.Test.make ~count:40 ~name:"v2 -> v3 -> v2 is byte-identical"
    (QCheck.make ~print:print_chunked chunked_gen)
    (fun (trace, chunk_events) ->
      let v2 = B.to_string trace in
      let v3 = B.to_string_v3 ~chunk_events trace in
      let back = B.to_string (B.of_string ~name:"rt.lpt" v3) in
      if back <> v2 then
        QCheck.Test.fail_reportf "v2->v3->v2 differs (chunk_events=%d)"
          chunk_events;
      let expect = events (Source.of_trace trace) in
      (* the streaming decoder walks v3 chunk by chunk *)
      if events (Source.of_string ~name:"rt.lpt" v3) <> expect then
        QCheck.Test.fail_reportf "sequential v3 decode differs";
      (* the seekable index yields the same stream *)
      let ix = B.index ~name:"rt.lpt" (B.big_of_string v3) in
      let src = Source.of_indexed ix in
      if events src <> expect then
        QCheck.Test.fail_reportf "indexed v3 decode differs";
      let c = Source.counters src in
      c.Source.instructions = trace.Lp_trace.Trace.instructions
      && c.Source.calls = trace.Lp_trace.Trace.calls
      && c.Source.heap_refs = trace.Lp_trace.Trace.heap_refs
      && c.Source.total_refs = trace.Lp_trace.Trace.total_refs
      && Source.n_objects src = trace.Lp_trace.Trace.n_objects)

(* -- v3: seek and sub are deterministic windows ------------------------------------- *)

let seek_gen =
  QCheck.Gen.(
    triple Test_stream.random_trace_gen (int_range 1 16) (int_range 0 9999))

let seek_sub_determinism =
  QCheck.Test.make ~count:40
    ~name:"Source.seek/sub windows equal slices of the full stream"
    (QCheck.make seek_gen)
    (fun (trace, chunk_events, salt) ->
      let v3 = B.to_string_v3 ~chunk_events trace in
      let ix = B.index ~name:"rt.lpt" (B.big_of_string v3) in
      let all = events (Source.of_indexed ix) in
      let n = List.length all in
      let pos = if n = 0 then 0 else salt mod (n + 1) in
      let first = pos in
      let count = if n = first then 0 else salt * 7 mod (n - first + 1) in
      List.iter
        (fun (kind, fresh) ->
          (* seek forward from the start *)
          let s = fresh () in
          Source.seek s pos;
          if events s <> drop pos all then
            QCheck.Test.fail_reportf "%s: seek %d differs" kind pos;
          (* seek back after a partial drain *)
          let s = fresh () in
          let half = n / 2 in
          for _ = 1 to half do
            ignore (Source.next s)
          done;
          Source.seek s pos;
          if events s <> drop pos all then
            QCheck.Test.fail_reportf "%s: rewind to %d differs" kind pos;
          (* sub yields exactly the requested window *)
          let w = Source.sub (fresh ()) ~first ~count in
          if events w <> take count (drop first all) then
            QCheck.Test.fail_reportf "%s: sub %d+%d differs" kind first count;
          (* and a sub of the sub nests *)
          let inner = min count 3 in
          let w2 = Source.sub (fresh ()) ~first ~count in
          let w2 = Source.sub w2 ~first:0 ~count:inner in
          if events w2 <> take inner (take count (drop first all)) then
            QCheck.Test.fail_reportf "%s: nested sub differs" kind)
        [
          ("indexed", fun () -> Source.of_indexed ix);
          ("of_trace", fun () -> Source.of_trace trace);
        ];
      true)

(* -- v3: random covering partitions merge to every sequential fold ------------------ *)

let summary_fingerprint (s : Lp_trace.Lifetimes.summary) =
  let count = Lp_quantile.Histogram.count s.Lp_trace.Lifetimes.hist in
  let quart =
    if count = 0 then None
    else Some (Lp_quantile.Histogram.quartiles s.Lp_trace.Lifetimes.hist)
  in
  ( count,
    quart,
    s.Lp_trace.Lifetimes.short_bytes,
    s.Lp_trace.Lifetimes.total_alloc_bytes )

let model_string_of_streamed ~config ~program ~funcs
    (st : Lifetime.Train.streamed) =
  let predictor =
    Lifetime.Predictor.build ~config ~funcs st.Lifetime.Train.table
  in
  Lifetime.Model.to_string
    (Lifetime.Model.of_training_parts ~config ~program ~funcs
       ~clock:st.Lifetime.Train.end_clock st.Lifetime.Train.table predictor)

(* split [n_chunks] into a covering partition of contiguous ranges,
   consuming widths from [cuts] (1-4 chunks each, remainder in one tail
   range once the list runs out) *)
let partition_of sh cuts =
  let n = Sharded.n_chunks sh in
  let rec go first acc cuts =
    if first >= n then List.rev acc
    else
      let count, rest =
        match cuts with c :: rest -> (min c (n - first), rest) | [] -> (n - first, [])
      in
      go (first + count) (Sharded.range sh ~first ~count :: acc) rest
  in
  go 0 [] cuts

(* one domain's merged token over a covering partition: the engine on
   each range, the domain's merge in range order *)
let merged_over d ranges =
  List.hd
    (Absint.merge_ranges ~analyses:[ d ]
       (List.map (Absint.run_range ~analyses:[ d ]) ranges))

(* one domain through the sharded fan-out *)
let shard_run ?domains d sh = List.hd (Lifetime.Shard.run ?domains ~analyses:[ d ] sh)

let partition_gen =
  QCheck.Gen.(
    triple Test_stream.random_trace_gen (int_range 1 12)
      (list_size (int_range 0 8) (int_range 1 4)))

let realloc_partition_gen =
  QCheck.Gen.(
    triple Test_stream.random_realloc_trace_gen (int_range 1 12)
      (list_size (int_range 0 8) (int_range 1 4)))

(* The streamed pass and a random partition's merge both run the
   domain's step code, so each is checked against a reference that
   shares none of it: the materialized [Stats.compute], the frozen
   pre-fold lifetime summary, the frozen per-allocation trainer and the
   frozen pre-engine linter. *)
let check_partition (trace, chunk_events, cuts) =
      let config = Lifetime.Config.default in
      let threshold = 32 in
      let v3 = B.to_string_v3 ~chunk_events trace in
      let sh = Sharded.of_string ~name:"rt.lpt" v3 in
      let ranges = partition_of sh cuts in
      let n = List.length ranges in
      (* stats *)
      let st_expect = Lp_trace.Stats.compute trace in
      if Lp_trace.Stats.compute_source (Source.of_trace trace) <> st_expect then
        QCheck.Test.fail_reportf "streamed stats differ from Stats.compute";
      let st_got = Lp_trace.Stats.project (merged_over Lp_trace.Stats.domain ranges) in
      if st_got <> st_expect then
        QCheck.Test.fail_reportf "stats differ over %d ranges" n;
      (* lifetimes *)
      let lt_expect =
        summary_fingerprint
          (Lifetimes_reference.summary_source ~threshold (Source.of_trace trace))
      in
      if
        summary_fingerprint
          (Lp_trace.Lifetimes.summary_source ~threshold (Source.of_trace trace))
        <> lt_expect
      then
        QCheck.Test.fail_reportf
          "streamed lifetime summary differs from the reference";
      let lt_got =
        summary_fingerprint
          (Lp_trace.Lifetimes.project
             (merged_over (Lp_trace.Lifetimes.domain ~threshold) ranges))
      in
      if lt_got <> lt_expect then
        QCheck.Test.fail_reportf "lifetime summaries differ over %d ranges" n;
      (* training *)
      let tr_expect =
        model_string_of_streamed ~config ~program:trace.Lp_trace.Trace.program
          ~funcs:trace.Lp_trace.Trace.funcs
          {
            Lifetime.Train.table = Train_reference.collect ~config trace;
            end_clock = Lp_trace.Trace.total_bytes trace;
            n_objects = trace.Lp_trace.Trace.n_objects;
          }
      in
      let tr_seq =
        let src = Source.of_trace trace in
        let st = Lifetime.Train.collect_source ~config src in
        model_string_of_streamed ~config ~program:src.Source.program
          ~funcs:(src.Source.funcs ()) st
      in
      if tr_seq <> tr_expect then
        QCheck.Test.fail_reportf "streamed training differs from the reference";
      let tr_got =
        let st =
          Lifetime.Train.project
            (merged_over (Lifetime.Train.domain ~config ()) ranges)
        in
        model_string_of_streamed ~config
          ~program:(Sharded.header sh).B.program
          ~funcs:(B.indexed_funcs (Sharded.index sh))
          st
      in
      if tr_got <> tr_expect then
        QCheck.Test.fail_reportf "trained models differ over %d ranges" n;
      (* lint *)
      let li_expect =
        D.list_to_json (Lint_reference.run_source (Source.of_trace trace))
      in
      if
        D.list_to_json (Lp_analysis.Lint.run_source (Source.of_trace trace))
        <> li_expect
      then QCheck.Test.fail_reportf "streamed lint differs from the reference";
      let li_got =
        D.list_to_json
          (Lp_analysis.Lint.project
             (merged_over (Lp_analysis.Lint.domain ()) ranges))
      in
      if li_got <> li_expect then
        QCheck.Test.fail_reportf "lint diagnostics differ over %d ranges" n;
      true

let partition_fold_determinism =
  QCheck.Test.make ~count:25
    ~name:"random range partitions merge to the sequential folds"
    (QCheck.make partition_gen)
    check_partition

(* the same merge machinery over realloc-bearing traces: chunk
   boundaries can now fall between a resize and the object's free, so
   the carry-in size snapshots must report the post-resize size *)
let realloc_partition_fold_determinism =
  QCheck.Test.make ~count:25
    ~name:"realloc-bearing range partitions merge to the sequential folds"
    (QCheck.make realloc_partition_gen)
    check_partition

(* -- the lifetime fold against the frozen pre-fold summary ------------------------ *)

(* Traces the instrumented runtime never writes: object ids allocated
   out of order (an allocation names any id that is not live, skipping
   ahead or filling a gap) and ids reused after their free, mixed with
   resizes and touches.  Every free, resize and touch names a live
   object, so the v3 writer records carry-in state for them. *)
let raw_trace_gen =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (triple (int_range 0 9) (int_range 0 39) (int_range 1 300))
    >|= fun ops ->
    let funcs = Lp_callchain.Func.create_table () in
    let main = Lp_callchain.Func.intern funcs "main" in
    let live = Hashtbl.create 64 in
    let n_objects = ref 0 in
    let events =
      List.filter_map
        (fun (kind, id, size) ->
          let live_nth k =
            let objs =
              List.sort compare (Hashtbl.fold (fun o s acc -> (o, s) :: acc) live [])
            in
            List.nth objs (k mod List.length objs)
          in
          let alloc obj =
            Hashtbl.replace live obj size;
            n_objects := max !n_objects (obj + 1);
            Some
              (Lp_trace.Event.Alloc
                 { obj; size; chain = id mod 3; key = id mod 5; tag = -1 })
          in
          if kind <= 3 || Hashtbl.length live = 0 then
            if Hashtbl.mem live id then begin
              Hashtbl.remove live id;
              Some (Lp_trace.Event.Free { obj = id; size = -1 })
            end
            else alloc id
          else if kind = 9 then alloc !n_objects
          else
            let obj, old_size = live_nth id in
            match kind with
            | 4 | 5 ->
                Hashtbl.remove live obj;
                Some (Lp_trace.Event.Free { obj; size = -1 })
            | 6 | 7 ->
                Hashtbl.replace live obj size;
                Some
                  (Lp_trace.Event.Realloc
                     { obj; old_size; new_size = size; chain = 0; key = 1; tag = -1 })
            | _ -> Some (Lp_trace.Event.Touch { obj; count = 1 + (size mod 4) }))
        ops
    in
    {
      Lp_trace.Trace.program = "raw";
      input = "qcheck";
      events = Array.of_list events;
      chains = Array.init 3 (fun i -> Array.make (i + 1) main);
      funcs;
      n_objects = !n_objects;
      instructions = 0;
      calls = 0;
      heap_refs = 0;
      total_refs = 0;
      obj_refs = Array.make !n_objects 0;
      tags = [||];
    })

(* The streamed summary and the merge over a random covering partition of
   the v3 encoding must both equal the frozen pre-fold summary — the whole
   histogram state bit for bit, not just its quartiles.  Small chunks make
   later ranges free and resize objects their range carries in. *)
let lifetime_fold_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"lifetime summaries equal the frozen pre-fold summary"
    (QCheck.make
       QCheck.Gen.(
         quad
           (frequency
              [
                (1, Test_stream.random_trace_gen);
                (1, Test_stream.random_realloc_trace_gen);
                (2, raw_trace_gen);
              ])
           (int_range 1 400) (int_range 1 12)
           (list_size (int_range 0 8) (int_range 1 4))))
    (fun (trace, threshold, chunk_events, cuts) ->
      let expect =
        Lifetimes_reference.summary_source ~threshold (Source.of_trace trace)
      in
      let state s = Marshal.to_string s [ Marshal.No_sharing ] in
      let check what (got : Lp_trace.Lifetimes.summary) =
        if state got <> state expect then
          QCheck.Test.fail_reportf "%s summary differs from the reference" what;
        if summary_fingerprint got <> summary_fingerprint expect then
          QCheck.Test.fail_reportf "%s quartiles differ from the reference" what
      in
      check "streamed"
        (Lp_trace.Lifetimes.summary_source ~threshold (Source.of_trace trace));
      let sh =
        Sharded.of_string ~name:"raw.lpt" (B.to_string_v3 ~chunk_events trace)
      in
      let ranges = partition_of sh cuts in
      check
        (Printf.sprintf "merged (%d ranges)" (List.length ranges))
        (Lp_trace.Lifetimes.project
           (merged_over (Lp_trace.Lifetimes.domain ~threshold) ranges));
      true)

(* deterministic boundary case: with 2-event chunks, object 0's growing
   resize, shrinking resize, and size-declaring free each land in a
   different chunk, so every later range sees the object only through
   its carry-in snapshot.  A carry that recorded the birth size instead
   of the current size would mis-merge live bytes and make lint flag the
   (correct) declared sizes. *)
let realloc_carry_across_chunk_boundary () =
  let text =
    String.concat "\n"
      [
        "trace carry boundary";
        "func 0 main";
        "chain 0 0";
        "counters 0 0 0 0";
        "a 0 40 0 0 -1 0";
        "a 1 16 0 0 -1 0";
        "r 1 1";
        "g 0 40 104 0 0 -1";
        "r 1 1";
        "g 0 104 72 0 0 -1";
        "r 1 1";
        "f 0 72";
        "f 1";
        "end";
        "";
      ]
  in
  let trace = Lp_trace.Textio.of_string text in
  let v3 = B.to_string_v3 ~chunk_events:2 trace in
  let sh = Sharded.of_string ~name:"carry.lpt" v3 in
  Alcotest.(check bool) "enough chunks to split the lifetime" true
    (Sharded.n_chunks sh >= 4);
  (* decode round-trip preserves the realloc payloads exactly *)
  let back = B.of_string ~name:"carry.lpt" v3 in
  Alcotest.(check bool) "events round-trip" true (back.events = trace.events);
  (* per-chunk range folds, merged, equal the sequential results *)
  let ranges = partition_of sh (List.init (Sharded.n_chunks sh) (fun _ -> 1)) in
  let st_expect = Lp_trace.Stats.compute_source (Source.of_trace trace) in
  let st_got =
    Lp_trace.Stats.project (merged_over Lp_trace.Stats.domain ranges)
  in
  if st_got <> st_expect then Alcotest.fail "stats differ across the boundary";
  let diags =
    Lp_analysis.Lint.project (merged_over (Lp_analysis.Lint.domain ()) ranges)
  in
  Alcotest.(check bool) "range lint sees the declared sizes as correct" false
    (Lp_analysis.Diagnostic.has_errors diags);
  Alcotest.(check string) "range lint equals sequential lint"
    (D.list_to_json (Lp_analysis.Lint.run_source (Source.of_trace trace)))
    (D.list_to_json diags)

(* -- the Shard orchestrators across domain counts ----------------------------------- *)

let shard_orchestrators () =
  let config = Lifetime.Config.default in
  let threshold = 64 in
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  let sh =
    Sharded.of_string ~name:"perl.lpt" (B.to_string_v3 ~chunk_events:64 trace)
  in
  if Sharded.n_chunks sh < 3 then
    Alcotest.failf "expected several chunks, got %d" (Sharded.n_chunks sh);
  let st_expect = Lp_trace.Stats.compute_source (Source.of_trace trace) in
  let lt_expect =
    summary_fingerprint
      (Lp_trace.Lifetimes.summary_source ~threshold (Source.of_trace trace))
  in
  let tr_expect =
    let src = Source.of_trace trace in
    let st = Lifetime.Train.collect_source ~config src in
    model_string_of_streamed ~config ~program:src.Source.program
      ~funcs:(src.Source.funcs ()) st
  in
  let li_expect =
    D.list_to_json (Lp_analysis.Lint.run_source (Source.of_trace trace))
  in
  List.iter
    (fun domains ->
      let tag fmt = Printf.sprintf fmt domains in
      let check_tokens what = function
        | [ st; lt; tr; li ] ->
            if Lp_trace.Stats.project st <> st_expect then
              Alcotest.failf "stats differ at %d domains%s" domains what;
            Alcotest.(check bool)
              (tag "lifetimes @%d domains" ^ what)
              true
              (summary_fingerprint (Lp_trace.Lifetimes.project lt) = lt_expect);
            Alcotest.(check string)
              (tag "model @%d domains" ^ what)
              tr_expect
              (model_string_of_streamed ~config
                 ~program:(Sharded.header sh).B.program
                 ~funcs:(B.indexed_funcs (Sharded.index sh))
                 (Lifetime.Train.project tr));
            Alcotest.(check string)
              (tag "lint @%d domains" ^ what)
              li_expect
              (D.list_to_json (Lp_analysis.Lint.project li))
        | _ -> Alcotest.fail "one token per domain"
      in
      let analyses =
        [
          Lp_trace.Stats.domain;
          Lp_trace.Lifetimes.domain ~threshold;
          Lifetime.Train.domain ~config ();
          Lp_analysis.Lint.domain ();
        ]
      in
      (* each domain in its own pass, then all four in one *)
      check_tokens ""
        (List.map (fun d -> shard_run ~domains d sh) analyses);
      check_tokens " (one pass)" (Lifetime.Shard.run ~domains ~analyses sh))
    [ 1; 2; 3 ]

(* -- the empty trace: one empty chunk ----------------------------------------------- *)

let empty_trace_edge () =
  let trace = Rt.finish (Rt.create ~program:"empty" ~input:"none" ()) in
  Alcotest.(check int) "no events" 0 (Array.length trace.Lp_trace.Trace.events);
  let v3 = B.to_string_v3 ~chunk_events:8 trace in
  Alcotest.(check string) "v2 round trip"
    (B.to_string trace)
    (B.to_string (B.of_string ~name:"empty.lpt" v3));
  let sh = Sharded.of_string ~name:"empty.lpt" v3 in
  Alcotest.(check int) "one chunk" 1 (Sharded.n_chunks sh);
  Alcotest.(check int) "zero events" 0 (Sharded.n_events sh);
  Alcotest.(check (list pass)) "no events streamed" []
    (events (Sharded.source sh));
  let w = Source.sub (Sharded.source sh) ~first:0 ~count:0 in
  Alcotest.(check (list pass)) "empty sub" [] (events w);
  let st = Lp_trace.Stats.project (shard_run ~domains:2 Lp_trace.Stats.domain sh) in
  Alcotest.(check int) "no objects" 0 st.Lp_trace.Stats.total_objects;
  Alcotest.(check (list pass)) "no diagnostics" []
    (Lp_analysis.Lint.project
       (shard_run ~domains:2 (Lp_analysis.Lint.domain ()) sh))

(* -- the corrupt corpus, linted range-parallel -------------------------------------- *)

let lint_sharded_corpus_equivalence () =
  List.iter
    (fun file ->
      let path = "corrupt_traces/" ^ file in
      let trace = Lp_trace.Io.read_file path in
      let expect = D.list_to_json (Lp_analysis.Lint.run trace) in
      (* tiny chunks force the anomalies (double frees, touch-after-free,
         leaks) to straddle chunk boundaries *)
      let sh =
        Sharded.of_string ~name:path (B.to_string_v3 ~chunk_events:3 trace)
      in
      List.iter
        (fun domains ->
          let got =
            D.list_to_json
              (Lp_analysis.Lint.project
                 (shard_run ~domains (Lp_analysis.Lint.domain ()) sh))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s @%d domains" file domains)
            expect got)
        [ 1; 2 ])
    Test_stream.corpus_files

let suites =
  [
    ( "sharded",
      [
        QCheck_alcotest.to_alcotest v3_roundtrip;
        QCheck_alcotest.to_alcotest seek_sub_determinism;
        QCheck_alcotest.to_alcotest partition_fold_determinism;
        QCheck_alcotest.to_alcotest realloc_partition_fold_determinism;
        QCheck_alcotest.to_alcotest lifetime_fold_matches_reference;
        Alcotest.test_case "realloc carry across chunk boundary" `Quick
          realloc_carry_across_chunk_boundary;
        Alcotest.test_case "Shard orchestrators across domain counts" `Quick
          shard_orchestrators;
        Alcotest.test_case "empty trace is one empty chunk" `Quick
          empty_trace_edge;
        Alcotest.test_case "corrupt corpus lints range-parallel identically"
          `Quick lint_sharded_corpus_equivalence;
      ] );
    ( "sharded-satellites",
      [
        Alcotest.test_case "wire codec corner cases" `Quick wire_explicit;
        QCheck_alcotest.to_alcotest wire_roundtrip_prop;
        Alcotest.test_case "wire codec rejections" `Quick wire_rejections;
        Alcotest.test_case "Grow.ensure clamps at max_array_length" `Quick
          grow_capacity_overflow;
        Alcotest.test_case "Grow refuses out-of-range indices" `Quick
          grow_refuses_out_of_range_indices;
        Alcotest.test_case "map_sources full-major policy" `Quick
          map_sources_gc_behavior;
      ] );
  ]
