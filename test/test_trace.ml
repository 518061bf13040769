(* Tests for lp_trace and lp_ialloc: trace building, lifetimes in
   bytes-allocated time, max-live tracking, statistics, text round-trips,
   and the instrumented runtime's safety checks. *)

module Rt = Lp_ialloc.Runtime
module T = Lp_trace.Trace
module L = Lp_trace.Lifetimes

(* A tiny hand-built trace:
     alloc a (10 bytes), alloc b (20), free a, alloc c (30), free c, end.
   The clock counts an object's own bytes (the paper's Table 3 minima are
   the programs' smallest object sizes, so birth happens before the
   object's own size advances the clock):
     a born at 0, dies at clock 30 -> lifetime 30 (10 own + 20 for b);
     c born at 30, dies at 60 -> lifetime 30 (its own size);
     b born at 10, survives -> lifetime 60 - 10 = 50. *)
let tiny_trace () =
  let rt = Rt.create ~program:"test" ~input:"unit" () in
  let main = Rt.func rt "main" in
  let helper = Rt.func rt "helper" in
  Rt.enter rt main;
  let a = Rt.alloc rt ~size:10 in
  let b = Rt.in_frame rt helper (fun () -> Rt.alloc rt ~size:20) in
  Rt.free rt a;
  let c = Rt.alloc rt ~size:30 in
  Rt.free rt c;
  Rt.touch rt b 5;
  Rt.leave rt;
  Rt.finish rt

let lifetimes () =
  let trace = tiny_trace () in
  let lt = L.compute trace in
  Alcotest.(check int) "objects" 3 (T.total_objects trace);
  Alcotest.(check int) "total bytes" 60 (T.total_bytes trace);
  Alcotest.(check int) "end clock" 60 lt.end_clock;
  Alcotest.(check int) "a lifetime" 30 lt.lifetime.(0);
  Alcotest.(check int) "c lifetime" 30 lt.lifetime.(2);
  Alcotest.(check int) "b (survivor) lifetime" 50 lt.lifetime.(1);
  Alcotest.(check bool) "b survived" true lt.survived.(1);
  Alcotest.(check bool) "a did not survive" false lt.survived.(0)

let short_lived () =
  let trace = tiny_trace () in
  let lt = L.compute trace in
  Alcotest.(check bool) "a short at 31" true (L.is_short_lived lt ~threshold:31 0);
  Alcotest.(check bool) "a long at 30" false (L.is_short_lived lt ~threshold:30 0);
  Alcotest.(check bool) "survivor never short" false
    (L.is_short_lived lt ~threshold:1000 1)

let max_live () =
  let trace = tiny_trace () in
  let bytes, objs = L.max_live trace in
  (* live: a(10) -> a+b(30) -> b(20) -> b+c(50) -> b(20) *)
  Alcotest.(check int) "max bytes" 50 bytes;
  Alcotest.(check int) "max objects" 2 objs

let stats () =
  let trace = tiny_trace () in
  let s = Lp_trace.Stats.compute trace in
  Alcotest.(check string) "program" "test" s.program;
  Alcotest.(check int) "total objects" 3 s.total_objects;
  Alcotest.(check int) "calls" 2 s.calls;
  Alcotest.(check bool) "has heap refs" true (trace.heap_refs > 0)

let chains_recorded () =
  let trace = tiny_trace () in
  (* two distinct raw chains: [main] and [helper; main] *)
  Alcotest.(check int) "distinct chains" 2 (Array.length trace.chains);
  let found = ref false in
  T.iter_allocs trace (fun ~obj ~size:_ ~chain ~key:_ ~tag:_ ->
      if obj = 1 then begin
        let c = T.chain_of_alloc trace chain in
        let names = Lp_callchain.Chain.names trace.funcs c in
        Alcotest.(check (list string)) "b's chain" [ "helper"; "main" ] names;
        found := true
      end);
  Alcotest.(check bool) "saw b" true !found

let textio_roundtrip () =
  let trace = tiny_trace () in
  let s = Lp_trace.Textio.to_string trace in
  let trace' = Lp_trace.Textio.of_string s in
  Alcotest.(check string) "program" trace.program trace'.program;
  Alcotest.(check int) "objects" trace.n_objects trace'.n_objects;
  Alcotest.(check int) "events" (Array.length trace.events) (Array.length trace'.events);
  Alcotest.(check int) "heap refs" trace.heap_refs trace'.heap_refs;
  Alcotest.(check int) "total refs" trace.total_refs trace'.total_refs;
  Alcotest.(check int) "chains" (Array.length trace.chains) (Array.length trace'.chains);
  Alcotest.(check (array int)) "obj refs" trace.obj_refs trace'.obj_refs;
  (* a second round-trip is identical text *)
  Alcotest.(check string) "fixed point" s (Lp_trace.Textio.to_string trace')

let textio_rejects_garbage () =
  (match Lp_trace.Textio.of_string "nonsense line\nend\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  match Lp_trace.Textio.of_string "trace x y\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected missing-end Failure"

(* -- codecs: text escaping, binary round-trips, error context ------------------ *)

let check_trace_equal ?(msg = "") (a : T.t) (b : T.t) =
  let c what = msg ^ what in
  Alcotest.(check string) (c "program") a.program b.program;
  Alcotest.(check string) (c "input") a.input b.input;
  Alcotest.(check int) (c "events") (Array.length a.events) (Array.length b.events);
  Array.iteri
    (fun i ea ->
      if ea <> b.events.(i) then
        Alcotest.failf "%sevent %d differs: %a vs %a" msg i Lp_trace.Event.pp ea
          Lp_trace.Event.pp b.events.(i))
    a.events;
  Alcotest.(check (array (array int))) (c "chains") a.chains b.chains;
  Alcotest.(check (array string)) (c "funcs")
    (Lp_callchain.Func.names a.funcs)
    (Lp_callchain.Func.names b.funcs);
  Alcotest.(check (array string)) (c "tags") a.tags b.tags;
  Alcotest.(check int) (c "n_objects") a.n_objects b.n_objects;
  Alcotest.(check (array int)) (c "obj_refs") a.obj_refs b.obj_refs;
  Alcotest.(check int) (c "instructions") a.instructions b.instructions;
  Alcotest.(check int) (c "calls") a.calls b.calls;
  Alcotest.(check int) (c "heap refs") a.heap_refs b.heap_refs;
  Alcotest.(check int) (c "total refs") a.total_refs b.total_refs

(* names a space-separated line format chokes on unless escaped *)
let adversarial_trace () =
  let funcs = Lp_callchain.Func.create_table () in
  let f1 = Lp_callchain.Func.intern funcs "main entry point" in
  let f2 = Lp_callchain.Func.intern funcs "weird\\name\twith  spaces" in
  let f3 = Lp_callchain.Func.intern funcs " leading and trailing " in
  let b = T.Builder.create ~program:"prog with space" ~input:"input one" ~funcs () in
  let chain = T.Builder.intern_chain b [| f2; f1 |] in
  let chain' = T.Builder.intern_chain b [| f3 |] in
  let tag = T.Builder.intern_tag b "tag with space" in
  let o1 = T.Builder.alloc b ~tag ~size:16 ~chain ~key:123 () in
  let o2 = T.Builder.alloc b ~size:40 ~chain:chain' ~key:(-7) () in
  T.Builder.touch b ~obj:o1 3;
  T.Builder.free b ~obj:o1;
  T.Builder.free b ~obj:o2;
  T.Builder.finish b

let empty_trace () =
  let funcs = Lp_callchain.Func.create_table () in
  T.Builder.finish (T.Builder.create ~program:"empty" ~input:"none" ~funcs ())

let textio_escapes_names () =
  let trace = adversarial_trace () in
  let s = Lp_trace.Textio.to_string trace in
  let trace' = Lp_trace.Textio.of_string s in
  check_trace_equal ~msg:"text " trace trace';
  (* escaped output must re-parse to the same text *)
  Alcotest.(check string) "fixed point" s (Lp_trace.Textio.to_string trace')

let binio_roundtrip () =
  List.iter
    (fun make ->
      let trace = make () in
      let s = Lp_trace.Binio.to_string trace in
      let trace' = Lp_trace.Binio.of_string s in
      check_trace_equal ~msg:"binary " trace trace';
      Alcotest.(check string) "binary fixed point" s
        (Lp_trace.Binio.to_string trace'))
    [ tiny_trace; adversarial_trace; empty_trace ]

let binio_smaller_than_text () =
  let trace = tiny_trace () in
  Alcotest.(check bool) "binary smaller" true
    (String.length (Lp_trace.Binio.to_string trace)
    < String.length (Lp_trace.Textio.to_string trace))

let io_autodetects () =
  let trace = adversarial_trace () in
  let from_text = Lp_trace.Io.of_string (Lp_trace.Textio.to_string trace) in
  let from_bin = Lp_trace.Io.of_string (Lp_trace.Binio.to_string trace) in
  check_trace_equal ~msg:"io/text " trace from_text;
  check_trace_equal ~msg:"io/binary " trace from_bin

let expect_failure name ~substrings f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" name
  | exception Failure msg ->
      List.iter
        (fun sub ->
          let contains =
            let n = String.length msg and m = String.length sub in
            let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S in %S" name sub msg)
            true contains)
        substrings

let textio_reports_bad_ints () =
  (* a bare Failure "int_of_string" told you nothing; the error must name
     the source, the line and the field *)
  expect_failure "bad counters field"
    ~substrings:[ "t.trace"; ":2:"; "heap-refs"; "\"x\"" ] (fun () ->
      Lp_trace.Textio.of_string ~name:"t.trace" "trace p i\ncounters 1 2 x 4\nend\n");
  expect_failure "bad alloc size" ~substrings:[ ":2:"; "size" ] (fun () ->
      Lp_trace.Textio.of_string "trace p i\na 0 huge 0 0 -1 0\nend\n");
  expect_failure "bad free obj" ~substrings:[ ":1:"; "obj" ] (fun () ->
      Lp_trace.Textio.of_string "f nope\nend\n")

let textio_rejects_dangling_refs () =
  (* events must reference objects/chains/tags that exist, like Binio *)
  let base = "trace t i\nfunc 0 main\nchain 0 0\n" in
  expect_failure "free of never-allocated object"
    ~substrings:[ "event 1"; "free"; "object 1" ] (fun () ->
      Lp_trace.Textio.of_string (base ^ "a 0 16 0 5 -1 1\nf 1\nend\n"));
  expect_failure "touch of never-allocated object"
    ~substrings:[ "event 1"; "touch"; "object 3" ] (fun () ->
      Lp_trace.Textio.of_string (base ^ "a 0 16 0 5 -1 1\nr 3 2\nend\n"));
  expect_failure "unknown chain" ~substrings:[ "event 0"; "chain 9" ] (fun () ->
      Lp_trace.Textio.of_string (base ^ "a 0 16 9 5 -1 1\nend\n"));
  expect_failure "unknown tag" ~substrings:[ "event 0"; "tag 0" ] (fun () ->
      Lp_trace.Textio.of_string (base ^ "a 0 16 0 5 0 1\nend\n"));
  (* untagged allocations use tag -1 and are fine *)
  let t = Lp_trace.Textio.of_string (base ^ "a 0 16 0 5 -1 1\nf 0\nend\n") in
  Alcotest.(check int) "n_objects" 1 t.n_objects

let binio_rejects_corruption () =
  let s = Lp_trace.Binio.to_string (adversarial_trace ()) in
  expect_failure "truncated" ~substrings:[ "Binio.input" ] (fun () ->
      Lp_trace.Binio.of_string (String.sub s 0 (String.length s - 2)));
  expect_failure "trailing garbage" ~substrings:[ "trailing" ] (fun () ->
      Lp_trace.Binio.of_string (s ^ "x"));
  let bad_version = Bytes.of_string s in
  Bytes.set bad_version 4 '\xFF';
  expect_failure "bad version" ~substrings:[ "version" ] (fun () ->
      Lp_trace.Binio.of_string (Bytes.to_string bad_version))

(* -- the decoder's error table ------------------------------------------------- *)

(* Hand-built .lpt files, one per failure of the event decoder and of its
   string reader.  Every row pins the whole message — file name, byte
   offset and text — through the batch decoder and through a drained
   streaming source, which share the event reader.  [at k] is byte [k]
   of the event area. *)
let wire_varint = Lp_trace.Binio.Wire.varint_to_string
let wire_zigzag = Lp_trace.Binio.Wire.zigzag_to_string
let wire_string s = wire_varint (String.length s) ^ s
let wire_repeat n s = String.concat "" (List.init n (fun _ -> s))

(* v1/v2: one function "main", chain 0 = [main], no tags, [n_sites] sites
   all on chain 0 (key 0, untagged), zero counters and per-object refs *)
let v2_events_at ~version ~n_sites ~n_objects ~n_events =
  String.concat ""
    [
      "LPTB";
      String.make 1 (Char.chr version);
      wire_string "p";
      wire_string "i";
      wire_varint 1;
      wire_string "main";
      wire_varint 1;
      wire_varint 1;
      wire_varint 0;
      wire_varint 0;
      wire_varint n_sites;
      wire_repeat n_sites (wire_varint 0 ^ wire_zigzag 0 ^ wire_zigzag (-1));
      wire_varint 0;
      wire_varint 0;
      wire_varint 0;
      wire_varint 0;
      wire_varint n_objects;
      wire_repeat n_objects (wire_varint 0);
      wire_varint n_events;
    ]

(* v3: the same tables, declared by the single chunk's delta (one site) *)
let v3_events_at ~n_objects ~n_events =
  String.concat ""
    [
      "LPTB\x03";
      wire_string "p";
      wire_string "i";
      wire_repeat 4 (wire_varint 0);
      wire_varint n_objects;
      wire_repeat n_objects (wire_varint 0);
      wire_varint n_events;
      wire_varint 16;
      wire_varint 1;
      wire_varint 1;
      wire_string "main";
      wire_varint 1;
      wire_varint 1;
      wire_varint 0;
      wire_varint 0;
      wire_varint 1;
      wire_varint 0 ^ wire_zigzag 0 ^ wire_zigzag (-1);
      wire_varint 0;
      wire_varint n_events;
    ]

let decoder_error_rows () =
  let v2 ?(version = 2) ?(n_sites = 1) ?(n_objects = 1) ~n_events events =
    let head = v2_events_at ~version ~n_sites ~n_objects ~n_events in
    (head ^ events, fun k -> String.length head + k)
  in
  let v3 ?(n_objects = 1) ~n_events events =
    let head = v3_events_at ~n_objects ~n_events in
    (head ^ events, fun k -> String.length head + k)
  in
  let row name (bytes, at) k msg = (name, bytes, at k, msg) in
  [
    (* packed alloc: opcode 0x06 + site, so 0x07 names site 1 *)
    row "packed alloc, unknown site" (v2 ~n_events:1 "\x07") 1
      "alloc references unknown site 1";
    row "0x00 alloc, unknown site" (v2 ~n_events:1 "\x00\x03") 2
      "alloc references unknown site 3";
    row "0x01 alloc, unknown site" (v2 ~n_events:1 "\x01\x00\x03") 3
      "alloc references unknown site 3";
    (* alloc object 0 at site 0 (size 8), then realloc at site 2 *)
    row "realloc, unknown site" (v3 ~n_events:2 "\x06\x08\x04\x00\x02") 5
      "realloc references unknown site 2";
    row "alloc, out-of-range object"
      (v2 ~n_objects:2 ~n_events:1 "\x01\x05\x00") 3
      "alloc of out-of-range object 5";
    (* both wrong: the site is checked first *)
    row "alloc, unknown site and out-of-range object"
      (v2 ~n_events:1 "\x01\x05\x03") 3 "alloc references unknown site 3";
    row "realloc, unknown site and out-of-range object"
      (v3 ~n_events:2 "\x06\x08\x04\x0a\x02") 5
      "realloc references unknown site 2";
    (* packed free 0x40 lor zigzag 3 *)
    row "free, out-of-range object" (v2 ~n_events:1 "\x46") 1
      "free of out-of-range object 3";
    row "touch, out-of-range object" (v2 ~n_events:1 "\x03\x08\x01") 3
      "touch of out-of-range object 4";
    row "realloc, out-of-range object"
      (v3 ~n_events:2 "\x06\x08\x04\x0a\x00") 5
      "realloc of out-of-range object 5";
    row "version 1 packs allocs from 0x04"
      (v2 ~version:1 ~n_events:1 "\x05") 1 "alloc references unknown site 1";
    row "reserved opcode" (v2 ~n_events:1 "\x04") 1 "reserved opcode 0x4";
    row "truncated varint" (v2 ~n_events:1 "\x00\x80") 2
      "unexpected end of input";
    (let huge = wire_varint (max_int - 2) in
     row "string length near max_int"
       ("LPTB\x01" ^ huge, fun k -> k)
       (5 + String.length huge) "truncated string");
  ]

let decoder_error_table () =
  List.iter
    (fun (name, bytes, offset, msg) ->
      let expected =
        Printf.sprintf "Binio.input: bad.lpt: byte %d: %s" offset msg
      in
      let check path f =
        match f () with
        | () -> Alcotest.failf "%s (%s): decoded without error" name path
        | exception Failure got ->
            Alcotest.(check string) (name ^ " (" ^ path ^ ")") expected got
      in
      check "Binio.of_string" (fun () ->
          ignore (Lp_trace.Binio.of_string ~name:"bad.lpt" bytes));
      check "Source.iter" (fun () ->
          Lp_trace.Source.iter ignore
            (Lp_trace.Source.of_string ~name:"bad.lpt" bytes)))
    (decoder_error_rows ())

(* -- qcheck: random traces round-trip through both codecs ----------------------- *)

let gen_name =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; ' '; '\\'; '\t'; 's'; 'n' ])
      (int_range 1 10))

let gen_trace =
  QCheck.Gen.(
    let* n_funcs = int_range 1 4 in
    let* raw_names = list_repeat n_funcs gen_name in
    let* program = gen_name in
    let* tag_name = gen_name in
    let* ops = list_size (int_range 0 80) (pair (int_range 0 9) (int_range 1 200)) in
    return
      (let funcs = Lp_callchain.Func.create_table () in
       (* suffix to keep names distinct even when the generator repeats *)
       let ids =
         List.mapi
           (fun i n -> Lp_callchain.Func.intern funcs (Printf.sprintf "%s#%d" n i))
           raw_names
       in
       let b = T.Builder.create ~program ~input:"qcheck input" ~funcs () in
       let tag = T.Builder.intern_tag b tag_name in
       let chain =
         T.Builder.intern_chain b (Array.of_list ids)
       in
       let live = ref [] in
       List.iter
         (fun (op, size) ->
           match op with
           | 0 | 1 | 2 | 3 ->
               let tag = if op = 0 then tag else -1 in
               let obj = T.Builder.alloc b ~tag ~size ~chain ~key:(size * 7) () in
               live := obj :: !live
           | 4 | 5 | 6 -> (
               match !live with
               | obj :: rest ->
                   T.Builder.free b ~obj;
                   live := rest
               | [] -> ())
           | _ -> (
               match !live with
               | obj :: _ -> T.Builder.touch b ~obj (1 + (size mod 5))
               | [] -> ()))
         ops;
       T.Builder.finish b))

let arb_trace =
  QCheck.make gen_trace ~print:(fun t ->
      Printf.sprintf "trace %s: %d events, %d objects" t.T.program
        (Array.length t.events) t.n_objects)

let events_equal (a : T.t) (b : T.t) =
  a.program = b.program && a.input = b.input && a.events = b.events
  && a.chains = b.chains
  && Lp_callchain.Func.names a.funcs = Lp_callchain.Func.names b.funcs
  && a.tags = b.tags && a.n_objects = b.n_objects && a.obj_refs = b.obj_refs
  && a.instructions = b.instructions && a.calls = b.calls
  && a.heap_refs = b.heap_refs && a.total_refs = b.total_refs

let text_roundtrip_prop =
  QCheck.Test.make ~name:"textio round-trips adversarial random traces" ~count:80
    arb_trace (fun t ->
      events_equal t (Lp_trace.Textio.of_string (Lp_trace.Textio.to_string t)))

let binio_roundtrip_prop =
  QCheck.Test.make ~name:"binio round-trips adversarial random traces" ~count:80
    arb_trace (fun t ->
      events_equal t (Lp_trace.Binio.of_string (Lp_trace.Binio.to_string t)))

let io_detect_prop =
  QCheck.Test.make ~name:"io auto-detection picks the right codec" ~count:40
    arb_trace (fun t ->
      events_equal t (Lp_trace.Io.of_string (Lp_trace.Textio.to_string t))
      && events_equal t (Lp_trace.Io.of_string (Lp_trace.Binio.to_string t)))

(* -- the encoder's unsigned fields ------------------------------------------------ *)

let negative_size = "corrupt_traces/negative_size.txt"

(* the text format parses a negative size; [.lpt] stores sizes unsigned,
   so both binary writers refuse the trace with a located message *)
let binio_rejects_negative_fields () =
  let trace = Lp_trace.Io.read_file negative_size in
  let substrings =
    [ "Binio.output: neg.lpt: event 0: object 0: negative size -5" ]
  in
  expect_failure "v1/v2 writer" ~substrings (fun () ->
      Lp_trace.Binio.to_string ~name:"neg.lpt" trace);
  expect_failure "v3 writer" ~substrings (fun () ->
      Lp_trace.Binio.to_string_v3 ~name:"neg.lpt" trace)

(* The same trace through the CLI's exit-code contract: [convert] to
   [.lpt] is an input error (exit 2) with the located message, not an
   uncaught exception (exit 125), and writes no file; [stats] still
   accepts the trace.  Replay refuses a nonpositive size (this trace's
   -5 and the size 0 of [nonpositive_size.txt]) the same way, in
   [simulate] with and without [--stream] and in [tune]. *)
let convert_negative_size_exit_code () =
  let lpalloc = Filename.concat (Filename.concat ".." "bin") "lpalloc.exe" in
  let out = Filename.temp_file "negative" ".lpt" in
  let err = Filename.temp_file "negative" ".err" in
  Sys.remove out;
  let run args =
    Sys.command
      (String.concat " " (List.map Filename.quote (lpalloc :: args))
      ^ " > " ^ Filename.quote Filename.null ^ " 2> " ^ Filename.quote err)
  in
  Alcotest.(check int) "stats accepts it" 0 (run [ "stats"; negative_size ]);
  List.iter
    (fun extra ->
      let code = run ([ "convert"; negative_size; "-o"; out ] @ extra) in
      let msg = In_channel.with_open_bin err In_channel.input_all in
      let what = String.concat " " ("convert" :: extra) in
      Alcotest.(check int) (what ^ " exits 2") 2 code;
      List.iter
        (fun part ->
          Alcotest.(check bool)
            (Printf.sprintf "%s message names %S (got %S)" what part msg)
            true (Test_stream.contains msg part))
        [ out; "event 0"; "object 0"; "negative size -5" ];
      Alcotest.(check bool) (what ^ " writes no file") false (Sys.file_exists out))
    [ []; [ "--v3" ] ];
  List.iter
    (fun trace ->
      List.iter
        (fun cmd ->
          let code = run (cmd @ [ "--train"; trace; "--test"; trace ]) in
          let msg = In_channel.with_open_bin err In_channel.input_all in
          let what = String.concat " " cmd ^ " " ^ trace in
          Alcotest.(check int) (what ^ " exits 2") 2 code;
          List.iter
            (fun part ->
              Alcotest.(check bool)
                (Printf.sprintf "%s message names %S (got %S)" what part msg)
                true (Test_stream.contains msg part))
            [ "event 0"; "object 0" ])
        [ [ "simulate" ]; [ "simulate"; "--stream" ]; [ "tune" ] ])
    [ "corrupt_traces/nonpositive_size.txt"; negative_size ];
  Sys.remove err

(* -- runtime safety ------------------------------------------------------------ *)

let double_free () =
  let rt = Rt.create ~program:"t" ~input:"t" () in
  let h = Rt.alloc rt ~size:8 in
  Rt.free rt h;
  Alcotest.check_raises "double free" (Invalid_argument "Runtime.free: object already freed")
    (fun () -> Rt.free rt h)

let touch_after_free () =
  let rt = Rt.create ~program:"t" ~input:"t" () in
  let h = Rt.alloc rt ~size:8 in
  Rt.free rt h;
  Alcotest.check_raises "touch after free"
    (Invalid_argument "Runtime.touch: object already freed") (fun () -> Rt.touch rt h 1)

let zero_size_alloc () =
  let rt = Rt.create ~program:"t" ~input:"t" () in
  Alcotest.check_raises "size 0" (Invalid_argument "Runtime.alloc: size must be positive")
    (fun () -> ignore (Rt.alloc rt ~size:0))

let in_frame_unwinds () =
  let rt = Rt.create ~program:"t" ~input:"t" () in
  let f = Rt.func rt "f" in
  (try Rt.in_frame rt f (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0 (Rt.depth rt)

let live_object_count () =
  let rt = Rt.create ~program:"t" ~input:"t" () in
  let a = Rt.alloc rt ~size:8 in
  let _b = Rt.alloc rt ~size:8 in
  Alcotest.(check int) "two live" 2 (Rt.live_objects rt);
  Rt.free rt a;
  Alcotest.(check int) "one live" 1 (Rt.live_objects rt)

let ref_ratio_counted () =
  let rt = Rt.create ~ref_ratio:1.0 ~program:"t" ~input:"t" () in
  let h = Rt.alloc rt ~size:8 in
  Rt.touch rt h 10;
  Rt.instructions rt 100;
  let trace = Rt.finish rt in
  (* non-heap refs include ratio * instructions (plus instr from alloc) *)
  Alcotest.(check bool) "ratio applied" true (trace.total_refs - trace.heap_refs >= 100)

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "lifetimes" `Quick lifetimes;
        Alcotest.test_case "short-lived threshold" `Quick short_lived;
        Alcotest.test_case "max live" `Quick max_live;
        Alcotest.test_case "stats" `Quick stats;
        Alcotest.test_case "chains recorded" `Quick chains_recorded;
        Alcotest.test_case "textio round-trip" `Quick textio_roundtrip;
        Alcotest.test_case "textio rejects garbage" `Quick textio_rejects_garbage;
      ] );
    ( "trace-codecs",
      [
        Alcotest.test_case "textio escapes names" `Quick textio_escapes_names;
        Alcotest.test_case "binio round-trip" `Quick binio_roundtrip;
        Alcotest.test_case "binio smaller than text" `Quick binio_smaller_than_text;
        Alcotest.test_case "io auto-detects format" `Quick io_autodetects;
        Alcotest.test_case "textio reports file/line/field" `Quick
          textio_reports_bad_ints;
        Alcotest.test_case "textio rejects dangling references" `Quick
          textio_rejects_dangling_refs;
        Alcotest.test_case "binio rejects corruption" `Quick binio_rejects_corruption;
        Alcotest.test_case "binio decoder error table" `Quick decoder_error_table;
        Alcotest.test_case "binio rejects negative unsigned fields" `Quick
          binio_rejects_negative_fields;
        Alcotest.test_case "convert of a negative size exits 2" `Quick
          convert_negative_size_exit_code;
        QCheck_alcotest.to_alcotest text_roundtrip_prop;
        QCheck_alcotest.to_alcotest binio_roundtrip_prop;
        QCheck_alcotest.to_alcotest io_detect_prop;
      ] );
    ( "ialloc",
      [
        Alcotest.test_case "double free" `Quick double_free;
        Alcotest.test_case "touch after free" `Quick touch_after_free;
        Alcotest.test_case "zero-size alloc" `Quick zero_size_alloc;
        Alcotest.test_case "in_frame unwinds" `Quick in_frame_unwinds;
        Alcotest.test_case "live object count" `Quick live_object_count;
        Alcotest.test_case "ref ratio" `Quick ref_ratio_counted;
      ] );
  ]
