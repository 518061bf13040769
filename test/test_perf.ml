(* The optimized first-fit (flat int-array block store, direct-address
   payload map) must be observationally identical to the seed
   implementation retained verbatim in [Ff_reference]: same placement
   decisions, same simulated instruction charges, same heap growth, for
   both the roving-first-fit and best-fit policies.  QCheck drives both
   through random alloc/free schedules and compares every address the
   allocators hand out.

   The second suite is a regression bound on the roving search: one
   [alloc] call inspects each free block at most once (the wrap-around
   stop), so its instruction charge is bounded by the free-list length. *)

module FF = Lp_allocsim.First_fit
module CM = Lp_allocsim.Cost_model

(* A schedule step: [true, n] allocates [n mod 256 + 1] bytes, [false, n]
   frees the [n mod live]-th oldest live block (ignored when nothing is
   live).  Resolving indices against the live set keeps every generated
   schedule valid, so shrinking stays inside the allocators' contracts. *)
let schedule_gen =
  QCheck.(list_of_size Gen.(int_range 0 200) (pair bool small_nat))

let run_schedule ~policy ~ref_policy steps =
  let t = FF.create ~policy () in
  let r = Ff_reference.create ~policy:ref_policy () in
  let live = ref [] in
  (* live is kept oldest-first; addresses must match pairwise at every step *)
  List.iter
    (fun (is_alloc, n) ->
      if is_alloc || !live = [] then begin
        let size = (n mod 256) + 1 in
        let a = FF.alloc t size in
        let b = Ff_reference.alloc r size in
        if a <> b then
          QCheck.Test.fail_reportf "alloc %d placed at %d, reference at %d"
            size a b;
        live := !live @ [ a ]
      end
      else begin
        let i = n mod List.length !live in
        let addr = List.nth !live i in
        FF.free t addr;
        Ff_reference.free r addr;
        live := List.filteri (fun j _ -> j <> i) !live
      end)
    steps;
  FF.check_invariants t;
  let check what a b =
    if a <> b then QCheck.Test.fail_reportf "%s: %d, reference %d" what a b
  in
  check "alloc_instr" (FF.alloc_instr t) (Ff_reference.alloc_instr r);
  check "free_instr" (FF.free_instr t) (Ff_reference.free_instr r);
  check "allocs" (FF.allocs t) (Ff_reference.allocs r);
  check "frees" (FF.frees t) (Ff_reference.frees r);
  check "heap_size" (FF.heap_size t) (Ff_reference.heap_size r);
  check "max_heap_size" (FF.max_heap_size t) (Ff_reference.max_heap_size r);
  check "live_bytes" (FF.live_bytes t) (Ff_reference.live_bytes r);
  check "free_blocks" (FF.free_blocks t) (Ff_reference.free_blocks r);
  true

let equivalence_test ~name ~policy ~ref_policy =
  QCheck.Test.make ~count:200 ~name schedule_gen
    (run_schedule ~policy ~ref_policy)

(* Roving-pointer bound: a single alloc terminates after at most two
   passes over the free list (the wrap stops at the rover's start block,
   or at the tail when the rover started at the head), so its charge is
   at most ff_alloc_base plus ff_per_inspect times twice the free-list
   length, plus the fixed sbrk-carve and split charges when nothing
   fits.  Exercise it on a deliberately fragmented heap; an unterminated
   or superlinear rover blows the bound immediately. *)
let rover_inspection_bound () =
  let t = FF.create () in
  let addrs = Array.init 64 (fun _ -> FF.alloc t 48) in
  (* free every other block: 32 non-coalescable free-list entries *)
  Array.iteri (fun i a -> if i mod 2 = 0 then FF.free t a) addrs;
  for _ = 1 to 100 do
    let free_blocks = FF.free_blocks t in
    let before = FF.alloc_instr t in
    (* 64 bytes does not fit any 48-byte hole: worst case, a full rover
       sweep over every free block and then an sbrk carve *)
    ignore (FF.alloc t 64);
    let charge = FF.alloc_instr t - before in
    let bound =
      CM.ff_alloc_base + CM.ff_sbrk + CM.ff_split
      + (CM.ff_per_inspect * 2 * free_blocks)
    in
    if charge > bound then
      Alcotest.failf "alloc charged %d instructions, bound %d (%d free blocks)"
        charge bound free_blocks
  done;
  FF.check_invariants t

(* -- P² against the boxed reference -------------------------------------------- *)

(* The allocation-free P² must do the reference's float operations in the
   same order: after every observation the estimate, minimum and maximum
   carry the same bits.  Observations come in runs of repeated values
   drawn mostly from a handful of small integers (plus signed zeros), so
   ties at the markers — where the cell search and the
   parabolic/linear choice are decided by equality — are the common
   case. *)
let observations_gen =
  QCheck.Gen.(
    let value =
      frequency
        [
          (6, int_range 0 6 >|= float_of_int);
          (1, oneofl [ 0.; -0.; 1e9; -3.5 ]);
          (2, float_range (-1000.) 1000.);
        ]
    in
    list_size (int_range 0 60) (pair value (int_range 1 8)) >|= fun runs ->
    List.concat_map (fun (x, n) -> List.init n (fun _ -> x)) runs)

let bits = Int64.bits_of_float

let same_bits ~at what got expected =
  if bits got <> bits expected then
    QCheck.Test.fail_reportf "after observation %d: %s is %h, reference %h" at
      what got expected

module P2 = Lp_quantile.P2

let p2_matches_reference =
  QCheck.Test.make ~count:300 ~name:"P2 is bit-identical to the boxed reference"
    QCheck.(
      make
        ~print:Print.(pair float (list float))
        Gen.(pair (oneofl [ 0.25; 0.5; 0.75; 0.1; 0.9 ]) observations_gen))
    (fun (p, xs) ->
      let t = P2.create p and r = P2_reference.create p in
      List.iteri
        (fun i x ->
          P2.observe t x;
          P2_reference.observe r x;
          same_bits ~at:i "quantile" (P2.quantile t) (P2_reference.quantile r);
          same_bits ~at:i "min" (P2.min t) (P2_reference.min r);
          same_bits ~at:i "max" (P2.max t) (P2_reference.max r))
        xs;
      true)

(* the pre-rewrite histogram: the three reference estimators fed in
   lockstep, [1 + floor (log2 weight)] repetitions per observation *)
type reference_histogram = {
  est : P2_reference.t array;
  mutable lo : float;
  mutable hi : float;
}

let reference_observe r ~weight x =
  if x < r.lo then r.lo <- x;
  if x > r.hi then r.hi <- x;
  let rec reps acc w = if w <= 1 then acc else reps (acc + 1) (w lsr 1) in
  for _ = 1 to reps 1 weight do
    Array.iter (fun e -> P2_reference.observe e x) r.est
  done

let reference_quartiles r =
  let median = P2_reference.quantile r.est.(1) in
  ( r.lo,
    Float.min (P2_reference.quantile r.est.(0)) median,
    median,
    Float.max (P2_reference.quantile r.est.(2)) median,
    r.hi )

let histogram_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"Histogram.observe_weighted quartiles are bit-identical to the reference"
    QCheck.(
      make
        ~print:Print.(list (pair int float))
        Gen.(
          observations_gen >>= fun xs ->
          flatten_l
            (List.map (fun x -> int_range 1 5000 >|= fun w -> (w, x)) xs)))
    (fun obs ->
      let h = Lp_quantile.Histogram.create () in
      let r =
        {
          est = Array.map P2_reference.create [| 0.25; 0.5; 0.75 |];
          lo = infinity;
          hi = neg_infinity;
        }
      in
      List.iteri
        (fun i (weight, x) ->
          Lp_quantile.Histogram.observe_weighted h ~weight x;
          reference_observe r ~weight x;
          let q = Lp_quantile.Histogram.quartiles h in
          let lo, q25, median, q75, hi = reference_quartiles r in
          same_bits ~at:i "min" q.min lo;
          same_bits ~at:i "q25" q.q25 q25;
          same_bits ~at:i "median" q.median median;
          same_bits ~at:i "q75" q.q75 q75;
          same_bits ~at:i "max" q.max hi)
        obs;
      true)

(* -- the Source cursor: iter against next -------------------------------------- *)

module Source = Lp_trace.Source
module Builder = Lp_trace.Trace.Builder

(* A random program of allocs, frees, touches and (when [realloc])
   resizes over three call chains.  Sizes and touch counts cross the
   packed-opcode limits; the live set grows large enough for long object
   deltas.  With [~sized] every free declares its size (a v2 file);
   without resizes or declared sizes the writer emits v1. *)
let ops_gen =
  QCheck.Gen.(list_size (int_range 0 120) (pair (int_range 0 6) (int_range 0 300)))

let build ~sized ~realloc ops =
  let funcs = Lp_callchain.Func.create_table () in
  let f =
    Array.init 3 (fun i ->
        Lp_callchain.Func.intern funcs (Printf.sprintf "f%d" i))
  in
  let b = Builder.create ~program:"cursor" ~input:"qcheck" ~funcs () in
  let chains = Array.init 3 (fun i -> Builder.intern_chain b (Array.sub f 0 (i + 1))) in
  let tag = Builder.intern_tag b "t" in
  let live = ref [] in
  List.iter
    (fun (action, n) ->
      match (action, !live) with
      | (0 | 1 | 2), _ | _, [] ->
          let size = n + 1 in
          let obj =
            Builder.alloc b ~tag ~size ~chain:chains.(n mod 3) ~key:(n mod 5) ()
          in
          live := (obj, size) :: !live
      | 3, (obj, size) :: rest ->
          Builder.free ?size:(if sized then Some size else None) b ~obj;
          live := rest
      | 4, (obj, _) :: _ -> Builder.touch b ~obj (1 + (n mod 24))
      | 5, l ->
          (* free an older object: larger free deltas *)
          let i = n mod List.length l in
          let obj, size = List.nth l i in
          Builder.free ?size:(if sized then Some size else None) b ~obj;
          live := List.filteri (fun j _ -> j <> i) l
      | _, (obj, _) :: rest ->
          if realloc then begin
            Builder.realloc b ~new_size:(n + 1) ~chain:chains.(n mod 3) ~key:1
              ~obj ();
            live := (obj, n + 1) :: rest
          end
          else Builder.touch b ~obj 3)
    ops;
  Builder.finish b

let drain_iter f src = Source.iter f src

let drain_next f src =
  let rec go () =
    match Source.next src with
    | Some e ->
        f e;
        go ()
    | None -> ()
  in
  go ()

(* events, events_streamed and finished after a full drain *)
let drained drain src =
  let acc = ref [] in
  drain (fun e -> acc := e :: !acc) src;
  (List.rev !acc, Source.events_streamed src, src.Source.finished)

let cursor_constructors ~text_file ops =
  let plain = build ~sized:false ~realloc:false ops in
  let sized = build ~sized:true ~realloc:false ops in
  let resized = build ~sized:false ~realloc:true ops in
  let v3 = Lp_trace.Binio.to_string_v3 ~chunk_events:7 resized in
  let index () = Lp_trace.Binio.index (Lp_trace.Binio.big_of_string v3) in
  let n = Array.length resized.Lp_trace.Trace.events in
  let first = n / 3 and count = n - (n / 3) - (n / 4) in
  let slice (tr : Lp_trace.Trace.t) first count =
    Array.to_list (Array.sub tr.Lp_trace.Trace.events first count)
  in
  let all tr = slice tr 0 (Array.length tr.Lp_trace.Trace.events) in
  (* the file-backed text source closes its channel at exhaustion *)
  Out_channel.with_open_bin text_file (fun oc ->
      output_string oc (Lp_trace.Textio.to_string sized));
  [
    ("of_trace", (fun () -> Source.of_trace resized), all resized);
    ( "v1 decoder",
      (fun () -> Source.of_string (Lp_trace.Binio.to_string plain)),
      all plain );
    ( "v2 decoder",
      (fun () -> Source.of_string (Lp_trace.Binio.to_string sized)),
      all sized );
    ("v3 sequential decoder", (fun () -> Source.of_string v3), all resized);
    ("v3 of_indexed", (fun () -> Source.of_indexed (index ())), all resized);
    ( "v3 of_indexed window",
      (fun () -> Source.of_indexed_window (index ()) ~first ~count),
      slice resized first count );
    ("text", (fun () -> Source.of_string (Lp_trace.Textio.to_string sized)), all sized);
    ("text file", (fun () -> Source.of_file text_file), all sized);
  ]

let cursor_iter_matches_next =
  QCheck.Test.make ~count:60
    ~name:"Source.iter and a Source.next loop agree on every constructor"
    (QCheck.make ops_gen)
    (fun ops ->
      let text_file = Filename.temp_file "cursor" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove text_file)
        (fun () ->
          List.iter
            (fun (name, make, expected) ->
              let ev_i, n_i, fin_i = drained drain_iter (make ()) in
              let ev_n, n_n, fin_n = drained drain_next (make ()) in
              if ev_i <> expected then
                QCheck.Test.fail_reportf "%s: iter events differ" name;
              if ev_n <> expected then
                QCheck.Test.fail_reportf "%s: next events differ" name;
              if n_i <> n_n || n_i <> List.length expected then
                QCheck.Test.fail_reportf
                  "%s: events_streamed %d (iter) vs %d (next), %d events" name
                  n_i n_n (List.length expected);
              if not (fin_i && fin_n) then
                QCheck.Test.fail_reportf "%s: not finished" name)
            (cursor_constructors ~text_file ops));
      true)

(* On a damaged file both drains raise the same error after handing over
   the same events.  Damage: a truncation or one overwritten byte,
   anywhere in the file — header damage fails both at construction. *)
let outcome drain make =
  let n = ref 0 in
  match drain (fun _ -> incr n) (make ()) with
  | () -> (!n, "")
  | exception Failure msg -> (!n, msg)

let cursor_errors_match =
  QCheck.Test.make ~count:200
    ~name:"Source.iter and Source.next fail alike on damaged files"
    QCheck.(
      make
        Gen.(
          quad ops_gen bool (int_range 0 1_000_000)
            (pair (int_range 0 255) (oneofl [ `Truncate; `Overwrite ]))))
    (fun (ops, v3, at, (byte, damage)) ->
      let tr = build ~sized:(not v3) ~realloc:v3 ops in
      let s =
        if v3 then Lp_trace.Binio.to_string_v3 ~chunk_events:7 tr
        else Lp_trace.Binio.to_string tr
      in
      let at = at mod String.length s in
      let bad =
        match damage with
        | `Truncate -> String.sub s 0 at
        | `Overwrite ->
            String.mapi (fun i c -> if i = at then Char.chr byte else c) s
      in
      let make () = Source.of_string ~name:"bad.lpt" bad in
      let via_iter = outcome drain_iter make in
      let via_next = outcome drain_next make in
      if via_next <> via_iter then
        QCheck.Test.fail_reportf "next: %d events then %S; iter: %d then %S"
          (fst via_next) (snd via_next) (fst via_iter) (snd via_iter);
      true)

(* -- allocation pins ----------------------------------------------------------- *)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let rec observe_all t = function
  | [] -> ()
  | x :: rest ->
      P2.observe t x;
      observe_all t rest

let p2_observe_allocates_nothing () =
  let xs = List.init 1000 (fun i -> float_of_int ((i * 7919) mod 1013)) in
  let t = P2.create 0.5 in
  (* past the five-sample start-up, into the marker-update path *)
  observe_all t xs;
  let words = minor_words_during (fun () -> for _ = 1 to 100 do observe_all t xs done) in
  let per_call = words /. 100_000. in
  if per_call >= 0.01 then
    Alcotest.failf "P2.observe allocates %.2f words per call" per_call

let source_iter_allocates_only_events () =
  let tr = Lp_workloads.Registry.trace ~program:"gawk" ~input:"tiny" () in
  let ix =
    Lp_trace.Binio.index
      (Lp_trace.Binio.big_of_string (Lp_trace.Binio.to_string_v3 tr))
  in
  let n = Array.length tr.Lp_trace.Trace.events in
  let words = minor_words_during (fun () -> Source.iter ignore (Source.of_indexed ix)) in
  let per_event = words /. float_of_int n in
  if per_event > 8. then
    Alcotest.failf "Source.iter over a v3 buffer allocates %.1f words per event"
      per_event

(* A replay on a warm pool leases every backend table, so it allocates
   nothing in the major heap directly ([major_words] less
   [promoted_words]).  Before the tables were pooled, each replay of
   pint's test input allocated 1.7 K (bsd) to 45 K such words (0.12 to
   0.14 M at the benchmark's scale 8).  Measured on a fresh domain,
   whose pools no earlier test holds, with its own GC counters. *)
let warm_replay_allocates_no_major_tables () =
  let trace = Lp_workloads.Registry.trace ~scale:1.0 ~program:"pint" ~input:"test" () in
  let predictor =
    {
      Lp_allocsim.Driver.predicted = (fun ~obj ~size:_ ~chain:_ ~key:_ -> obj land 1 = 0);
      predict_cost = 18;
      short_threshold = 32768;
      on_outcome = None;
    }
  in
  let replay b = ignore (Lp_allocsim.Driver.run ~predictor trace b) in
  Domain.join
  @@ Domain.spawn (fun () ->
         List.iter
           (fun spec ->
             let b =
               match Lp_allocsim.Registry.backend_of_spec spec with
               | Ok b -> b
               | Error msg -> Alcotest.fail msg
             in
             replay b;
             let _, promoted0, major0 = Gc.counters () in
             replay b;
             let _, promoted1, major1 = Gc.counters () in
             let direct = major1 -. major0 -. (promoted1 -. promoted0) in
             if direct > 1024. then
               Alcotest.failf "%s: a warm replay allocates %.0f major words directly"
                 spec direct)
           [
             "first-fit";
             "best-fit";
             "bsd";
             "segfit";
             "segfit:slab=16+48+96+256";
             "arena";
             "arena:fallback=bsd";
             "arena:fallback=segfit";
             "arena:n=64:chunk=65536";
           ])

(* A streamed replay validates against a live map leased with the other
   tables, so on a warm pool it too allocates nothing in the major heap
   directly.  While the map was made fresh per replay, a streamed replay
   of pint's test input allocated 1,755 such words. *)
let warm_streamed_replay_allocates_no_major_tables () =
  let trace = Lp_workloads.Registry.trace ~scale:1.0 ~program:"pint" ~input:"test" () in
  let b = Lp_allocsim.Registry.backend "first-fit" in
  let replay src = ignore (Lp_allocsim.Driver.run_source src b) in
  Domain.join
  @@ Domain.spawn (fun () ->
         replay (Source.of_trace trace);
         let src = Source.of_trace trace in
         let _, promoted0, major0 = Gc.counters () in
         replay src;
         let _, promoted1, major1 = Gc.counters () in
         let direct = major1 -. major0 -. (promoted1 -. promoted0) in
         if direct > 1024. then
           Alcotest.failf "a warm streamed replay allocates %.0f major words directly"
             direct)

(* -- the streamed lifetime passes hold a few words per object ----------------- *)

(* gawk's tiny input tiled past 100 K objects, so the per-object tables
   dwarf the per-site ones *)
let tiled_trace =
  lazy
    (let tr = Lp_workloads.Registry.trace ~program:"gawk" ~input:"tiny" () in
     Lp_trace.Trace.tile tr (1 + (100_000 / tr.Lp_trace.Trace.n_objects)))

(* Major-heap words a streamed pass allocates per object, measured over a
   source whose header totals are exact.  The lifetime fold keeps two
   words per allocation and two words and a byte per object, and the
   audit adds the engine's two per-object tables and one site id per
   allocation: about 4.1 and 8.1 words here.  The bounds sit below the
   7.2 and 36.3 words the passes took while the fold copied its tables
   at [finish] and again at the merge. *)
let major_words_per_object f =
  let tr = Lazy.force tiled_trace in
  let src = Source.of_trace tr in
  let before = (Gc.quick_stat ()).Gc.major_words in
  ignore (Sys.opaque_identity (f src));
  ((Gc.quick_stat ()).Gc.major_words -. before)
  /. float_of_int tr.Lp_trace.Trace.n_objects

let streamed_passes_hold_few_words_per_object () =
  List.iter
    (fun (what, bound, pass) ->
      let per_object = major_words_per_object pass in
      if per_object > bound then
        Alcotest.failf "%s allocates %.1f major words per object (bound %.1f)"
          what per_object bound)
    [
      ( "Lifetimes.summary_source",
        5.5,
        fun src -> ignore (Lp_trace.Lifetimes.summary_source ~threshold:32768 src) );
      ( "Audit.run_source",
        12.,
        fun src ->
          ignore
            (Lp_analysis.Audit.run_source Lp_analysis.Audit.default_options src)
      );
    ]

(* [trace.peak_resident_words] must report the pass's true peak, which the
   audit and lifetimes merges reach after the stream is drained: compare
   it with the runtime's own top heap at exit ([OCAMLRUNPARAM=v=0x400]),
   in a fresh process so earlier tests' heaps do not mask it — also on a
   run that ends before any major cycle has finished. *)
let peak_counter_sees_the_merges () =
  let lpalloc = Filename.concat (Filename.concat ".." "bin") "lpalloc.exe" in
  let path = Filename.temp_file "tiled" ".lpt" in
  let err = Filename.temp_file "tiled" ".err" in
  Lp_trace.Io.write_file path (Lazy.force tiled_trace);
  let number_after prefix text =
    let value line =
      let line = String.trim line and n = String.length prefix in
      if String.starts_with ~prefix line then
        int_of_string_opt (String.trim (String.sub line n (String.length line - n)))
      else None
    in
    match List.find_map value (String.split_on_char '\n' text) with
    | Some n -> n
    | None -> Alcotest.failf "no %S line in:\n%s" prefix text
  in
  List.iter
    (fun cmd ->
      let code =
        Sys.command
          (Printf.sprintf "OCAMLRUNPARAM=v=0x400 %s %s --stream --timings %s > %s 2> %s"
             (Filename.quote lpalloc) cmd (Filename.quote path)
             (Filename.quote Filename.null) (Filename.quote err))
      in
      let text = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check int) (cmd ^ " exits 0") 0 code;
      let noted = number_after "trace.peak_resident_words" text in
      let top = number_after "top_heap_words:" text in
      if noted * 10 < top * 9 then
        Alcotest.failf "%s: trace.peak_resident_words %d, but the top heap is %d"
          cmd noted top)
    [ "audit"; "lifetimes" ];
  (* a run too short for a major cycle to finish, where [Gc.quick_stat]
     still reports no heap words *)
  Lp_trace.Io.write_file path
    (Lp_workloads.Registry.trace ~scale:0.05 ~program:"perl" ~input:"train" ());
  let code =
    Sys.command
      (Printf.sprintf
         "OCAMLRUNPARAM=v=0x400 %s lifetimes --stream --timings %s > %s 2> %s"
         (Filename.quote lpalloc) (Filename.quote path)
         (Filename.quote Filename.null) (Filename.quote err))
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check int) "short lifetimes exits 0" 0 code;
  let noted = number_after "trace.peak_resident_words" text in
  let top = number_after "top_heap_words:" text in
  if noted = 0 || abs (noted - top) * 10 > top then
    Alcotest.failf
      "short lifetimes: trace.peak_resident_words %d, but the top heap is %d"
      noted top;
  Sys.remove path;
  Sys.remove err

let suites =
  [
    ( "perf-equivalence",
      List.map QCheck_alcotest.to_alcotest
        [
          equivalence_test ~name:"first-fit matches seed implementation"
            ~policy:FF.First ~ref_policy:Ff_reference.First;
          equivalence_test ~name:"best-fit matches seed implementation"
            ~policy:FF.Best ~ref_policy:Ff_reference.Best;
        ] );
    ( "perf-rover",
      [
        Alcotest.test_case "roving search inspects each free block once"
          `Quick rover_inspection_bound;
      ] );
    ( "perf-streamed-pass",
      List.map QCheck_alcotest.to_alcotest
        [
          p2_matches_reference;
          histogram_matches_reference;
          cursor_iter_matches_next;
          cursor_errors_match;
        ]
      @ [
          Alcotest.test_case "P2.observe allocates nothing" `Quick
            p2_observe_allocates_nothing;
          Alcotest.test_case "Source.iter allocates only the events" `Quick
            source_iter_allocates_only_events;
          Alcotest.test_case "streamed passes hold few words per object"
            `Quick streamed_passes_hold_few_words_per_object;
          Alcotest.test_case "peak counter sees the merges" `Quick
            peak_counter_sees_the_merges;
          Alcotest.test_case "a warm replay allocates no major tables" `Quick
            warm_replay_allocates_no_major_tables;
          Alcotest.test_case "a warm streamed replay allocates no major tables"
            `Quick warm_streamed_replay_allocates_no_major_tables;
        ] );
  ]
