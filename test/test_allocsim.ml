(* Tests for lp_allocsim: the first-fit allocator's structural invariants
   (block tiling, coalescing, free-list consistency), the BSD buckets, the
   arena allocator's bump/reset/overflow/free behaviours, and the driver. *)

module FF = Lp_allocsim.First_fit
module Bsd = Lp_allocsim.Bsd
module Arena = Lp_allocsim.Arena

let ff_alloc_free_roundtrip () =
  let ff = FF.create () in
  let a = FF.alloc ff 100 in
  let b = FF.alloc ff 200 in
  Alcotest.(check bool) "distinct addresses" true (a <> b);
  FF.check_invariants ff;
  FF.free ff a;
  FF.check_invariants ff;
  FF.free ff b;
  FF.check_invariants ff;
  Alcotest.(check int) "all free coalesces to zero live" 0 (FF.live_bytes ff)

let ff_reuses_freed_space () =
  let ff = FF.create () in
  let a = FF.alloc ff 1000 in
  FF.free ff a;
  let b = FF.alloc ff 1000 in
  Alcotest.(check int) "address reused" a b;
  Alcotest.(check int) "heap did not grow past one chunk" 8192 (FF.max_heap_size ff)

let ff_coalescing () =
  let ff = FF.create () in
  let a = FF.alloc ff 100 in
  let b = FF.alloc ff 100 in
  let c = FF.alloc ff 100 in
  (* free in an order that exercises both next- and prev-coalescing *)
  FF.free ff a;
  FF.free ff c;
  FF.free ff b;
  FF.check_invariants ff;
  (* after full coalescing a large block must be allocatable without growth *)
  let before = FF.max_heap_size ff in
  let big = FF.alloc ff 4000 in
  ignore big;
  Alcotest.(check int) "no growth for big alloc" before (FF.max_heap_size ff)

let ff_heap_grows_in_chunks () =
  let ff = FF.create () in
  ignore (FF.alloc ff 20000);
  Alcotest.(check int) "24KB for 20000+header" 24576 (FF.max_heap_size ff)

let ff_free_unknown () =
  let ff = FF.create () in
  ignore (FF.alloc ff 64);
  Alcotest.check_raises "bad free" (Invalid_argument "First_fit.free: not an allocated address")
    (fun () -> FF.free ff 4)

let ff_invalid_size () =
  let ff = FF.create () in
  Alcotest.check_raises "size 0" (Invalid_argument "First_fit.alloc: size must be positive")
    (fun () -> ignore (FF.alloc ff 0))

(* random alloc/free sequences keep the invariants and never overlap *)
let ff_random_property =
  QCheck.Test.make ~name:"first-fit invariants under random traffic" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 300) (pair bool (int_range 1 600)))
    (fun ops ->
      let ff = FF.create () in
      let live = ref [] in
      List.iter
        (fun (do_alloc, size) ->
          if do_alloc || !live = [] then begin
            let addr = FF.alloc ff size in
            (* payload [addr, addr+size) must not overlap any live object *)
            List.iter
              (fun (a, s) ->
                if addr < a + s && a < addr + size then
                  QCheck.Test.fail_reportf "overlap: new (%d,%d) vs live (%d,%d)"
                    addr size a s)
              !live;
            live := (addr, size) :: !live
          end
          else begin
            match !live with
            | (a, _) :: rest ->
                FF.free ff a;
                live := rest
            | [] -> ()
          end)
        ops;
      FF.check_invariants ff;
      true)

let best_fit_picks_tightest () =
  let bf = FF.create ~policy:FF.Best () in
  (* create two holes: 100 bytes and 300 bytes *)
  let a = FF.alloc bf 100 in
  let _gap1 = FF.alloc bf 8 in
  let b = FF.alloc bf 300 in
  let _gap2 = FF.alloc bf 8 in
  FF.free bf a;
  FF.free bf b;
  (* an 80-byte request must land in the 100-byte hole, not the 300 *)
  let c = FF.alloc bf 80 in
  Alcotest.(check int) "tightest hole chosen" a c;
  FF.check_invariants bf

let best_fit_invariants_random =
  QCheck.Test.make ~name:"best-fit invariants under random traffic" ~count:40
    QCheck.(list_of_size Gen.(int_range 1 200) (pair bool (int_range 1 400)))
    (fun ops ->
      let bf = FF.create ~policy:FF.Best () in
      let live = ref [] in
      List.iter
        (fun (do_alloc, size) ->
          if do_alloc || !live = [] then live := (FF.alloc bf size, size) :: !live
          else begin
            match !live with
            | (a, _) :: rest ->
                FF.free bf a;
                live := rest
            | [] -> ()
          end)
        ops;
      FF.check_invariants bf;
      true)

let bsd_basics () =
  let b = Bsd.create () in
  let a1 = Bsd.alloc b 10 in
  Bsd.free b a1;
  let a2 = Bsd.alloc b 10 in
  Alcotest.(check int) "LIFO reuse" a1 a2;
  Alcotest.(check int) "frees counted" 1 (Bsd.frees b)

let bsd_size_classes () =
  let b = Bsd.create () in
  (* 10 + 8 header -> 32-byte class; 24 + 8 -> 32 too; 25+8 -> 64 *)
  let x = Bsd.alloc b 10 in
  Bsd.free b x;
  let y = Bsd.alloc b 24 in
  Alcotest.(check int) "same class reused" x y;
  Bsd.free b y;
  let z = Bsd.alloc b 25 in
  Alcotest.(check bool) "bigger class is a fresh block" true (z <> x)

let bsd_never_coalesces () =
  let b = Bsd.create () in
  let xs = List.init 200 (fun _ -> Bsd.alloc b 100) in
  List.iter (Bsd.free b) xs;
  let peak = Bsd.max_heap_size b in
  let ys = List.init 200 (fun _ -> Bsd.alloc b 100) in
  ignore ys;
  Alcotest.(check int) "refill reuses every page" peak (Bsd.max_heap_size b)

(* -- segfit ----------------------------------------------------------------------- *)

module Seg = Lp_allocsim.Segfit

let seg_roundtrip () =
  let s = Seg.create () in
  let a = Seg.alloc s 24 in
  let b = Seg.alloc s 24 in
  Alcotest.(check bool) "distinct addresses" true (a <> b);
  Seg.check_invariants s;
  Seg.free s a;
  Seg.free s b;
  Seg.check_invariants s;
  Alcotest.(check int) "alloc/free counters" 2 (Seg.frees s)

let seg_cells_share_a_slab () =
  let s = Seg.create () in
  (* 24 + 8 header rounds to a 32-byte class: both cells fit in one page *)
  let a = Seg.alloc s 24 in
  let b = Seg.alloc s 24 in
  Alcotest.(check int) "one slab created" 1 (Seg.slabs_created s);
  Alcotest.(check int) "adjacent cells" 32 (abs (b - a));
  Alcotest.(check int) "one page of heap" 4096 (Seg.max_heap_size s)

let seg_page_recycled_across_classes () =
  let s = Seg.create () in
  let xs = List.init 4 (fun _ -> Seg.alloc s 8) in
  List.iter (Seg.free s) xs;
  Alcotest.(check int) "empty page returned to the pool" 1 (Seg.pages_recycled s);
  let peak = Seg.max_heap_size s in
  (* a different size class claims the recycled page: no heap growth *)
  ignore (Seg.alloc s 100);
  Alcotest.(check int) "other class reuses the page" peak (Seg.max_heap_size s);
  Seg.check_invariants s

let seg_large_spans_reused () =
  let s = Seg.create () in
  let a = Seg.alloc s 5000 in
  Alcotest.(check int) "two-page span" (2 * 4096) (Seg.max_heap_size s);
  Seg.free s a;
  let b = Seg.alloc s 5000 in
  Alcotest.(check int) "span reused exactly" a b;
  Alcotest.(check int) "no growth on reuse" (2 * 4096) (Seg.max_heap_size s);
  Alcotest.(check int) "two spans allocated" 2 (Seg.large_spans s);
  Seg.check_invariants s

let seg_free_unknown () =
  let s = Seg.create () in
  Alcotest.check_raises "unknown address"
    (Invalid_argument "Segfit.free: not an allocated address") (fun () ->
      Seg.free s 12345)

let seg_invalid_size () =
  let s = Seg.create () in
  Alcotest.check_raises "zero size"
    (Invalid_argument "Segfit.alloc: size must be positive") (fun () ->
      ignore (Seg.alloc s 0))

(* -- arena ----------------------------------------------------------------------- *)

let small_config = { Arena.n_arenas = 4; arena_size = 128 }

let arena_bump () =
  let a = Arena.create ~config:small_config () in
  let x = Arena.alloc a ~size:40 ~predicted:true in
  let y = Arena.alloc a ~size:40 ~predicted:true in
  Alcotest.(check int) "bump: consecutive" (x + 40) y;
  Alcotest.(check int) "arena allocs" 2 (Arena.arena_allocs a);
  Alcotest.(check int) "arena bytes" 80 (Arena.arena_bytes a)

let arena_unpredicted_goes_general () =
  let a = Arena.create ~config:small_config () in
  let x = Arena.alloc a ~size:40 ~predicted:false in
  Alcotest.(check bool) "general heap is above arena area" true (x >= 4 * 128);
  Alcotest.(check int) "no arena allocs" 0 (Arena.arena_allocs a)

let arena_too_big_goes_general () =
  let a = Arena.create ~config:small_config () in
  let x = Arena.alloc a ~size:129 ~predicted:true in
  Alcotest.(check bool) "oversized object in general heap" true (x >= 4 * 128)

let arena_reset_on_empty () =
  let a = Arena.create ~config:small_config () in
  (* fill arena 0, free everything, fill again: must recycle *)
  let xs = List.init 3 (fun _ -> Arena.alloc a ~size:40 ~predicted:true) in
  List.iter (Arena.free a) xs;
  let more = List.init 8 (fun _ -> Arena.alloc a ~size:40 ~predicted:true) in
  ignore more;
  Alcotest.(check bool) "arenas recycled" true (Arena.arena_resets a >= 1);
  Alcotest.(check int) "no overflow" 0 (Arena.overflow_allocs a)

let arena_pollution_overflows () =
  let a = Arena.create ~config:small_config () in
  (* fill all four arenas with objects that stay live (mispredicted
     long-lived objects) -> further predicted allocs must overflow *)
  let held = List.init 12 (fun _ -> Arena.alloc a ~size:40 ~predicted:true) in
  let overflow = Arena.alloc a ~size:40 ~predicted:true in
  Alcotest.(check bool) "overflow lands in general heap" true (overflow >= 4 * 128);
  Alcotest.(check bool) "overflow counted" true (Arena.overflow_allocs a >= 1);
  List.iter (Arena.free a) held

let arena_free_dispatch () =
  let a = Arena.create ~config:small_config () in
  let in_arena = Arena.alloc a ~size:40 ~predicted:true in
  let in_general = Arena.alloc a ~size:40 ~predicted:false in
  Arena.free a in_arena;
  Arena.free a in_general;
  Alcotest.(check int) "both freed" 2 (Arena.frees a);
  Alcotest.(check string) "fallback is first-fit" "first-fit" (Arena.general_name a);
  Arena.check_invariants a

let arena_heap_includes_area () =
  let a = Arena.create ~config:small_config () in
  ignore (Arena.alloc a ~size:40 ~predicted:true);
  Alcotest.(check bool) "max heap >= arena area" true (Arena.max_heap_size a >= 4 * 128)

(* -- driver ----------------------------------------------------------------------- *)

let make_trace () =
  let rt = Lp_ialloc.Runtime.create ~program:"drv" ~input:"t" () in
  let main = Lp_ialloc.Runtime.func rt "main" in
  Lp_ialloc.Runtime.enter rt main;
  let hs = List.init 50 (fun i -> Lp_ialloc.Runtime.alloc rt ~size:(16 + (i mod 5 * 8))) in
  List.iteri (fun i h -> if i mod 2 = 0 then Lp_ialloc.Runtime.free rt h) hs;
  Lp_ialloc.Runtime.leave rt;
  Lp_ialloc.Runtime.finish rt

let predictor_const verdict =
  {
    Lp_allocsim.Driver.predicted = (fun ~obj:_ ~size:_ ~chain:_ ~key:_ -> verdict);
    predict_cost = 18;
    short_threshold = 32768;
    on_outcome = None;
  }

let driver_first_fit () =
  let trace = make_trace () in
  let m = Lp_allocsim.Driver.run_named trace "first-fit" in
  Alcotest.(check int) "allocs" 50 m.Lp_allocsim.Metrics.allocs;
  Alcotest.(check int) "frees" 25 m.Lp_allocsim.Metrics.frees;
  Alcotest.(check bool) "instr/alloc positive" true (m.instr_per_alloc > 0.)

let driver_arena_predict_all () =
  let trace = make_trace () in
  let m =
    Lp_allocsim.Driver.run_named ~predictor:(predictor_const true) trace "arena"
  in
  let stats = Option.get (Lp_allocsim.Metrics.arena_stats m) in
  Alcotest.(check int) "everything in arenas" 50 stats.arena_allocs;
  Alcotest.(check bool) "heap includes 64KB area" true (m.max_heap >= 65536)

let driver_arena_predict_none_equals_first_fit () =
  let trace = make_trace () in
  let ff = Lp_allocsim.Driver.run_named trace "first-fit" in
  let ar =
    Lp_allocsim.Driver.run_named ~predictor:(predictor_const false) trace "arena"
  in
  (* the degenerate case of the paper: an arena allocator that puts nothing
     in arenas is first-fit plus the arena area *)
  Alcotest.(check int) "heap = first-fit + arena area"
    (ff.Lp_allocsim.Metrics.max_heap + 65536) ar.Lp_allocsim.Metrics.max_heap

(* Malformed traces (a free of a never-allocated object, a double free)
   must fail naming the object and the event index, not crash with an
   unrelated error deep inside the allocator. *)
let hand_trace events n_objects : Lp_trace.Trace.t =
  {
    program = "bad";
    input = "bad";
    events = Array.of_list events;
    chains = [| [||] |];
    funcs = Lp_callchain.Func.create_table ();
    n_objects;
    instructions = 0;
    calls = 0;
    heap_refs = 0;
    total_refs = 0;
    obj_refs = Array.make n_objects 0;
    tags = [||];
  }

let check_driver_rejects name trace backend ~substrings =
  match
    Lp_allocsim.Driver.run_named ~predictor:(predictor_const true) trace backend
  with
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

let driver_rejects_bad_frees () =
  let alloc obj = Lp_trace.Event.Alloc { obj; size = 16; chain = 0; key = 0; tag = -1 } in
  let free obj = Lp_trace.Event.Free { obj; size = -1 } in
  let never_allocated = hand_trace [ free 0 ] 1 in
  let double_free = hand_trace [ alloc 0; free 0; free 0 ] 1 in
  let out_of_range = hand_trace [ free 7 ] 1 in
  (* every registry backend must reject the same malformed traces: the
     validation lives in the one replay loop, not in any allocator *)
  List.iter
    (fun backend ->
      check_driver_rejects "free of never-allocated" never_allocated backend
        ~substrings:[ "object 0"; "event 0" ];
      check_driver_rejects "double free" double_free backend
        ~substrings:[ "object 0"; "event 2" ];
      check_driver_rejects "free out of range" out_of_range backend
        ~substrings:[ "object 7"; "event 0" ])
    (Lp_allocsim.Registry.names ())

(* A size <= 0 dies inside every backend with an unlocated
   Invalid_argument; validation rejects it first, with the same located
   message from [prepare], [run] and [run_source]. *)
let driver_rejects_nonpositive_sizes () =
  let alloc obj size = Lp_trace.Event.Alloc { obj; size; chain = 0; key = 0; tag = -1 } in
  let realloc obj new_size =
    Lp_trace.Event.Realloc { obj; old_size = 16; new_size; chain = 0; key = 0; tag = -1 }
  in
  let raised f = match f () with _ -> None | exception Failure m -> Some m in
  List.iter
    (fun (what, events, expect) ->
      let trace = hand_trace events 2 in
      Alcotest.(check (option string)) (what ^ ": prepare") (Some expect)
        (raised (fun () -> Lp_allocsim.Driver.prepare trace));
      List.iter
        (fun name ->
          let backend = Lp_allocsim.Registry.backend name in
          let predictor = predictor_const true in
          Alcotest.(check (option string))
            (Printf.sprintf "%s: run %s" what name)
            (Some expect)
            (raised (fun () -> Lp_allocsim.Driver.run ~predictor trace backend));
          Alcotest.(check (option string))
            (Printf.sprintf "%s: run_source %s" what name)
            (Some expect)
            (raised (fun () ->
                 Lp_allocsim.Driver.run_source ~predictor
                   (Lp_trace.Source.of_trace trace) backend)))
        (Lp_allocsim.Registry.names ()))
    [
      ( "size-0 alloc",
        [ alloc 0 16; alloc 1 0 ],
        "Driver.run: alloc of size 0 for object 1 at event 1" );
      ( "realloc to 0",
        [ alloc 0 16; realloc 0 0 ],
        "Driver.run: realloc to size 0 of object 0 at event 1" );
    ]

(* -- set-up in proportion to use ------------------------------------------------------ *)

(* Native code counts small minor-heap allocations only approximately,
   but any table large enough to matter goes straight to the major heap,
   which is counted exactly. *)
let allocated_words f =
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float ((Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8))

(* Creating an allocator costs a constant: no table is pre-sized by the
   trace or by the arena area.  Each is released, leaving its tables to
   the domain's pool. *)
let create_allocates_constant () =
  let small what words =
    Alcotest.(check bool)
      (Printf.sprintf "%s allocates %d words" what words)
      true (words < 2048)
  in
  small "First_fit.create" (allocated_words (fun () -> FF.release (FF.create ())));
  small "Bsd.create" (allocated_words (fun () -> Bsd.release (Bsd.create ())));
  small "Segfit.create" (allocated_words (fun () -> Seg.release (Seg.create ())));
  small "Arena.create"
    (allocated_words (fun () -> Arena.release (Arena.create ())))

(* The largest geometry the registry accepts is a 4 GiB arena area; a map
   over the whole area could not be allocated.  Predict everything short
   so the arenas fill, reset and overflow, then check the structure. *)
let arena_largest_geometry () =
  let (module B : Lp_allocsim.Backend.BACKEND) =
    match Lp_allocsim.Registry.backend_of_spec "arena:n=4096:chunk=1048576" with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  (* the replay's end, before its tables are reset *)
  let checked = ref false in
  let module Kept = struct
    include B

    let release t =
      B.check_invariants t;
      checked := true;
      B.release t
  end in
  let trace = Lp_workloads.Registry.trace ~scale:1.0 ~program:"perl" ~input:"tiny" () in
  let m =
    Lp_allocsim.Driver.run ~predictor:(predictor_const true) trace (module Kept)
  in
  Alcotest.(check bool) "objects placed in arenas" true
    (Lp_allocsim.Metrics.arena_alloc_pct m > 0.);
  Alcotest.(check bool) "invariants checked at the replay's end" true !checked

let suites =
  [
    ( "first-fit",
      [
        Alcotest.test_case "alloc/free round-trip" `Quick ff_alloc_free_roundtrip;
        Alcotest.test_case "reuses freed space" `Quick ff_reuses_freed_space;
        Alcotest.test_case "coalescing" `Quick ff_coalescing;
        Alcotest.test_case "grows in 8KB chunks" `Quick ff_heap_grows_in_chunks;
        Alcotest.test_case "free unknown address" `Quick ff_free_unknown;
        Alcotest.test_case "invalid size" `Quick ff_invalid_size;
        QCheck_alcotest.to_alcotest ff_random_property;
        Alcotest.test_case "best fit picks tightest" `Quick best_fit_picks_tightest;
        QCheck_alcotest.to_alcotest best_fit_invariants_random;
      ] );
    ( "bsd",
      [
        Alcotest.test_case "basics" `Quick bsd_basics;
        Alcotest.test_case "size classes" `Quick bsd_size_classes;
        Alcotest.test_case "never coalesces" `Quick bsd_never_coalesces;
      ] );
    ( "segfit",
      [
        Alcotest.test_case "alloc/free round-trip" `Quick seg_roundtrip;
        Alcotest.test_case "cells share a slab" `Quick seg_cells_share_a_slab;
        Alcotest.test_case "page recycled across classes" `Quick
          seg_page_recycled_across_classes;
        Alcotest.test_case "large spans reused" `Quick seg_large_spans_reused;
        Alcotest.test_case "free unknown address" `Quick seg_free_unknown;
        Alcotest.test_case "invalid size" `Quick seg_invalid_size;
      ] );
    ( "arena",
      [
        Alcotest.test_case "bump allocation" `Quick arena_bump;
        Alcotest.test_case "unpredicted -> general" `Quick arena_unpredicted_goes_general;
        Alcotest.test_case "oversized -> general" `Quick arena_too_big_goes_general;
        Alcotest.test_case "reset on empty" `Quick arena_reset_on_empty;
        Alcotest.test_case "pollution overflows" `Quick arena_pollution_overflows;
        Alcotest.test_case "free dispatch" `Quick arena_free_dispatch;
        Alcotest.test_case "heap includes area" `Quick arena_heap_includes_area;
        Alcotest.test_case "largest geometry replays" `Quick arena_largest_geometry;
      ] );
    ( "backend-setup",
      [
        Alcotest.test_case "create allocates a constant" `Quick
          create_allocates_constant;
      ] );
    ( "driver",
      [
        Alcotest.test_case "first-fit metrics" `Quick driver_first_fit;
        Alcotest.test_case "arena predict-all" `Quick driver_arena_predict_all;
        Alcotest.test_case "predict-none degenerates to first-fit" `Quick
          driver_arena_predict_none_equals_first_fit;
        Alcotest.test_case "rejects bad frees with context" `Quick
          driver_rejects_bad_frees;
        Alcotest.test_case "rejects nonpositive sizes" `Quick
          driver_rejects_nonpositive_sizes;
      ] );
  ]
