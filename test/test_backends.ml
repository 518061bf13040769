(* Generic property suite over every allocator backend in the registry.
   The properties hold for ANY correct allocator, so each registry entry —
   including ones future sessions add — is exercised without writing new
   tests: live payload ranges never overlap, freed space is reusable (the
   heap stops growing under repeated alloc-all/free-all cycles), the heap
   high-water mark covers the peak of live payload bytes, operation
   counters match the op sequence, and the backend's own invariant checker
   stays happy.

   The arena backend runs through the same harness: the [predicted] flag
   alternates, so both the bump path and the general-heap fallback are
   driven; generated sizes stay below the 4 KB arena size. *)

let backend_names = Lp_allocsim.Registry.names ()

(* Interpret a list of ints as an op sequence: n >= 0 allocates
   1 + n mod 600 bytes; n < 0 frees the (-n mod live)-th live object. *)
let ops_property name =
  QCheck.Test.make ~count:60 ~long_factor:3
    ~name:(Printf.sprintf "%s: no overlap, counters, invariants" name)
    QCheck.(list (int_range (-1000) 1000))
    (fun ops ->
      let (module B : Lp_allocsim.Backend.BACKEND) =
        Lp_allocsim.Registry.backend name
      in
      let t = B.create () in
      let live = ref [] in
      let n_allocs = ref 0 and n_frees = ref 0 in
      let cur = ref 0 and peak = ref 0 in
      List.iteri
        (fun i op ->
          if op >= 0 then begin
            let size = 1 + (op mod 600) in
            let addr = B.alloc t ~size ~predicted:(i mod 2 = 0) in
            incr n_allocs;
            List.iter
              (fun (a, s) ->
                if addr < a + s && a < addr + size then
                  QCheck.Test.fail_reportf
                    "%s: [%d,%d) overlaps live [%d,%d)" name addr (addr + size)
                    a (a + s))
              !live;
            live := (addr, size) :: !live;
            cur := !cur + size;
            if !cur > !peak then peak := !cur
          end
          else
            match !live with
            | [] -> ()
            | l ->
                let idx = -op mod List.length l in
                let a, s = List.nth l idx in
                B.free t a;
                incr n_frees;
                live := List.filteri (fun j _ -> j <> idx) l;
                cur := !cur - s)
        ops;
      B.check_invariants t;
      if B.allocs t <> !n_allocs then
        QCheck.Test.fail_reportf "%s: %d allocs counted, %d performed" name
          (B.allocs t) !n_allocs;
      if B.frees t <> !n_frees then
        QCheck.Test.fail_reportf "%s: %d frees counted, %d performed" name
          (B.frees t) !n_frees;
      if B.max_heap_size t < !peak then
        QCheck.Test.fail_reportf "%s: max heap %d below peak live payload %d"
          name (B.max_heap_size t) !peak;
      B.release t;
      true)

(* Freed bytes must be reusable: replaying the same alloc-all/free-all
   cycle cannot grow the heap once the allocator has reached steady state
   (after two cycles every backend has seen the full working set). *)
let reuse_property name =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "%s: repeated cycles stop growing the heap" name)
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_range 1 512))
    (fun sizes ->
      let (module B : Lp_allocsim.Backend.BACKEND) =
        Lp_allocsim.Registry.backend name
      in
      let t = B.create () in
      let cycle () =
        let addrs =
          List.mapi (fun i size -> B.alloc t ~size ~predicted:(i mod 2 = 0)) sizes
        in
        List.iter (B.free t) addrs
      in
      cycle ();
      cycle ();
      let steady = B.max_heap_size t in
      cycle ();
      cycle ();
      cycle ();
      B.check_invariants t;
      if B.max_heap_size t <> steady then
        QCheck.Test.fail_reportf "%s: heap grew from %d to %d on replayed cycles"
          name steady (B.max_heap_size t);
      B.release t;
      true)

(* -- pooled tables ------------------------------------------------------------- *)

module Driver = Lp_allocsim.Driver
module Timings = Lp_obs.Timings

(* Backends lease their tables from a per-domain pool and reset what a
   replay wrote before giving them back, so a replay on a warm pool must
   be byte-identical to one on a cold pool, that is on a fresh domain.
   Covered: every registry backend, the arena over each other fallback,
   one parameterized spec per backend that takes parameters, and each of
   these under the sanitizer. *)
let pool_backends () =
  let names = Lp_allocsim.Registry.names () in
  let specs =
    names
    @ List.filter_map
        (fun n ->
          if n = "arena" || n = "first-fit" then None
          else Some ("arena:fallback=" ^ n))
        names
    @ [
        "first-fit:sbrk=4096";
        "best-fit:sbrk=16384";
        "segfit:slab=16+48+96+256";
        "arena:n=4:chunk=1024:fallback=segfit";
      ]
  in
  List.concat_map
    (fun spec ->
      match Lp_allocsim.Registry.backend_of_spec spec with
      | Error msg -> failwith msg
      | Ok b -> [ (spec, b); (spec ^ " sanitized", Lp_analysis.Sanitize.wrap b) ])
    specs

(* the arena sees both verdicts *)
let pool_predictor =
  {
    Driver.predicted = (fun ~obj ~size:_ ~chain:_ ~key:_ -> obj mod 3 <> 0);
    predict_cost = 18;
    short_threshold = 32768;
    on_outcome = None;
  }

let replay_json trace b =
  Lp_allocsim.Metrics.to_json (Driver.run ~predictor:pool_predictor trace b)

(* [b] checking its invariants at the end of each replay, where a table
   leased with stale entries shows (the block map of first-fit, the slab
   counts of segfit, the start maps of the arena) *)
let checked (module B : Lp_allocsim.Backend.BACKEND) : Lp_allocsim.Backend.t =
  (module struct
    include B

    let release t =
      B.check_invariants t;
      B.release t
  end)

let on_fresh_domain f = Domain.join (Domain.spawn f)

(* [tr] streamed with a free of a never-allocated object halfway, which
   [check_block] rejects after the blocks before it have replayed *)
let failing_stream (tr : Lp_trace.Trace.t) =
  let n = Array.length tr.events in
  let bad = Lp_trace.Event.Free { obj = tr.n_objects; size = -1 } in
  Lp_trace.Source.of_trace
    {
      tr with
      events =
        Array.concat
          [ Array.sub tr.events 0 (n / 2); [| bad |]; Array.sub tr.events (n / 2) (n - (n / 2)) ];
    }

(* a predicting replay of [tr] that fails halfway, objects live *)
let fail_stream ?cache what tr b =
  match
    Driver.run_source ?cache ~predictor:pool_predictor (failing_stream tr) b
  with
  | _ -> Alcotest.failf "%s: the streamed replay should fail" what
  | exception Failure _ -> ()

(* A text trace of 40 objects, streamed: its tables take the 1024-slot
   hint of a text source, so they cover ids it never allocates.  It
   touches every one of those ids, which reads their [addr_of] slots,
   and its survivor scan reads their [birth_of] slots. *)
let small_text =
  let n = 40 in
  String.concat "\n"
    ([ "trace t i"; "func 0 main"; "chain 0 0" ]
    @ List.init n (fun obj ->
          Printf.sprintf "a %d %d 0 %d -1 1" obj (16 + (24 * obj)) obj)
    @ List.init n (fun obj -> Printf.sprintf "r %d 3" obj)
    @ List.init (1024 - n) (fun i -> Printf.sprintf "r %d 1" (n + i))
    @ List.init (n / 2) (fun i -> Printf.sprintf "f %d" (2 * i))
    @ [ "counters 1 1 1 1"; "end"; "" ])

(* the metrics, the outcomes fed back and the cache counts of a
   streamed replay of [small_text] under a predictor and a cache *)
let small_stream_replay b =
  let outcomes = ref 0 in
  let on_outcome ~obj:_ ~lifetime:_ ~survived:_ = incr outcomes in
  let predictor = { pool_predictor with on_outcome = Some on_outcome } in
  let cache = Lp_allocsim.Cache.create ~size_bytes:8192 () in
  let m =
    Driver.run_source ~cache ~predictor
      (Lp_trace.Source.of_string ~name:"small.txt" small_text) b
  in
  Printf.sprintf "%s outcomes=%d accesses=%d misses=%d"
    (Lp_allocsim.Metrics.to_json m) !outcomes
    (Lp_allocsim.Cache.accesses cache) (Lp_allocsim.Cache.misses cache)

let warm_pool_replays_like_cold () =
  (* pint reallocates; perl, which dirties the pools, is larger *)
  let tiny program = Lp_workloads.Registry.trace ~scale:1.0 ~program ~input:"tiny" () in
  let test = tiny "pint" and other = tiny "perl" in
  let backends = List.map (fun (what, b) -> (what, checked b)) (pool_backends ()) in
  let cold =
    List.map (fun (_, b) -> on_fresh_domain (fun () -> replay_json test b)) backends
  in
  let cold_small =
    List.map (fun (_, b) -> on_fresh_domain (fun () -> small_stream_replay b)) backends
  in
  Timings.reset ();
  Timings.set_enabled true;
  Fun.protect ~finally:(fun () -> Timings.set_enabled false) @@ fun () ->
  let warm, after_failure, small_after_failure =
    on_fresh_domain (fun () ->
        List.iter (fun (_, b) -> ignore (replay_json other b)) backends;
        let warm = List.map (fun (_, b) -> replay_json test b) backends in
        let after_failure =
          List.map
            (fun (what, b) ->
              fail_stream what other b;
              replay_json test b)
            backends
        in
        let small_after_failure =
          List.map
            (fun (what, b) ->
              fail_stream ~cache:(Lp_allocsim.Cache.create ~size_bytes:8192 ())
                what other b;
              small_stream_replay b)
            backends
        in
        (warm, after_failure, small_after_failure))
  in
  List.iteri
    (fun i (what, _) ->
      let cold = List.nth cold i in
      Alcotest.(check string) (what ^ ": warm = cold") cold (List.nth warm i);
      Alcotest.(check string)
        (what ^ ": after a failed stream = cold")
        cold (List.nth after_failure i);
      Alcotest.(check string)
        (what ^ ": small text stream after a failed stream = cold")
        (List.nth cold_small i) (List.nth small_after_failure i))
    backends;
  (* every replay after the first round leased tables given back before *)
  let reuses =
    Option.value ~default:0 (List.assoc_opt "replay.table_reuses" (Timings.counters ()))
  in
  if reuses < 3 * List.length backends then
    Alcotest.failf "%d table reuses over %d warm replays" reuses
      (3 * List.length backends)

(* A streamed text replay validates against the domain's pooled live
   map.  Its 1024-slot hint covers ids below 1024 only, and a block that
   fails validation never reaches the replay, so the tables never grow
   past that prefix; yet the failed block below marks ids 1024 to 1031
   live before its bad free.  The next replay on the domain allocates
   those ids, and must replay as on a fresh domain. *)
let live_map_clean_after_failed_block () =
  let text lines =
    String.concat "\n"
      ([ "trace t i"; "func 0 main"; "chain 0 0" ] @ lines
      @ [ "counters 1 1 1 1"; "end"; "" ])
  in
  let allocs ids =
    List.map (fun obj -> Printf.sprintf "a %d %d 0 %d -1 1" obj (16 + obj) obj) ids
  in
  let high = List.init 8 (fun i -> 1024 + i) in
  let failing = text (allocs high @ [ "f 4000" ]) in
  let valid =
    text (allocs (List.init 8 Fun.id) @ allocs high
          @ List.map (Printf.sprintf "f %d") high)
  in
  let b = Lp_allocsim.Registry.backend "first-fit" in
  let replay s =
    Lp_allocsim.Metrics.to_json
      (Driver.run_source (Lp_trace.Source.of_string ~name:"t.txt" s) b)
  in
  let cold = on_fresh_domain (fun () -> replay valid) in
  let warm =
    on_fresh_domain (fun () ->
        (match replay failing with
        | _ -> Alcotest.fail "the failing stream replayed"
        | exception Failure _ -> ());
        replay valid)
  in
  Alcotest.(check string) "after a failed block = cold" cold warm

(* [replay.scratch_reuses] counts the replays whose leased tables
   already covered their object count: on a fresh domain, every replay
   of one prepared trace but the first, and no replay of a trace with
   more objects than the pooled tables hold. *)
let scratch_reuses_count_covered_replays () =
  let tiny program = Lp_workloads.Registry.trace ~scale:1.0 ~program ~input:"tiny" () in
  let small = tiny "pint" and large = tiny "perl" in
  if large.n_objects <= small.n_objects then
    Alcotest.failf "perl-tiny has %d objects, pint-tiny %d" large.n_objects
      small.n_objects;
  let reuses () =
    Option.value ~default:0
      (List.assoc_opt "replay.scratch_reuses" (Timings.counters ()))
  in
  Timings.reset ();
  Timings.set_enabled true;
  Fun.protect ~finally:(fun () -> Timings.set_enabled false) @@ fun () ->
  on_fresh_domain (fun () ->
      let prepared = Driver.prepare small in
      let names = Lp_allocsim.Registry.names () in
      List.iter
        (fun name ->
          ignore
            (Driver.run_prepared ~predictor:pool_predictor prepared
               (Lp_allocsim.Registry.backend name)))
        names;
      let k = List.length names in
      Alcotest.(check int) "k replays of one trace" (k - 1) (reuses ());
      ignore (Driver.run large (Lp_allocsim.Registry.backend "first-fit"));
      Alcotest.(check int) "a replay outgrowing the tables" (k - 1) (reuses ());
      ignore (Driver.run_prepared prepared (Lp_allocsim.Registry.backend "bsd"));
      Alcotest.(check int) "a replay within the grown tables" k (reuses ()))

(* An address live when an allocator was released is not live in the
   next one, which leases the same tables: its free is rejected.  This
   is where a stale entry of a map no invariant covers would show (the
   bsd class map). *)
let released_tables_are_clean () =
  on_fresh_domain (fun () ->
      List.iter
        (fun name ->
          let (module B : Lp_allocsim.Backend.BACKEND) =
            Lp_allocsim.Registry.backend name
          in
          let t = B.create () in
          let addrs =
            List.init 300 (fun i ->
                B.alloc t ~size:(1 + (i * 37 mod 900)) ~predicted:(i mod 2 = 0))
          in
          B.release t;
          let t = B.create () in
          List.iter
            (fun addr ->
              match B.free t addr with
              | () -> Alcotest.failf "%s: freed %d, live in a released allocator" name addr
              | exception Invalid_argument _ -> ())
            addrs;
          B.release t)
        (Lp_allocsim.Registry.names ()))

(* A second live allocator on a domain gets fresh tables: two allocators
   given the same calls return the same addresses, and each frees its
   own, which a shared payload map would refuse the second time. *)
let live_allocators_share_no_table () =
  on_fresh_domain (fun () ->
      List.iter
        (fun name ->
          let (module B : Lp_allocsim.Backend.BACKEND) =
            Lp_allocsim.Registry.backend name
          in
          let a = B.create () and b = B.create () in
          let place t =
            List.init 100 (fun i ->
                B.alloc t ~size:(1 + (i * 53 mod 700)) ~predicted:(i mod 3 = 0))
          in
          let addrs = place a in
          Alcotest.(check (list int)) (name ^ ": same placements") addrs (place b);
          List.iter (B.free a) addrs;
          List.iter (B.free b) addrs;
          B.check_invariants a;
          B.check_invariants b;
          B.release b;
          B.release a)
        (Lp_allocsim.Registry.names ()))

let suites =
  [
    ( "backend-pool",
      [
        Alcotest.test_case "warm pool replays like a cold one" `Quick
          warm_pool_replays_like_cold;
        Alcotest.test_case "scratch reuses count covered replays" `Quick
          scratch_reuses_count_covered_replays;
        Alcotest.test_case "released tables are clean" `Quick
          released_tables_are_clean;
        Alcotest.test_case "live allocators share no table" `Quick
          live_allocators_share_no_table;
        Alcotest.test_case "live map clean after a failed block" `Quick
          live_map_clean_after_failed_block;
      ] );
    ( "backend-properties",
      List.concat_map
        (fun name ->
          [
            QCheck_alcotest.to_alcotest (ops_property name);
            QCheck_alcotest.to_alcotest (reuse_property name);
          ])
        backend_names );
  ]
