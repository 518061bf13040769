module Grow = Lp_trace.Grow

type predictor = {
  predicted : obj:int -> size:int -> chain:int -> key:int -> bool;
  predict_cost : int;
  short_threshold : int;
  on_outcome : (obj:int -> lifetime:int -> survived:bool -> unit) option;
}

(* A malformed trace (free of a never-allocated object, double free, or an
   out-of-range object id) used to push addr_of.(obj) = -1 straight into the
   allocator and crash with an unrelated error deep inside it; validate here
   and name the object and the event index instead. *)
let event_error ~event what obj =
  failwith (Printf.sprintf "Driver.run: %s object %d at event %d" what obj event)

(* Decode-once/replay-many: the validation below used to run inline in the
   replay loop, so a candidate sweep paid it once per backend.  It is now a
   single pure pass over a block of events, and the replay loop trusts
   every object id unconditionally.  A prepared trace is one block, checked
   exactly once per trace — [prepare] memoizes on trace identity; a stream
   has no second pass, so each of its blocks is checked just before it is
   replayed.  The error messages are part of the public contract (tests
   assert the object id and event index) and must not change.

   [check_block ~limit live events ~first lo hi] checks events [lo, hi),
   the first of which is event [first] of the whole trace.  Ids at or
   above [limit] are out of range.  [live] is the map of live objects, a
   byte per id, and grows to cover every allocated id.  A size <= 0 is
   rejected here too: every backend refuses it with an unlocated
   [Invalid_argument]. *)
let check_block ~limit live events ~first lo hi =
  for i = lo to hi - 1 do
    let event = first + i - lo in
    match Array.unsafe_get events i with
    | Lp_trace.Event.Alloc { obj; size; _ } ->
        if obj < 0 || obj >= limit then
          event_error ~event "alloc of out-of-range" obj;
        if obj >= Bytes.length !live then
          live := Grow.widen_bytes !live obj;
        if Bytes.unsafe_get !live obj <> '\000' then
          event_error ~event "second alloc of live" obj;
        if size <= 0 then
          event_error ~event (Printf.sprintf "alloc of size %d for" size) obj;
        Bytes.unsafe_set !live obj '\001'
    | Lp_trace.Event.Free { obj; _ } ->
        if obj < 0 || obj >= limit then
          event_error ~event "free of out-of-range" obj;
        if obj >= Bytes.length !live || Bytes.unsafe_get !live obj = '\000' then
          event_error ~event "free of never-allocated or already-freed" obj;
        Bytes.unsafe_set !live obj '\000'
    | Lp_trace.Event.Realloc { obj; new_size; _ } ->
        if obj < 0 || obj >= limit then
          event_error ~event "realloc of out-of-range" obj;
        if obj >= Bytes.length !live || Bytes.unsafe_get !live obj = '\000' then
          event_error ~event "realloc of never-allocated or already-freed" obj;
        if new_size <= 0 then
          event_error ~event (Printf.sprintf "realloc to size %d of" new_size) obj
    | Lp_trace.Event.Touch { obj; _ } ->
        if obj < 0 || obj >= limit then
          event_error ~event "touch of out-of-range" obj
  done

type prepared = { trace : Lp_trace.Trace.t }

(* Traces validated so far, by physical identity.  A Weak array so the memo
   never keeps a trace alive; a few slots suffice (the working set of live
   traces in any run is tiny) and a false miss only costs a re-validation.
   Mutex-guarded: [run] is documented as safe across domains. *)
let memo_lock = Mutex.create ()
let memo : Lp_trace.Trace.t Weak.t = Weak.create 32
let memo_next = ref 0

let memo_find trace =
  let rec go i =
    i < Weak.length memo
    && match Weak.get memo i with Some t when t == trace -> true | _ -> go (i + 1)
  in
  go 0

let memo_add trace =
  Mutex.protect memo_lock (fun () ->
      if not (memo_find trace) then begin
        Weak.set memo !memo_next (Some trace);
        memo_next := (!memo_next + 1) mod Weak.length memo
      end)

let prepare (trace : Lp_trace.Trace.t) : prepared =
  if not (Mutex.protect memo_lock (fun () -> memo_find trace)) then begin
    let events = trace.Lp_trace.Trace.events in
    let n_objects = trace.n_objects in
    Lp_obs.Timings.time ~stage:"prepare" ~items:(Array.length events)
      (fun () ->
        Lp_obs.Timings.count "replay.validations" 1;
        check_block ~limit:n_objects
          (ref (Bytes.make n_objects '\000'))
          events ~first:0 0 (Array.length events));
    memo_add trace
  end;
  { trace }

(* The per-object tables of a replay, leased from the calling domain's
   pool like every backend's tables.  Only cache-simulating replays use
   [ref_cursor], and only predicting replays [birth_of] and [flag_of]. *)
type tables = {
  mutable addr_of : int array;  (* obj -> payload address, -1 = dead *)
  mutable size_of : int array;  (* obj -> tracked payload size *)
  mutable ref_cursor : int array;  (* obj -> Touch stride cursor *)
  mutable birth_of : int array;  (* obj -> clock at birth, -1 = unborn *)
  mutable flag_of : Bytes.t;  (* obj -> last oracle verdict, '\001' = short *)
}

let pool =
  Scratch.pool (fun () ->
      {
        addr_of = [||];
        size_of = [||];
        ref_cursor = [||];
        birth_of = [||];
        flag_of = Bytes.empty;
      })

(* The one replay engine: every backend — first-fit, best-fit, BSD, segfit,
   arena, and whatever the registry grows next — and every feeder, prepared
   or streamed, runs through this loop, so cache replay and Touch handling
   exist in exactly one place.  [feed] hands it blocks of events through
   [block ~cover events lo hi]: events [lo, hi) have passed [check_block],
   and every object id they allocate is below [cover].  The loop is
   written flat (unsafe array accesses only, the block being validated;
   [consult] and [observe_outcome] inlined into it): replay throughput
   is the bench harness's headline number and every indirection here is
   paid tens of millions of times per run. *)
let replay ?cache ?predictor (module B : Backend.BACKEND) ~hint feed : Metrics.t
    =
  (* the prediction front-end: only consulted (and billed) for backends
     that act on it, so e.g. a first-fit replay under a predictor stays
     byte-identical to one without *)
  let predictor = if B.uses_prediction then predictor else None in
  let cached = Option.is_some cache in
  let predicting = Option.is_some predictor in
  let b = B.create () in
  let lease = Scratch.lease pool in
  let tb = Scratch.leased lease in
  (* the leased tables already cover the hint *)
  if Array.length tb.addr_of >= hint then
    Lp_obs.Timings.count "replay.scratch_reuses" 1;
  (* The tables cover object ids [0, !covered), the only ids a replay
     writes: sized by the hint, grown when a streamed block allocates
     beyond them, and reset on that prefix when they go back.  The
     metrics are read before the driver and the backend give their
     tables back. *)
  let covered = ref 0 in
  Fun.protect ~finally:(fun () ->
      let n = !covered in
      Array.fill tb.addr_of 0 n (-1);
      Array.fill tb.size_of 0 n 0;
      if cached then Array.fill tb.ref_cursor 0 n 0;
      if predicting then begin
        Array.fill tb.birth_of 0 n (-1);
        Bytes.fill tb.flag_of 0 n '\000'
      end;
      Scratch.give_back lease tb;
      B.release b)
  @@ fun () ->
  let cover_ids n =
    if n > !covered then begin
      let top = n - 1 in
      tb.addr_of <- Grow.widen tb.addr_of ~default:(-1) top;
      tb.size_of <- Grow.widen tb.size_of ~default:0 top;
      if cached then tb.ref_cursor <- Grow.widen tb.ref_cursor ~default:0 top;
      if predicting then begin
        tb.birth_of <- Grow.widen tb.birth_of ~default:(-1) top;
        tb.flag_of <- Grow.widen_bytes tb.flag_of top
      end;
      covered := n
    end
  in
  cover_ids hint;
  let live = ref 0 in
  let max_live = ref 0 in
  let total_bytes = ref 0 in
  let reallocs = ref 0 in
  let realloc_in_place = ref 0 in
  let realloc_moves = ref 0 in
  (* oracle outcome tracking: under a predictor every object records its
     birth clock and last verdict, so the free path (and the end-of-trace
     survivor scan) can classify the prediction and feed the outcome back
     to a stateful oracle.  None of this charges simulated instructions,
     so metric values other than the mispredict counters are unaffected. *)
  let predictions = ref 0 in
  let mis_short = ref 0 in
  let mis_long = ref 0 in
  let[@inline] observe_outcome (p : predictor) ~obj ~survived =
    let birth = Array.unsafe_get tb.birth_of obj in
    if birth >= 0 then begin
      let lifetime = !total_bytes - birth in
      let short = (not survived) && lifetime < p.short_threshold in
      if Bytes.unsafe_get tb.flag_of obj <> '\000' then begin
        if not short then incr mis_short
      end
      else if short then incr mis_long;
      (match p.on_outcome with
      | Some f -> f ~obj ~lifetime ~survived
      | None -> ());
      Array.unsafe_set tb.birth_of obj (-1)
    end
  in
  (* every allocation — and every resize, whose site predicts like an
     allocation site (§5.1) — pays for the attempt to predict; the
     verdict flag follows the latest consultation *)
  let[@inline] consult (p : predictor) ~obj ~size ~chain ~key =
    B.charge_alloc b p.predict_cost;
    let v = p.predicted ~obj ~size ~chain ~key in
    incr predictions;
    Bytes.unsafe_set tb.flag_of obj (if v then '\001' else '\000');
    v
  in
  (* Resize an object, preferring the backend's native hook and falling
     back to free + alloc + copy.  The backend is handed the *tracked*
     current size (what its block actually holds); the clock/total-bytes
     charge uses the event's declared [old_size], mirroring
     [Trace.total_bytes] and the stats folds.  Returns the block's new
     payload address for the cache layer. *)
  let do_realloc ~obj ~old_size ~new_size ~chain ~key =
    let addr = Array.unsafe_get tb.addr_of obj in
    let tracked = Array.unsafe_get tb.size_of obj in
    (* the birth clock — like training — stays at the Alloc event *)
    let predicted =
      match predictor with
      | None -> false
      | Some p -> consult p ~obj ~size:new_size ~chain ~key
    in
    let new_addr, moved =
      match B.realloc with
      | Some f ->
          let a = f b ~addr ~old_size:tracked ~new_size ~predicted in
          (a, a <> addr)
      | None ->
          B.free b addr;
          (B.alloc b ~size:new_size ~predicted, true)
    in
    incr reallocs;
    if moved then begin
      incr realloc_moves;
      B.charge_alloc b
        (Cost_model.realloc_move_base
        + Cost_model.realloc_copy (min tracked new_size))
    end
    else begin
      incr realloc_in_place;
      B.charge_alloc b Cost_model.realloc_in_place
    end;
    Array.unsafe_set tb.addr_of obj new_addr;
    Array.unsafe_set tb.size_of obj new_size;
    total_bytes := !total_bytes + max 0 (new_size - old_size);
    let l = !live - tracked + new_size in
    live := l;
    if l > !max_live then max_live := l;
    new_addr
  in
  let block ~cover events lo hi =
    cover_ids cover;
    (* the tables only change between blocks *)
    let addr_of = tb.addr_of and size_of = tb.size_of in
    for i = lo to hi - 1 do
      match Array.unsafe_get events i with
      | Lp_trace.Event.Alloc { obj; size; chain; key; _ } ->
          let predicted =
            match predictor with
            | None -> false
            | Some p ->
                (* the birth clock is the pre-increment allocation clock,
                   mirroring training's lifetime accounting *)
                Array.unsafe_set tb.birth_of obj !total_bytes;
                consult p ~obj ~size ~chain ~key
          in
          let addr = B.alloc b ~size ~predicted in
          Array.unsafe_set addr_of obj addr;
          Array.unsafe_set size_of obj size;
          total_bytes := !total_bytes + size;
          let l = !live + size in
          live := l;
          if l > !max_live then max_live := l;
          (match cache with
          | Some c -> Cache.access_range c ~addr ~bytes:8
          | None -> ())
      | Lp_trace.Event.Free { obj; _ } ->
          (* a declared sized-deallocation size is the linter's business,
             not the replay's: the allocator is handed only the address *)
          let addr = Array.unsafe_get addr_of obj in
          B.free b addr;
          live := !live - Array.unsafe_get size_of obj;
          (match cache with
          | Some c -> Cache.access_range c ~addr ~bytes:8
          | None -> ());
          Array.unsafe_set addr_of obj (-1);
          (match predictor with
          | Some p -> observe_outcome p ~obj ~survived:false
          | None -> ())
      | Lp_trace.Event.Realloc { obj; old_size; new_size; chain; key; _ } -> (
          let new_addr = do_realloc ~obj ~old_size ~new_size ~chain ~key in
          match cache with
          | Some c -> Cache.access_range c ~addr:new_addr ~bytes:8
          | None -> ())
      | Lp_trace.Event.Touch { obj; count } -> (
          match cache with
          (* a streamed Touch may name an id no table covers *)
          | Some c when obj < cover ->
              (* a Touch of n references walks the object at a 16-byte stride *)
              let addr = Array.unsafe_get addr_of obj in
              let size = Array.unsafe_get size_of obj in
              let cursor = tb.ref_cursor in
              if addr >= 0 then
                for _ = 1 to count do
                  Cache.access c
                    (addr + (Array.unsafe_get cursor obj mod max 1 size));
                  Array.unsafe_set cursor obj (Array.unsafe_get cursor obj + 16)
                done
          | _ -> ())
    done
  in
  feed block;
  (* survivors are mispredicted if predicted short-lived: classify them in
     object-id order (deterministic whatever the domain count) with the
     end-of-trace clock, mirroring training's survivor accounting *)
  (match predictor with
  | None -> ()
  | Some p ->
      for obj = 0 to !covered - 1 do
        if Array.unsafe_get tb.birth_of obj >= 0 then
          observe_outcome p ~obj ~survived:true
      done);
  {
    Metrics.algorithm = B.name;
    allocs = B.allocs b;
    frees = B.frees b;
    reallocs = !reallocs;
    realloc_in_place = !realloc_in_place;
    realloc_moves = !realloc_moves;
    predictions = !predictions;
    mispredicts_short_lived = !mis_short;
    mispredicts_long_lived = !mis_long;
    total_bytes = !total_bytes;
    max_heap = B.max_heap_size b;
    max_live = !max_live;
    instr_per_alloc =
      float_of_int (B.alloc_instr b) /. float_of_int (max 1 (B.allocs b));
    instr_per_free =
      float_of_int (B.free_instr b) /. float_of_int (max 1 (B.frees b));
    extra = B.extra b;
  }

(* The prepared feeder: the whole trace is one block, validated once by
   [prepare]. *)
let run_prepared ?cache ?predictor p ((module B : Backend.BACKEND) as backend) =
  let trace = p.trace in
  let n_events = Array.length trace.events in
  let m =
    Lp_obs.Timings.time ~stage:("replay/" ^ B.name) ~items:n_events (fun () ->
        replay ?cache ?predictor backend ~hint:trace.n_objects (fun block ->
            block ~cover:trace.n_objects trace.events 0 n_events))
  in
  Lp_obs.Timings.note_peak_heap ();
  m

let run ?cache ?predictor trace backend =
  run_prepared ?cache ?predictor (prepare trace) backend

let run_named ?cache ?predictor ?arena_config trace name =
  run ?cache ?predictor trace (Registry.backend ?arena_config name)

(* The streamed feeder: one pull per event into a block of
   [block_events], validated and replayed when full, so resident memory
   scales with the live-object population instead of the trace length
   (the final object count is unknown until the source is exhausted, so
   the tables grow as ids appear).  Each block is a fresh array in the
   minor heap: a long-lived buffer would sit in the major heap, and every
   event stored into it would pass through the remembered set and be
   promoted.  A minor collection still promotes the block in flight with
   its events; 128 slots (half the largest array the minor heap takes)
   keeps that to about 0.05 Mwords per replay of gawk-test at scale 0.25. *)
let block_events = 128
let no_event = Lp_trace.Event.Touch { obj = 0; count = 0 }

let replay_source ?cache ?predictor (src : Lp_trace.Source.t) backend =
  let hint = match src.n_objects_hint with Some n -> n | None -> 1024 in
  replay ?cache ?predictor backend ~hint (fun block ->
      let live = ref (Bytes.make hint '\000') in
      let buf = ref (Array.make block_events no_event) in
      let filled = ref 0 and first = ref 0 in
      let flush () =
        check_block ~limit:max_int live !buf ~first:!first 0 !filled;
        block ~cover:(Bytes.length !live) !buf 0 !filled;
        first := !first + !filled;
        filled := 0;
        buf := Array.make block_events no_event
      in
      Lp_trace.Source.iter
        (fun ev ->
          Array.unsafe_set !buf !filled ev;
          incr filled;
          if !filled = block_events then flush ())
        src;
      if !filled > 0 then flush ())

let run_source ?cache ?predictor src ((module B : Backend.BACKEND) as backend) =
  let t0 = Lp_obs.Timings.now () in
  let m = replay_source ?cache ?predictor src backend in
  Lp_obs.Timings.record
    ~stage:("replay/" ^ B.name)
    ~items:(Lp_trace.Source.events_streamed src)
    (Lp_obs.Timings.now () -. t0);
  m
