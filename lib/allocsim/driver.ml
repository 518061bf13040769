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
   single pure pass over the events, run exactly once per trace — [prepare]
   memoizes on trace identity — and the replay loop trusts every object id
   unconditionally.  The error messages are part of the public contract
   (tests assert the object id and event index) and must not change. *)

type prepared = { trace : Lp_trace.Trace.t }

let validate (trace : Lp_trace.Trace.t) =
  Lp_obs.Timings.count "replay.validations" 1;
  let n_objects = trace.n_objects in
  let live = Bytes.make n_objects '\000' in
  let events = trace.events in
  for event = 0 to Array.length events - 1 do
    match Array.unsafe_get events event with
    | Lp_trace.Event.Alloc { obj; _ } ->
        if obj < 0 || obj >= n_objects then
          event_error ~event "alloc of out-of-range" obj;
        if Bytes.unsafe_get live obj <> '\000' then
          event_error ~event "second alloc of live" obj;
        Bytes.unsafe_set live obj '\001'
    | Lp_trace.Event.Free { obj; _ } ->
        if obj < 0 || obj >= n_objects then
          event_error ~event "free of out-of-range" obj;
        if Bytes.unsafe_get live obj = '\000' then
          event_error ~event "free of never-allocated or already-freed" obj;
        Bytes.unsafe_set live obj '\000'
    | Lp_trace.Event.Realloc { obj; _ } ->
        if obj < 0 || obj >= n_objects then
          event_error ~event "realloc of out-of-range" obj;
        if Bytes.unsafe_get live obj = '\000' then
          event_error ~event "realloc of never-allocated or already-freed" obj
    | Lp_trace.Event.Touch { obj; _ } ->
        if obj < 0 || obj >= n_objects then
          event_error ~event "touch of out-of-range" obj
  done

(* Traces validated so far, by physical identity.  A Weak array so the memo
   never keeps a trace alive; a few slots suffice (the working set of live
   traces in any run is tiny) and a false miss only costs a re-validation.
   Mutex-guarded: [run] is documented as safe across domains. *)
let memo_lock = Mutex.create ()
let memo : Lp_trace.Trace.t Weak.t = Weak.create 32
let memo_next = ref 0

let memo_mem trace =
  Mutex.protect memo_lock (fun () ->
      let n = Weak.length memo in
      let rec go i =
        i < n
        &&
        match Weak.get memo i with
        | Some t when t == trace -> true
        | _ -> go (i + 1)
      in
      go 0)

let memo_add trace =
  Mutex.protect memo_lock (fun () ->
      let n = Weak.length memo in
      let rec mem i =
        i < n
        &&
        match Weak.get memo i with
        | Some t when t == trace -> true
        | _ -> mem (i + 1)
      in
      if not (mem 0) then begin
        Weak.set memo !memo_next (Some trace);
        memo_next := (!memo_next + 1) mod n
      end)

let prepare (trace : Lp_trace.Trace.t) : prepared =
  if not (memo_mem trace) then begin
    Lp_obs.Timings.time ~stage:"prepare"
      ~items:(Array.length trace.Lp_trace.Trace.events) (fun () ->
        validate trace);
    memo_add trace
  end;
  { trace }

let trace_of_prepared (p : prepared) = p.trace

(* The one replay engine: every backend — first-fit, best-fit, BSD, segfit,
   arena, and whatever the registry grows next — runs through this loop, so
   cache replay and Touch handling exist in exactly one place.  The no-cache
   loop is written flat (no per-event closures, unsafe array accesses only —
   [prepare] has already proved every object id in range and every state
   transition legal): replay throughput is the bench harness's headline
   number and every indirection here is paid tens of millions of times per
   run. *)
let run_prepared_impl ?cache ?predictor (p : prepared)
    (module B : Backend.BACKEND) : Metrics.t =
  let trace = p.trace in
  (* the object count pre-sizes backend tables; a pure speed knob *)
  let b = B.create ~hint:trace.n_objects () in
  let n_objects = trace.n_objects in
  let scratch = Scratch.acquire () in
  let addr_of, size_of, ref_cursor =
    Scratch.tables scratch ~n_objects ~cursor:(cache <> None)
  in
  Fun.protect ~finally:(fun () -> Scratch.release scratch) @@ fun () ->
  let live = ref 0 in
  let max_live = ref 0 in
  let total_bytes = ref 0 in
  (* the prediction front-end: only consulted (and billed) for backends
     that act on it, so e.g. a first-fit replay under a predictor stays
     byte-identical to one without *)
  let predictor = if B.uses_prediction then predictor else None in
  let reallocs = ref 0 in
  let realloc_in_place = ref 0 in
  let realloc_moves = ref 0 in
  (* oracle outcome tracking: under a predictor every object records its
     birth clock and last verdict, so the free path (and the end-of-trace
     survivor scan) can classify the prediction and feed the outcome back
     to a stateful oracle.  None of this charges simulated instructions,
     so metric values other than the mispredict counters are unaffected. *)
  let birth_of, flag_of =
    match predictor with
    | None -> ([||], Bytes.empty)
    | Some _ -> Scratch.predict_tables scratch ~n_objects
  in
  let predictions = ref 0 in
  let mis_short = ref 0 in
  let mis_long = ref 0 in
  let observe_outcome (p : predictor) ~obj ~survived =
    let birth = Array.unsafe_get birth_of obj in
    if birth >= 0 then begin
      let lifetime = !total_bytes - birth in
      let short = (not survived) && lifetime < p.short_threshold in
      if Bytes.unsafe_get flag_of obj <> '\000' then begin
        if not short then incr mis_short
      end
      else if short then incr mis_long;
      (match p.on_outcome with
      | Some f -> f ~obj ~lifetime ~survived
      | None -> ());
      Array.unsafe_set birth_of obj (-1)
    end
  in
  (* Resize an object, preferring the backend's native hook and falling
     back to free + alloc + copy.  The backend is handed the *tracked*
     current size (what its block actually holds); the clock/total-bytes
     charge uses the event's declared [old_size], mirroring
     [Trace.total_bytes] and the stats folds.  Returns the block's new
     payload address for the cache layer. *)
  let do_realloc ~obj ~old_size ~new_size ~chain ~key =
    let addr = Array.unsafe_get addr_of obj in
    let tracked = Array.unsafe_get size_of obj in
    let predicted =
      match predictor with
      | None -> false
      | Some p ->
          (* the resize site predicts like an allocation site (§5.1);
             the verdict flag follows the latest consultation, while the
             birth clock — like training — stays at the Alloc event *)
          B.charge_alloc b p.predict_cost;
          let v = p.predicted ~obj ~size:new_size ~chain ~key in
          incr predictions;
          Bytes.unsafe_set flag_of obj (if v then '\001' else '\000');
          v
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
    Array.unsafe_set addr_of obj new_addr;
    Array.unsafe_set size_of obj new_size;
    total_bytes := !total_bytes + max 0 (new_size - old_size);
    let l = !live - tracked + new_size in
    live := l;
    if l > !max_live then max_live := l;
    new_addr
  in
  let events = trace.events in
  let n_events = Array.length events in
  (match cache with
  | None ->
      for event = 0 to n_events - 1 do
        match Array.unsafe_get events event with
        | Lp_trace.Event.Alloc { obj; size; chain; key; _ } ->
            let predicted =
              match predictor with
              | None -> false
              | Some p ->
                  (* every allocation pays for the attempt to predict (§5.1);
                     the birth clock is the pre-increment allocation clock,
                     mirroring training's lifetime accounting *)
                  B.charge_alloc b p.predict_cost;
                  let v = p.predicted ~obj ~size ~chain ~key in
                  incr predictions;
                  Array.unsafe_set birth_of obj !total_bytes;
                  Bytes.unsafe_set flag_of obj (if v then '\001' else '\000');
                  v
            in
            let addr = B.alloc b ~size ~predicted in
            Array.unsafe_set addr_of obj addr;
            Array.unsafe_set size_of obj size;
            total_bytes := !total_bytes + size;
            let l = !live + size in
            live := l;
            if l > !max_live then max_live := l
        | Lp_trace.Event.Free { obj; _ } ->
            (* a declared sized-deallocation size is the linter's business,
               not the replay's: the allocator is handed only the address *)
            let addr = Array.unsafe_get addr_of obj in
            B.free b addr;
            live := !live - Array.unsafe_get size_of obj;
            Array.unsafe_set addr_of obj (-1);
            (match predictor with
            | Some p -> observe_outcome p ~obj ~survived:false
            | None -> ())
        | Lp_trace.Event.Realloc { obj; old_size; new_size; chain; key; _ } ->
            ignore (do_realloc ~obj ~old_size ~new_size ~chain ~key)
        | Lp_trace.Event.Touch _ -> ()
      done
  | Some c ->
      for event = 0 to n_events - 1 do
        match Array.unsafe_get events event with
        | Lp_trace.Event.Alloc { obj; size; chain; key; _ } ->
            let predicted =
              match predictor with
              | None -> false
              | Some p ->
                  B.charge_alloc b p.predict_cost;
                  let v = p.predicted ~obj ~size ~chain ~key in
                  incr predictions;
                  Array.unsafe_set birth_of obj !total_bytes;
                  Bytes.unsafe_set flag_of obj (if v then '\001' else '\000');
                  v
            in
            let addr = B.alloc b ~size ~predicted in
            Array.unsafe_set addr_of obj addr;
            Array.unsafe_set size_of obj size;
            total_bytes := !total_bytes + size;
            let l = !live + size in
            live := l;
            if l > !max_live then max_live := l;
            Cache.access_range c ~addr ~bytes:8
        | Lp_trace.Event.Free { obj; _ } ->
            let addr = Array.unsafe_get addr_of obj in
            B.free b addr;
            live := !live - Array.unsafe_get size_of obj;
            Cache.access_range c ~addr ~bytes:8;
            Array.unsafe_set addr_of obj (-1);
            (match predictor with
            | Some p -> observe_outcome p ~obj ~survived:false
            | None -> ())
        | Lp_trace.Event.Realloc { obj; old_size; new_size; chain; key; _ } ->
            let new_addr = do_realloc ~obj ~old_size ~new_size ~chain ~key in
            Cache.access_range c ~addr:new_addr ~bytes:8
        | Lp_trace.Event.Touch { obj; count } ->
            (* a Touch of n references walks the object at a 16-byte stride *)
            let addr = Array.unsafe_get addr_of obj in
            let size = Array.unsafe_get size_of obj in
            if addr >= 0 then
              for _ = 1 to count do
                Cache.access c (addr + (Array.unsafe_get ref_cursor obj mod max 1 size));
                Array.unsafe_set ref_cursor obj (Array.unsafe_get ref_cursor obj + 16)
              done
      done);
  (* survivors are mispredicted if predicted short-lived: classify them in
     object-id order (deterministic whatever the domain count) with the
     end-of-trace clock, mirroring training's survivor accounting *)
  (match predictor with
  | None -> ()
  | Some p ->
      for obj = 0 to n_objects - 1 do
        if Array.unsafe_get birth_of obj >= 0 then
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

let run_prepared ?cache ?predictor p ((module B : Backend.BACKEND) as backend) =
  let m =
    Lp_obs.Timings.time
      ~stage:("replay/" ^ B.name)
      ~items:(Array.length p.trace.Lp_trace.Trace.events)
      (fun () -> run_prepared_impl ?cache ?predictor p backend)
  in
  Lp_obs.Timings.note_peak_heap ();
  m

let run ?cache ?predictor trace backend =
  run_prepared ?cache ?predictor (prepare trace) backend

let run_named ?cache ?predictor ?arena_config trace name =
  run ?cache ?predictor trace (Registry.backend ?arena_config name)

(* The streaming twin of [run_prepared_impl]: one pull per event, per-object
   tables grow as ids appear (the final object count is unknown until the
   source is exhausted), so resident memory scales with the live-object
   population instead of the trace length.  Validation cannot be hoisted —
   there is no second pass over a stream — so it stays inline here; metrics
   are the same (the qcheck equivalence suite holds the two loops
   byte-identical) but the flat array loop above stays the hot path for
   in-memory replay. *)
let run_source_impl ?cache ?predictor (src : Lp_trace.Source.t)
    (module B : Backend.BACKEND) : Metrics.t =
  let hint =
    match src.Lp_trace.Source.n_objects_hint with Some n -> n | None -> 1024
  in
  let b = B.create ~hint () in
  let addr_of = Lp_trace.Grow.create ~default:(-1) hint in
  let size_of = Lp_trace.Grow.create hint in
  (* only touch simulation reads the per-object stride cursor; without a
     cache don't spend an object-sized array on it *)
  let ref_cursor =
    Lp_trace.Grow.create (match cache with Some _ -> hint | None -> 0)
  in
  let live = ref 0 in
  let max_live = ref 0 in
  let total_bytes = ref 0 in
  let predictor = if B.uses_prediction then predictor else None in
  let reallocs = ref 0 in
  let realloc_in_place = ref 0 in
  let realloc_moves = ref 0 in
  (* streaming twin of the prepared loop's oracle outcome tracking: Grow
     tables (the object population is unknown mid-stream), same semantics *)
  let tracking = match predictor with Some _ -> hint | None -> 0 in
  let birth_of = Lp_trace.Grow.create ~default:(-1) tracking in
  let flag_of = Lp_trace.Grow.create tracking in
  let max_obj = ref (-1) in
  let predictions = ref 0 in
  let mis_short = ref 0 in
  let mis_long = ref 0 in
  let observe_outcome (p : predictor) ~obj ~survived =
    let birth = Lp_trace.Grow.get birth_of obj in
    if birth >= 0 then begin
      let lifetime = !total_bytes - birth in
      let short = (not survived) && lifetime < p.short_threshold in
      if Lp_trace.Grow.get flag_of obj <> 0 then begin
        if not short then incr mis_short
      end
      else if short then incr mis_long;
      (match p.on_outcome with
      | Some f -> f ~obj ~lifetime ~survived
      | None -> ());
      Lp_trace.Grow.set birth_of obj (-1)
    end
  in
  (* streaming twin of [run_prepared_impl]'s [do_realloc]; Grow tables
     instead of flat arrays, identical semantics *)
  let do_realloc ~event ~obj ~old_size ~new_size ~chain ~key =
    if obj < 0 then event_error ~event "realloc of out-of-range" obj;
    let addr = Lp_trace.Grow.get addr_of obj in
    if addr < 0 then
      event_error ~event "realloc of never-allocated or already-freed" obj;
    let tracked = Lp_trace.Grow.get size_of obj in
    let predicted =
      match predictor with
      | None -> false
      | Some p ->
          B.charge_alloc b p.predict_cost;
          let v = p.predicted ~obj ~size:new_size ~chain ~key in
          incr predictions;
          Lp_trace.Grow.set flag_of obj (if v then 1 else 0);
          v
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
    Lp_trace.Grow.set addr_of obj new_addr;
    Lp_trace.Grow.set size_of obj new_size;
    total_bytes := !total_bytes + max 0 (new_size - old_size);
    let l = !live - tracked + new_size in
    live := l;
    if l > !max_live then max_live := l;
    new_addr
  in
  let event = ref (-1) in
  Lp_trace.Source.iter
    (fun ev ->
      incr event;
      let event = !event in
      match ev with
      | Lp_trace.Event.Alloc { obj; size; chain; key; _ } ->
          if obj < 0 then event_error ~event "alloc of out-of-range" obj;
          if Lp_trace.Grow.get addr_of obj >= 0 then
            event_error ~event "second alloc of live" obj;
          let predicted =
            match predictor with
            | None -> false
            | Some p ->
                B.charge_alloc b p.predict_cost;
                let v = p.predicted ~obj ~size ~chain ~key in
                incr predictions;
                Lp_trace.Grow.set birth_of obj !total_bytes;
                Lp_trace.Grow.set flag_of obj (if v then 1 else 0);
                if obj > !max_obj then max_obj := obj;
                v
          in
          let addr = B.alloc b ~size ~predicted in
          Lp_trace.Grow.set addr_of obj addr;
          Lp_trace.Grow.set size_of obj size;
          total_bytes := !total_bytes + size;
          let l = !live + size in
          live := l;
          if l > !max_live then max_live := l;
          (match cache with
          | Some c -> Cache.access_range c ~addr ~bytes:8
          | None -> ())
      | Lp_trace.Event.Free { obj; _ } ->
          if obj < 0 then event_error ~event "free of out-of-range" obj;
          let addr = Lp_trace.Grow.get addr_of obj in
          if addr < 0 then
            event_error ~event "free of never-allocated or already-freed" obj;
          B.free b addr;
          live := !live - Lp_trace.Grow.get size_of obj;
          (match cache with
          | Some c -> Cache.access_range c ~addr ~bytes:8
          | None -> ());
          Lp_trace.Grow.set addr_of obj (-1);
          (match predictor with
          | Some p -> observe_outcome p ~obj ~survived:false
          | None -> ())
      | Lp_trace.Event.Realloc { obj; old_size; new_size; chain; key; _ } -> (
          let new_addr =
            do_realloc ~event ~obj ~old_size ~new_size ~chain ~key
          in
          match cache with
          | Some c -> Cache.access_range c ~addr:new_addr ~bytes:8
          | None -> ())
      | Lp_trace.Event.Touch { obj; count } -> (
          if obj < 0 then event_error ~event "touch of out-of-range" obj;
          match cache with
          | None -> ()
          | Some c ->
              let addr = Lp_trace.Grow.get addr_of obj in
              let size = Lp_trace.Grow.get size_of obj in
              if addr >= 0 then
                for _ = 1 to count do
                  Cache.access c
                    (addr + (Lp_trace.Grow.get ref_cursor obj mod max 1 size));
                  Lp_trace.Grow.set ref_cursor obj
                    (Lp_trace.Grow.get ref_cursor obj + 16)
                done))
    src;
  (match predictor with
  | None -> ()
  | Some p ->
      for obj = 0 to !max_obj do
        if Lp_trace.Grow.get birth_of obj >= 0 then
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

let run_source ?cache ?predictor ?(decode_ahead = false) src
    ((module B : Backend.BACKEND) as backend) =
  let t0 = Lp_obs.Timings.now () in
  (* the replay loop below drains the source (or dies with the decode
     error), satisfying [decode_ahead]'s must-drain contract *)
  let piped = if decode_ahead then Lp_trace.Source.decode_ahead src else src in
  let m =
    match run_source_impl ?cache ?predictor piped backend with
    | m -> m
    | exception e ->
        (* a replay validation error abandons the stream mid-way; drain
           the wrapper so the producer domain retires before we re-raise *)
        let bt = Printexc.get_raw_backtrace () in
        if decode_ahead then
          (try Lp_trace.Source.iter ignore piped with _ -> ());
        Printexc.raise_with_backtrace e bt
  in
  Lp_obs.Timings.record
    ~stage:("replay/" ^ B.name)
    ~items:(Lp_trace.Source.events_streamed piped)
    (Lp_obs.Timings.now () -. t0);
  m
