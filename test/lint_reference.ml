(* The PRE-ENGINE sequential linter, retained verbatim as the reference
   implementation for the lint equivalence properties in
   test_sharded.ml.

   This is the [Lint.run_source] lib/analysis/lint.ml shipped before the
   linter became a domain of the fold engine: its own event counter and
   per-object state, size, event and chain tables, and its own leak scan
   at exhaustion.  The engine-driven linter (streamed, and merged over
   any covering partition of a sharded trace) must produce the identical
   diagnostics — same rules, indices, sites and messages, in the same
   order — for any trace; qcheck drives both.

   Do not "clean up" or optimize this module: its value is that it stays
   frozen while the production linter evolves. *)

open Lp_analysis.Diagnostic

let rules = Lp_analysis.Lint.rules


(* per-object replay state for the streaming pass *)
let unborn = -2
let live = -1
(* values >= 0 record the event index of the object's free *)

let run_source ?only ?disable ?(max_chain_depth = Lp_analysis.Lint.default_max_chain_depth)
    (src : Lp_trace.Source.t) =
  let enabled = select ~rules ?only ?disable () in
  let out = ref [] in
  let emit ~rule ~severity ?event ?obj ?site message =
    if enabled rule then
      out := make ~rule ~severity ?event ?obj ?site message :: !out
  in
  let render_chain chain_id =
    if chain_id < 0 || chain_id >= src.Lp_trace.Source.n_chains () then
      Printf.sprintf "chain %d" chain_id
    else
      let names =
        Lp_callchain.Chain.names src.Lp_trace.Source.funcs
          (src.Lp_trace.Source.chain chain_id)
      in
      match names with
      | [] -> "<empty chain>"
      | _ ->
          let shown = List.filteri (fun i _ -> i < 3) names in
          String.concat "<-" shown
          ^ if List.length names > 3 then "<-…" else ""
  in
  let hint =
    match src.Lp_trace.Source.n_objects_hint with
    | Some n -> max 1 n
    | None -> 1024
  in
  let state = Lp_trace.Grow.create ~default:unborn hint in
  let alloc_size = Lp_trace.Grow.create hint in
  let alloc_event = Lp_trace.Grow.create ~default:(-1) hint in
  let alloc_chain = Lp_trace.Grow.create ~default:(-1) hint in
  (* chain anomalies are per chain, reported once at the chain's first use *)
  let chain_reported = Lp_trace.Grow.create 64 in
  let next_obj = ref 0 in
  let event = ref (-1) in
  Lp_trace.Source.iter
    (fun ev ->
      incr event;
      let event = !event in
      match (ev : Lp_trace.Event.t) with
      | Alloc { obj; size; chain; _ } ->
          if size <= 0 then
            emit ~rule:"nonpositive-size" ~severity:Error ~event ~obj
              ~site:(render_chain chain)
              (Printf.sprintf "allocation of object %d with size %d" obj size);
          if obj <> !next_obj then
            emit ~rule:"non-monotonic-birth" ~severity:Error ~event ~obj
              (Printf.sprintf
                 "allocation of object %d out of birth order (expected \
                  object %d)"
                 obj !next_obj);
          if obj >= 0 then begin
            if obj >= !next_obj then next_obj := obj + 1;
            Lp_trace.Grow.set state obj live;
            Lp_trace.Grow.set alloc_size obj size;
            Lp_trace.Grow.set alloc_event obj event;
            Lp_trace.Grow.set alloc_chain obj chain
          end
          else incr next_obj;
          if
            chain >= 0
            && chain < src.Lp_trace.Source.n_chains ()
            && Lp_trace.Grow.get chain_reported chain = 0
          then begin
            let depth =
              Array.length (src.Lp_trace.Source.chain chain)
            in
            if depth = 0 then begin
              Lp_trace.Grow.set chain_reported chain 1;
              emit ~rule:"chain-anomaly" ~severity:Warning ~event ~obj
                ~site:"<empty chain>"
                (Printf.sprintf "allocation call-chain %d is empty" chain)
            end
            else if depth > max_chain_depth then begin
              Lp_trace.Grow.set chain_reported chain 1;
              emit ~rule:"chain-anomaly" ~severity:Warning ~event ~obj
                ~site:(render_chain chain)
                (Printf.sprintf
                   "allocation call-chain %d has depth %d (limit %d)" chain
                   depth max_chain_depth)
            end
          end
      | Free { obj; size } ->
          if obj < 0 || Lp_trace.Grow.get state obj = unborn then
            emit ~rule:"free-without-alloc" ~severity:Error ~event ~obj
              (Printf.sprintf "free of object %d which has not been allocated"
                 obj)
          else begin
            let st = Lp_trace.Grow.get state obj in
            (if st >= 0 then
               emit ~rule:"double-free" ~severity:Error ~event ~obj
                 ~site:(render_chain (Lp_trace.Grow.get alloc_chain obj))
                 (Printf.sprintf
                    "object %d freed again (first freed at event %d)" obj st));
            if size >= 0 && size <> Lp_trace.Grow.get alloc_size obj then
              emit ~rule:"size-mismatch-at-free" ~severity:Error ~event ~obj
                ~site:(render_chain (Lp_trace.Grow.get alloc_chain obj))
                (Printf.sprintf
                   "free declares size %d but object %d was allocated with \
                    size %d at event %d"
                   size obj
                   (Lp_trace.Grow.get alloc_size obj)
                   (Lp_trace.Grow.get alloc_event obj));
            if st = live then Lp_trace.Grow.set state obj event
          end
      | Realloc { obj; old_size; new_size; chain; _ } ->
          if new_size <= 0 then
            emit ~rule:"nonpositive-size" ~severity:Error ~event ~obj
              ~site:(render_chain chain)
              (Printf.sprintf "realloc of object %d to size %d" obj new_size);
          if obj < 0 || Lp_trace.Grow.get state obj = unborn then
            emit ~rule:"realloc-of-unallocated" ~severity:Error ~event ~obj
              ~site:(render_chain chain)
              (Printf.sprintf
                 "realloc of object %d which has not been allocated" obj)
          else begin
            let st = Lp_trace.Grow.get state obj in
            if st >= 0 then
              emit ~rule:"realloc-after-free" ~severity:Error ~event ~obj
                ~site:(render_chain (Lp_trace.Grow.get alloc_chain obj))
                (Printf.sprintf
                   "realloc of object %d after its free at event %d" obj st)
            else begin
              (if old_size <> Lp_trace.Grow.get alloc_size obj then
                 emit ~rule:"realloc-size-regression" ~severity:Error ~event
                   ~obj
                   ~site:(render_chain (Lp_trace.Grow.get alloc_chain obj))
                   (Printf.sprintf
                      "realloc declares old size %d but object %d currently \
                       has size %d (allocated at event %d)"
                      old_size obj
                      (Lp_trace.Grow.get alloc_size obj)
                      (Lp_trace.Grow.get alloc_event obj)));
              (* later size checks are against the resized object *)
              Lp_trace.Grow.set alloc_size obj new_size
            end
          end
      | Touch { obj; _ } ->
          if obj < 0 || Lp_trace.Grow.get state obj = unborn then
            emit ~rule:"touch-after-free" ~severity:Error ~event ~obj
              (Printf.sprintf "touch of object %d before its allocation" obj)
          else
            let st = Lp_trace.Grow.get state obj in
            if st >= 0 then
              emit ~rule:"touch-after-free" ~severity:Error ~event ~obj
                ~site:(render_chain (Lp_trace.Grow.get alloc_chain obj))
                (Printf.sprintf "touch of object %d after its free at event %d"
                   obj st))
    src;
  for obj = 0 to src.Lp_trace.Source.n_objects_now () - 1 do
    if Lp_trace.Grow.get state obj = live then
      emit ~rule:"leaked-at-exit" ~severity:Warning
        ~event:(Lp_trace.Grow.get alloc_event obj)
        ~obj
        ~site:(render_chain (Lp_trace.Grow.get alloc_chain obj))
        (Printf.sprintf "object %d (size %d) still live at end of trace" obj
           (Lp_trace.Grow.get alloc_size obj))
  done;
  List.rev !out


