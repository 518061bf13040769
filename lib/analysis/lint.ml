open Diagnostic

let rules =
  [
    { id = "double-free"; default_severity = Error; doc = "an object is freed twice" };
    {
      id = "free-without-alloc";
      default_severity = Error;
      doc = "a free with no preceding allocation of the object";
    };
    {
      id = "touch-after-free";
      default_severity = Error;
      doc = "a heap reference to an object outside its lifetime";
    };
    {
      id = "size-mismatch-at-free";
      default_severity = Error;
      doc = "a declared sized-deallocation size differs from the allocation";
    };
    {
      id = "realloc-of-unallocated";
      default_severity = Error;
      doc = "a realloc of an object with no preceding allocation";
    };
    {
      id = "realloc-after-free";
      default_severity = Error;
      doc = "a realloc of an object after its free";
    };
    {
      id = "realloc-size-regression";
      default_severity = Error;
      doc = "a realloc whose declared old size is not the object's current size";
    };
    {
      id = "nonpositive-size";
      default_severity = Error;
      doc = "an allocation of zero or negative size";
    };
    {
      id = "non-monotonic-birth";
      default_severity = Error;
      doc = "an allocation out of dense birth-timestamp order";
    };
    {
      id = "leaked-at-exit";
      default_severity = Warning;
      doc = "an object still live at the end of the trace";
    };
    {
      id = "chain-anomaly";
      default_severity = Warning;
      doc = "an allocation call-chain that is empty or absurdly deep";
    };
  ]

let default_max_chain_depth = 256

(* per-object replay state for the streaming pass *)
let unborn = -2
let live = -1
(* values >= 0 record the event index of the object's free *)

let run_source ?only ?disable ?(max_chain_depth = default_max_chain_depth)
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
        Lp_callchain.Chain.names
          (src.Lp_trace.Source.funcs ())
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

let run ?only ?disable ?max_chain_depth (trace : Lp_trace.Trace.t) =
  run_source ?only ?disable ?max_chain_depth (Lp_trace.Source.of_trace trace)

(* Sharded linting.  Each range replays [run_source]'s state machine
   seeded from its carry-in set (per-object state, last-alloc metadata),
   the footer's next-object id and the absolute first event index, so
   every in-range diagnostic carries exactly the indices and messages the
   sequential pass would emit.  Two rules need cross-range stitching:
   [chain-anomaly] fires once per chain at its first use, so each range
   reports its own first use tagged with the chain id and the merge keeps
   the earliest (ranges are walked in order, so "first seen" is "globally
   first"); [leaked-at-exit] needs the end-of-trace state, which the
   merge obtains by overlaying the ranges' end-state deltas in order —
   each range's end state equals the sequential machine's state at that
   point of the stream, so the last overlay wins exactly like the last
   event does. *)
type range_diag =
  | Plain of Diagnostic.t
  | Chain_once of int * Diagnostic.t  (** chain-anomaly, dedup at merge *)

type range_report = {
  lr_diags : range_diag list;  (** chronological *)
  lr_objs : int array;  (** objects whose state the range wrote *)
  lr_state : int array;  (** unborn / live / first-free event (absolute) *)
  lr_size : int array;
  lr_aevent : int array;
  lr_achain : int array;
}

let run_range ?only ?disable ?(max_chain_depth = default_max_chain_depth)
    (rg : Lp_trace.Sharded.range) =
  let enabled = select ~rules ?only ?disable () in
  let src = Lp_trace.Sharded.range_source rg in
  let out = ref [] in
  let emit ~rule ~severity ?event ?obj ?site message =
    if enabled rule then
      out := Plain (make ~rule ~severity ?event ?obj ?site message) :: !out
  in
  let emit_chain_once ~chain ~severity ?event ?obj ?site message =
    if enabled "chain-anomaly" then
      out :=
        Chain_once
          (chain, make ~rule:"chain-anomaly" ~severity ?event ?obj ?site message)
        :: !out
  in
  let render_chain chain_id =
    if chain_id < 0 || chain_id >= src.Lp_trace.Source.n_chains () then
      Printf.sprintf "chain %d" chain_id
    else
      let names =
        Lp_callchain.Chain.names
          (src.Lp_trace.Source.funcs ())
          (src.Lp_trace.Source.chain chain_id)
      in
      match names with
      | [] -> "<empty chain>"
      | _ ->
          let shown = List.filteri (fun i _ -> i < 3) names in
          String.concat "<-" shown
          ^ if List.length names > 3 then "<-…" else ""
  in
  let hint = max 64 (Array.length rg.Lp_trace.Sharded.rg_carry) in
  let state = Lp_trace.Grow.create ~default:unborn hint in
  let alloc_size = Lp_trace.Grow.create hint in
  let alloc_event = Lp_trace.Grow.create ~default:(-1) hint in
  let alloc_chain = Lp_trace.Grow.create ~default:(-1) hint in
  let chain_reported = Lp_trace.Grow.create 64 in
  let touched = Lp_trace.Grow.create 256 in
  let stamp = Lp_trace.Grow.create hint in
  let touch obj =
    if Lp_trace.Grow.get stamp obj = 0 then begin
      Lp_trace.Grow.set stamp obj 1;
      Lp_trace.Grow.push touched obj
    end
  in
  Array.iter
    (fun (cr : Lp_trace.Binio.carry) ->
      let obj = cr.Lp_trace.Binio.cr_obj in
      Lp_trace.Grow.set state obj
        (if cr.Lp_trace.Binio.cr_freed_at >= 0 then
           cr.Lp_trace.Binio.cr_freed_at
         else live);
      Lp_trace.Grow.set alloc_size obj cr.Lp_trace.Binio.cr_size;
      Lp_trace.Grow.set alloc_event obj cr.Lp_trace.Binio.cr_alloc_event;
      Lp_trace.Grow.set alloc_chain obj cr.Lp_trace.Binio.cr_alloc_chain)
    rg.Lp_trace.Sharded.rg_carry;
  let next_obj = ref rg.Lp_trace.Sharded.rg_next_obj in
  let event = ref (rg.Lp_trace.Sharded.rg_first_event - 1) in
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
            touch obj;
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
            let depth = Array.length (src.Lp_trace.Source.chain chain) in
            if depth = 0 then begin
              Lp_trace.Grow.set chain_reported chain 1;
              emit_chain_once ~chain ~severity:Warning ~event ~obj
                ~site:"<empty chain>"
                (Printf.sprintf "allocation call-chain %d is empty" chain)
            end
            else if depth > max_chain_depth then begin
              Lp_trace.Grow.set chain_reported chain 1;
              emit_chain_once ~chain ~severity:Warning ~event ~obj
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
            if st = live then begin
              touch obj;
              Lp_trace.Grow.set state obj event
            end
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
              (* the range's end-state size must be the resized one so the
                 merge overlay and later ranges agree with the sequential
                 machine (the carry-in sets snapshot post-realloc sizes) *)
              touch obj;
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
  let objs = Lp_trace.Grow.take touched in
  {
    lr_diags = List.rev !out;
    lr_objs = objs;
    lr_state = Array.map (Lp_trace.Grow.get state) objs;
    lr_size = Array.map (Lp_trace.Grow.get alloc_size) objs;
    lr_aevent = Array.map (Lp_trace.Grow.get alloc_event) objs;
    lr_achain = Array.map (Lp_trace.Grow.get alloc_chain) objs;
  }

let merge_ranges ?only ?disable (sh : Lp_trace.Sharded.t) reports =
  let enabled = select ~rules ?only ?disable () in
  let ix = Lp_trace.Sharded.index sh in
  let render_chain chain_id =
    if chain_id < 0 || chain_id >= Lp_trace.Binio.indexed_n_chains ix then
      Printf.sprintf "chain %d" chain_id
    else
      let names =
        Lp_callchain.Chain.names
          (Lp_trace.Binio.indexed_funcs ix)
          (Lp_trace.Binio.indexed_chain ix chain_id)
      in
      match names with
      | [] -> "<empty chain>"
      | _ ->
          let shown = List.filteri (fun i _ -> i < 3) names in
          String.concat "<-" shown
          ^ if List.length names > 3 then "<-…" else ""
  in
  let state = Lp_trace.Grow.create ~default:unborn 1024 in
  let alloc_size = Lp_trace.Grow.create 1024 in
  let alloc_event = Lp_trace.Grow.create ~default:(-1) 1024 in
  let alloc_chain = Lp_trace.Grow.create ~default:(-1) 1024 in
  List.iter
    (fun r ->
      Array.iteri
        (fun i obj ->
          Lp_trace.Grow.set state obj r.lr_state.(i);
          Lp_trace.Grow.set alloc_size obj r.lr_size.(i);
          Lp_trace.Grow.set alloc_event obj r.lr_aevent.(i);
          Lp_trace.Grow.set alloc_chain obj r.lr_achain.(i))
        r.lr_objs)
    reports;
  let seen_chains = Hashtbl.create 16 in
  let diags =
    List.concat_map
      (fun r ->
        List.filter_map
          (function
            | Plain d -> Some d
            | Chain_once (chain, d) ->
                if Hashtbl.mem seen_chains chain then None
                else begin
                  Hashtbl.add seen_chains chain ();
                  Some d
                end)
          r.lr_diags)
      reports
  in
  let leaks = ref [] in
  if enabled "leaked-at-exit" then
    for obj = (Lp_trace.Sharded.header sh).Lp_trace.Binio.n_objects - 1
        downto 0 do
      if Lp_trace.Grow.get state obj = live then
        leaks :=
          make ~rule:"leaked-at-exit" ~severity:Warning
            ~event:(Lp_trace.Grow.get alloc_event obj)
            ~obj
            ~site:(render_chain (Lp_trace.Grow.get alloc_chain obj))
            (Printf.sprintf "object %d (size %d) still live at end of trace"
               obj
               (Lp_trace.Grow.get alloc_size obj))
          :: !leaks
    done;
  diags @ !leaks

let run_sharded ?domains ?only ?disable ?max_chain_depth
    (sh : Lp_trace.Sharded.t) =
  merge_ranges ?only ?disable sh
    (Lifetime.Parallel.map_chunks ?domains
       ~n_chunks:(Lp_trace.Sharded.n_chunks sh) (fun ~first ~count ->
         run_range ?only ?disable ?max_chain_depth
           (Lp_trace.Sharded.range sh ~first ~count)))

let clean ds = not (has_errors ds)
