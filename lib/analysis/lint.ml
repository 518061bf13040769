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

(* per-object replay state *)
let unborn = -2
let live = -1
(* values >= 0 record the event index of the object's first free *)

(* The linter as an engine domain.  A range replays the state machine
   below seeded from its carry-in set (per-object state, last-alloc size
   and event; the birth chain is the engine's), the footer's next-object
   id and the absolute first event index, so every in-range diagnostic
   carries exactly the indices and messages the sequential pass emits —
   the sequential pass being the one range that covers the trace.  Two
   rules need cross-range stitching: [chain-anomaly] fires once per
   chain at its first use, so each range reports its own first use
   tagged with the chain id and the merge keeps the earliest (ranges are
   walked in order, so "first seen" is "globally first");
   [leaked-at-exit] needs the end-of-trace state, which the merge
   obtains by overlaying the ranges' written per-object state in order —
   each range's end state equals the sequential machine's state at that
   point of the stream, so the last overlay wins exactly like the last
   event does.  A single range is read in place. *)
type range_diag =
  | Plain of Diagnostic.t
  | Chain_once of int * Diagnostic.t  (** chain-anomaly, dedup at merge *)

type range = {
  lr_diags : range_diag list;  (** chronological *)
  lr_state : Lp_trace.Grow.t;  (** by object id: unborn / live / first free *)
  lr_size : Lp_trace.Grow.t;
  lr_aevent : Lp_trace.Grow.t;
  lr_achain : int array;  (** the engine's birth-chain table *)
  lr_written : Bytes.t;  (** by object id: non-zero iff the range wrote it *)
  lr_src : Lp_trace.Source.t;  (** drained: object count, chain tables *)
}

type Lp_trace.Absint.token += Range of range | Merged of Diagnostic.t list

let enter ~enabled ~max_chain_depth (ctx : Lp_trace.Absint.ctx) =
  let module A = Lp_trace.Absint in
  let module G = Lp_trace.Grow in
  let src = ctx.A.cx_src and en = ctx.A.cx_entry in
  let out = ref [] in
  let emit ~rule ~severity ?obj ?site message =
    if enabled rule then
      out :=
        Plain (make ~rule ~severity ~event:ctx.A.cx_event ?obj ?site message)
        :: !out
  in
  let emit_chain_once ~chain ~severity ~obj ~site message =
    if enabled "chain-anomaly" then
      out :=
        Chain_once
          ( chain,
            make ~rule:"chain-anomaly" ~severity ~event:ctx.A.cx_event ~obj
              ~site message )
        :: !out
  in
  let render_chain = A.render_chain src in
  let birth_site obj = render_chain (A.birth_chain ctx obj) in
  let hint = max 16 en.A.en_objects in
  (* lint keeps its own size table: a realloc after the free leaves it
     alone, where the engine's current size follows the realloc *)
  let state = G.create ~default:unborn hint in
  let alloc_size = G.create hint in
  let alloc_event = G.create ~default:(-1) hint in
  let written = ref (Bytes.make hint '\000') in
  let touch obj =
    if obj < 0 || obj >= Bytes.length !written then
      written := G.widen_bytes !written obj;
    Bytes.unsafe_set !written obj '\001'
  in
  (* chain anomalies are per chain, reported once at the chain's first use *)
  let chain_reported = G.create 64 in
  Array.iter
    (fun (cr : Lp_trace.Binio.carry) ->
      let obj = cr.Lp_trace.Binio.cr_obj in
      G.set state obj
        (if cr.Lp_trace.Binio.cr_freed_at >= 0 then cr.Lp_trace.Binio.cr_freed_at
         else live);
      G.set alloc_size obj cr.Lp_trace.Binio.cr_size;
      G.set alloc_event obj cr.Lp_trace.Binio.cr_alloc_event)
    en.A.en_carry;
  let next_obj = ref en.A.en_next_obj in
  let step (ev : Lp_trace.Event.t) =
    match ev with
    | Alloc { obj; size; chain; _ } ->
        if size <= 0 then
          emit ~rule:"nonpositive-size" ~severity:Error ~obj
            ~site:(render_chain chain)
            (Printf.sprintf "allocation of object %d with size %d" obj size);
        if obj <> !next_obj then
          emit ~rule:"non-monotonic-birth" ~severity:Error ~obj
            (Printf.sprintf
               "allocation of object %d out of birth order (expected object \
                %d)"
               obj !next_obj);
        if obj >= 0 then begin
          if obj >= !next_obj then next_obj := obj + 1;
          touch obj;
          G.set state obj live;
          G.set alloc_size obj size;
          G.set alloc_event obj ctx.A.cx_event
        end
        else incr next_obj;
        if
          chain >= 0
          && chain < src.Lp_trace.Source.n_chains ()
          && G.get chain_reported chain = 0
        then begin
          let depth = A.chain_depth src chain in
          if depth = 0 then begin
            G.set chain_reported chain 1;
            emit_chain_once ~chain ~severity:Warning ~obj ~site:"<empty chain>"
              (Printf.sprintf "allocation call-chain %d is empty" chain)
          end
          else if depth > max_chain_depth then begin
            G.set chain_reported chain 1;
            emit_chain_once ~chain ~severity:Warning ~obj
              ~site:(render_chain chain)
              (Printf.sprintf "allocation call-chain %d has depth %d (limit %d)"
                 chain depth max_chain_depth)
          end
        end
    | Free { obj; size } ->
        if obj < 0 || G.get state obj = unborn then
          emit ~rule:"free-without-alloc" ~severity:Error ~obj
            (Printf.sprintf "free of object %d which has not been allocated" obj)
        else begin
          let st = G.get state obj in
          if st >= 0 then
            emit ~rule:"double-free" ~severity:Error ~obj ~site:(birth_site obj)
              (Printf.sprintf "object %d freed again (first freed at event %d)"
                 obj st);
          if size >= 0 && size <> G.get alloc_size obj then
            emit ~rule:"size-mismatch-at-free" ~severity:Error ~obj
              ~site:(birth_site obj)
              (Printf.sprintf
                 "free declares size %d but object %d was allocated with size \
                  %d at event %d"
                 size obj (G.get alloc_size obj) (G.get alloc_event obj));
          if st = live then begin
            touch obj;
            G.set state obj ctx.A.cx_event
          end
        end
    | Realloc { obj; old_size; new_size; chain; _ } ->
        if new_size <= 0 then
          emit ~rule:"nonpositive-size" ~severity:Error ~obj
            ~site:(render_chain chain)
            (Printf.sprintf "realloc of object %d to size %d" obj new_size);
        if obj < 0 || G.get state obj = unborn then
          emit ~rule:"realloc-of-unallocated" ~severity:Error ~obj
            ~site:(render_chain chain)
            (Printf.sprintf "realloc of object %d which has not been allocated"
               obj)
        else begin
          let st = G.get state obj in
          if st >= 0 then
            emit ~rule:"realloc-after-free" ~severity:Error ~obj
              ~site:(birth_site obj)
              (Printf.sprintf "realloc of object %d after its free at event %d"
                 obj st)
          else begin
            if old_size <> G.get alloc_size obj then
              emit ~rule:"realloc-size-regression" ~severity:Error ~obj
                ~site:(birth_site obj)
                (Printf.sprintf
                   "realloc declares old size %d but object %d currently has \
                    size %d (allocated at event %d)"
                   old_size obj (G.get alloc_size obj) (G.get alloc_event obj));
            (* later size checks are against the resized object *)
            touch obj;
            G.set alloc_size obj new_size
          end
        end
    | Touch { obj; _ } ->
        if obj < 0 || G.get state obj = unborn then
          emit ~rule:"touch-after-free" ~severity:Error ~obj
            (Printf.sprintf "touch of object %d before its allocation" obj)
        else
          let st = G.get state obj in
          if st >= 0 then
            emit ~rule:"touch-after-free" ~severity:Error ~obj
              ~site:(birth_site obj)
              (Printf.sprintf "touch of object %d after its free at event %d" obj
                 st)
  in
  let finish () =
    Range
      {
        lr_diags = List.rev !out;
        lr_state = state;
        lr_size = alloc_size;
        lr_aevent = alloc_event;
        lr_achain = A.birth_chains ctx;
        lr_written = !written;
        lr_src = src;
      }
  in
  (step, finish)

(* the end-of-trace state of a covering partition: a single range is
   read in place; several are overlaid in range order onto fresh tables *)
let overlay = function
  | [ r ] -> r
  | ranges ->
      let module G = Lp_trace.Grow in
      let n =
        List.fold_left (fun n r -> max n (Bytes.length r.lr_written)) 0 ranges
      in
      let state = G.create ~default:unborn n in
      let size = G.create n in
      let aevent = G.create ~default:(-1) n in
      let achain = Array.make n (-1) in
      List.iter
        (fun r ->
          Bytes.iteri
            (fun obj w ->
              if w <> '\000' then begin
                G.set state obj (G.get r.lr_state obj);
                G.set size obj (G.get r.lr_size obj);
                G.set aevent obj (G.get r.lr_aevent obj);
                achain.(obj) <- r.lr_achain.(obj)
              end)
            r.lr_written)
        ranges;
      let last = List.nth ranges (List.length ranges - 1) in
      {
        last with
        lr_state = state;
        lr_size = size;
        lr_aevent = aevent;
        lr_achain = achain;
        lr_written = Bytes.empty;
      }

let merge ~enabled tokens =
  let ranges =
    List.map
      (function Range r -> r | _ -> invalid_arg "Lint.domain: foreign token")
      tokens
  in
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
      ranges
  in
  let leaks = ref [] in
  if enabled "leaked-at-exit" && ranges <> [] then begin
    let fin = overlay ranges in
    for obj = fin.lr_src.Lp_trace.Source.n_objects_now () - 1 downto 0 do
      if Lp_trace.Grow.get fin.lr_state obj = live then
        leaks :=
          make ~rule:"leaked-at-exit" ~severity:Warning
            ~event:(Lp_trace.Grow.get fin.lr_aevent obj)
            ~obj
            ~site:
              (Lp_trace.Absint.render_chain fin.lr_src
                 (if obj < Array.length fin.lr_achain then fin.lr_achain.(obj)
                  else -1))
            (Printf.sprintf "object %d (size %d) still live at end of trace" obj
               (Lp_trace.Grow.get fin.lr_size obj))
          :: !leaks
    done
  end;
  Merged (diags @ !leaks)

let domain ?only ?disable ?(max_chain_depth = default_max_chain_depth) () :
    (module Lp_trace.Absint.DOMAIN) =
  let enabled = select ~rules ?only ?disable () in
  (module struct
    let name = "lint"
    let reads_heap = true
    let enter = enter ~enabled ~max_chain_depth
    let merge = merge ~enabled
  end)

let project = function
  | Merged ds -> ds
  | _ -> invalid_arg "Lint.project: not a lint token"

let run_source ?only ?disable ?max_chain_depth src =
  project
    (List.hd
       (Lp_trace.Absint.run_source
          ~analyses:[ domain ?only ?disable ?max_chain_depth () ]
          src))

let run ?only ?disable ?max_chain_depth (trace : Lp_trace.Trace.t) =
  run_source ?only ?disable ?max_chain_depth (Lp_trace.Source.of_trace trace)

let clean ds = not (has_errors ds)
