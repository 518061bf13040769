type t = {
  program : string;
  input : string;
  instructions : int;
  calls : int;
  total_bytes : int;
  total_objects : int;
  max_bytes : int;
  max_objects : int;
  heap_ref_pct : float;
  distinct_chains : int;
  mean_object_size : float;
}

let compute (trace : Trace.t) =
  let total_bytes = Trace.total_bytes trace in
  let total_objects = Trace.total_objects trace in
  let max_bytes, max_objects = Lifetimes.max_live trace in
  let heap_ref_pct =
    if trace.total_refs = 0 then 0.
    else 100. *. float_of_int trace.heap_refs /. float_of_int trace.total_refs
  in
  {
    program = trace.program;
    input = trace.input;
    instructions = trace.instructions;
    calls = trace.calls;
    total_bytes;
    total_objects;
    max_bytes;
    max_objects;
    heap_ref_pct;
    distinct_chains = Array.length trace.chains;
    mean_object_size =
      (if total_objects = 0 then 0. else float_of_int total_bytes /. float_of_int total_objects);
  }

(* The streaming twin of [compute], as an engine domain.  The engine
   already keeps the clock, the live counters and each object's current
   size, so a range only records the maxima after each allocation and
   resize, and reads the header fields from its source once drained (a
   sharded range's source reports the whole trace's).  The sequential
   code updates its maxima at those events only, so the global maxima
   are the max over the ranges' candidates (0, the sequential initial
   value, is the identity for a range without allocations), and the
   total is the last range's absolute end clock. *)
type Absint.token += Range of t | Merged of t

let enter (ctx : Absint.ctx) =
  let max_bytes = ref 0 and max_objs = ref 0 in
  let peak live_bytes =
    if live_bytes > !max_bytes then max_bytes := live_bytes
  in
  let step = function
    | Event.Alloc { size; _ } ->
        peak (ctx.Absint.cx_live_bytes + size);
        let live_objs = ctx.Absint.cx_live_objs + 1 in
        if live_objs > !max_objs then max_objs := live_objs
    | Event.Realloc { obj; new_size; _ } ->
        (* live bytes swap the tracked current size for the new one, as
           the engine's free path subtracts it *)
        if obj >= 0 then
          peak (ctx.Absint.cx_live_bytes - Absint.cur_size ctx obj + new_size)
        else peak ctx.Absint.cx_live_bytes
    | Event.Free _ | Event.Touch _ -> ()
  in
  let finish () =
    let src = ctx.Absint.cx_src in
    let c = Source.counters src in
    let total_bytes = ctx.Absint.cx_clock in
    let total_objects = Source.n_objects src in
    Range
      {
        program = src.Source.program;
        input = src.Source.input;
        instructions = c.Source.instructions;
        calls = c.Source.calls;
        total_bytes;
        total_objects;
        max_bytes = !max_bytes;
        max_objects = !max_objs;
        heap_ref_pct =
          (if c.Source.total_refs = 0 then 0.
           else
             100. *. float_of_int c.Source.heap_refs
             /. float_of_int c.Source.total_refs);
        distinct_chains = src.Source.n_chains ();
        mean_object_size =
          (if total_objects = 0 then 0.
           else float_of_int total_bytes /. float_of_int total_objects);
      }
  in
  (step, finish)

let merge tokens =
  let ranges =
    List.map
      (function Range r -> r | _ -> invalid_arg "Stats.domain: foreign token")
      tokens
  in
  match List.rev ranges with
  | [] -> invalid_arg "Stats.domain: empty partition"
  | last :: _ ->
      Merged
        {
          last with
          max_bytes = List.fold_left (fun m r -> max m r.max_bytes) 0 ranges;
          max_objects =
            List.fold_left (fun m r -> max m r.max_objects) 0 ranges;
        }

let domain : (module Absint.DOMAIN) =
  (module struct
    let name = "stats"
    let reads_heap = true
    let enter = enter
    let merge = merge
  end)

let project = function
  | Merged s -> s
  | _ -> invalid_arg "Stats.project: not a stats token"

let compute_source src =
  project (List.hd (Absint.run_source ~analyses:[ domain ] src))

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s (%s):@ instructions %d@ calls %d@ bytes %d in %d objects (mean %.1f)@ max \
     live %d bytes / %d objects@ heap refs %.1f%%@ distinct chains %d@]"
    t.program t.input t.instructions t.calls t.total_bytes t.total_objects
    t.mean_object_size t.max_bytes t.max_objects t.heap_ref_pct t.distinct_chains
