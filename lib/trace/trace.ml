type t = {
  program : string;
  input : string;
  events : Event.t array;
  chains : Lp_callchain.Chain.t array;
  funcs : Lp_callchain.Func.table;
  n_objects : int;
  instructions : int;
  calls : int;
  heap_refs : int;
  total_refs : int;
  obj_refs : int array;
  tags : string array;
}

module Builder = struct
  type trace = t

  module Chain_tbl = Hashtbl.Make (struct
    type t = Lp_callchain.Chain.t

    let equal = Lp_callchain.Chain.equal
    let hash = Lp_callchain.Chain.hash
  end)

  type t = {
    program : string;
    input : string;
    funcs : Lp_callchain.Func.table;
    mutable events : Event.t array;
    mutable n_events : int;
    chain_ids : int Chain_tbl.t;
    mutable chains : Lp_callchain.Chain.t array;
    mutable n_chains : int;
    tag_ids : (string, int) Hashtbl.t;
    mutable tag_names : string array;
    mutable n_tags : int;
    mutable n_objects : int;
    (* object id -> current size; updated by realloc, removed by free *)
    alive : (int, int) Hashtbl.t;
    obj_refs : Grow.t;
    mutable instructions : int;
    mutable calls : int;
    mutable heap_refs : int;
    mutable non_heap : int;
  }

  let no_event = Event.Free { obj = -1; size = -1 }

  let create ~program ~input ~funcs () =
    {
      program;
      input;
      funcs;
      events = Array.make 4096 no_event;
      n_events = 0;
      chain_ids = Chain_tbl.create 256;
      chains = Array.make 64 [||];
      n_chains = 0;
      tag_ids = Hashtbl.create 32;
      tag_names = Array.make 16 "";
      n_tags = 0;
      n_objects = 0;
      alive = Hashtbl.create 1024;
      obj_refs = Grow.create 1024;
      instructions = 0;
      calls = 0;
      heap_refs = 0;
      non_heap = 0;
    }

  let push_event t e =
    if t.n_events = Array.length t.events then
      t.events <- Grow.widen t.events ~default:no_event t.n_events;
    t.events.(t.n_events) <- e;
    t.n_events <- t.n_events + 1

  let intern_chain t chain =
    match Chain_tbl.find_opt t.chain_ids chain with
    | Some id -> id
    | None ->
        let id = t.n_chains in
        t.chains <- Grow.widen t.chains ~default:[||] id;
        t.chains.(id) <- chain;
        t.n_chains <- id + 1;
        Chain_tbl.add t.chain_ids chain id;
        id

  let intern_tag t name =
    match Hashtbl.find_opt t.tag_ids name with
    | Some id -> id
    | None ->
        let id = t.n_tags in
        t.tag_names <- Grow.widen t.tag_names ~default:"" id;
        t.tag_names.(id) <- name;
        t.n_tags <- id + 1;
        Hashtbl.replace t.tag_ids name id;
        id

  let alloc t ?(tag = -1) ~size ~chain ~key () =
    let obj = t.n_objects in
    t.n_objects <- obj + 1;
    Hashtbl.replace t.alive obj size;
    Grow.push t.obj_refs 0;
    push_event t (Event.Alloc { obj; size; chain; key; tag });
    obj

  let realloc t ?(tag = -1) ~new_size ~chain ~key ~obj () =
    if obj < 0 || obj >= t.n_objects then
      invalid_arg "Trace.Builder.realloc: unknown object";
    match Hashtbl.find_opt t.alive obj with
    | None -> invalid_arg "Trace.Builder.realloc: object already freed"
    | Some old_size ->
        if new_size <= 0 then
          invalid_arg "Trace.Builder.realloc: size must be positive";
        Hashtbl.replace t.alive obj new_size;
        push_event t (Event.Realloc { obj; old_size; new_size; chain; key; tag })

  let free ?(size = -1) t ~obj =
    if obj < 0 || obj >= t.n_objects then invalid_arg "Trace.Builder.free: unknown object";
    if not (Hashtbl.mem t.alive obj) then invalid_arg "Trace.Builder.free: double free";
    Hashtbl.remove t.alive obj;
    push_event t (Event.Free { obj; size })

  let touch t ~obj n =
    Grow.set t.obj_refs obj (Grow.get t.obj_refs obj + n);
    t.heap_refs <- t.heap_refs + n;
    (* an immediately preceding touch of the same object absorbs this one,
       which keeps the stream compact *)
    let last = t.n_events - 1 in
    match if last < 0 then no_event else t.events.(last) with
    | Event.Touch r when r.obj = obj ->
        t.events.(last) <- Event.Touch { obj; count = r.count + n }
    | _ -> push_event t (Event.Touch { obj; count = n })

  let non_heap_refs t n = t.non_heap <- t.non_heap + n
  let instructions t n = t.instructions <- t.instructions + n
  let set_calls t n = t.calls <- n
  let live_objects t = Hashtbl.length t.alive

  let finish t : trace =
    {
      program = t.program;
      input = t.input;
      events = Array.sub t.events 0 t.n_events;
      chains = Array.sub t.chains 0 t.n_chains;
      funcs = t.funcs;
      n_objects = t.n_objects;
      instructions = t.instructions;
      calls = t.calls;
      heap_refs = t.heap_refs;
      total_refs = t.heap_refs + t.non_heap;
      obj_refs = Grow.take t.obj_refs;
      tags = Array.sub t.tag_names 0 t.n_tags;
    }
end

let iter_allocs t f =
  Array.iter
    (function
      | Event.Alloc { obj; size; chain; key; tag } -> f ~obj ~size ~chain ~key ~tag
      | Event.Free _ | Event.Realloc _ | Event.Touch _ -> ())
    t.events

let total_bytes t =
  (* the allocation clock: every birth advances it by the object's size,
     every growing resize by the grown delta (shrinks advance nothing, so
     the clock stays monotonic) *)
  let sum = ref 0 in
  Array.iter
    (function
      | Event.Alloc { size; _ } -> sum := !sum + size
      | Event.Realloc { old_size; new_size; _ } ->
          sum := !sum + max 0 (new_size - old_size)
      | Event.Free _ | Event.Touch _ -> ())
    t.events;
  !sum

let total_objects t = t.n_objects

let has_realloc t =
  Array.exists (function Event.Realloc _ -> true | _ -> false) t.events

let chain_of_alloc t id = t.chains.(id)

(* Concatenate [n] copies of the trace, renumbering each copy's objects
   past the previous copy's — a dense-birth-preserving way to synthesize
   long traces (scale benchmarks, exercise many v3 chunks) from a real
   workload without inventing allocation behaviour.  Tables are shared;
   the execution counters scale with the copies. *)
let tile (t : t) n =
  if n < 1 then invalid_arg "Trace.tile: need at least one copy";
  if n = 1 then t
  else begin
    let ne = Array.length t.events in
    let shift off = function
      | Event.Alloc a ->
          Event.Alloc { a with obj = (if a.obj >= 0 then a.obj + off else a.obj) }
      | Event.Free f ->
          Event.Free { f with obj = (if f.obj >= 0 then f.obj + off else f.obj) }
      | Event.Realloc r ->
          Event.Realloc { r with obj = (if r.obj >= 0 then r.obj + off else r.obj) }
      | Event.Touch { obj; count } ->
          Event.Touch { obj = (if obj >= 0 then obj + off else obj); count }
    in
    let events =
      Array.init (ne * n) (fun i -> shift (i / ne * t.n_objects) t.events.(i mod ne))
    in
    let obj_refs =
      Array.init (t.n_objects * n) (fun i -> t.obj_refs.(i mod t.n_objects))
    in
    {
      t with
      events;
      n_objects = t.n_objects * n;
      obj_refs;
      instructions = t.instructions * n;
      calls = t.calls * n;
      heap_refs = t.heap_refs * n;
      total_refs = t.total_refs * n;
    }
  end
