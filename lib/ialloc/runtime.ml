(* Per-call and per-allocation bookkeeping costs, in simulated instructions.
   These model the base cost of calling conventions so that the
   "Instructions Executed" column of Table 2 scales with real work; the
   allocator-specific costs of Table 9 live in Lp_allocsim.Cost_model. *)
let call_cost = 4

type handle = int

type obj_state = Live of int (* size *) | Freed

type t = {
  funcs : Lp_callchain.Func.table;
  stack : Lp_callchain.Stack.t;
  builder : Lp_trace.Trace.Builder.t;
  mutable objects : obj_state array;
  mutable n_objects : int;
  mutable live : int;
  ref_ratio : float;
  mutable instr_count : int;
}

let create ?(ref_ratio = 0.25) ~program ~input () =
  let funcs = Lp_callchain.Func.create_table () in
  {
    funcs;
    stack = Lp_callchain.Stack.create funcs;
    builder = Lp_trace.Trace.Builder.create ~program ~input ~funcs ();
    objects = Array.make 1024 Freed;
    n_objects = 0;
    live = 0;
    ref_ratio;
    instr_count = 0;
  }

let func t name = Lp_callchain.Func.intern t.funcs name

let enter t id =
  Lp_callchain.Stack.push t.stack id;
  t.instr_count <- t.instr_count + call_cost;
  Lp_trace.Trace.Builder.instructions t.builder call_cost

let leave t = Lp_callchain.Stack.pop t.stack

let in_frame t id body =
  enter t id;
  match body () with
  | result ->
      leave t;
      result
  | exception e ->
      leave t;
      raise e

let alloc ?tag t ~size =
  if size <= 0 then invalid_arg "Runtime.alloc: size must be positive";
  let chain = Lp_trace.Trace.Builder.intern_chain t.builder
      (Lp_callchain.Stack.snapshot t.stack)
  in
  let key = Lp_callchain.Stack.encryption_key t.stack in
  let tag = Option.map (Lp_trace.Trace.Builder.intern_tag t.builder) tag in
  let obj = Lp_trace.Trace.Builder.alloc ?tag t.builder ~size ~chain ~key () in
  if obj >= Array.length t.objects then begin
    let grown = Array.make (2 * Array.length t.objects) Freed in
    Array.blit t.objects 0 grown 0 t.n_objects;
    t.objects <- grown
  end;
  t.objects.(obj) <- Live size;
  t.n_objects <- t.n_objects + 1;
  t.live <- t.live + 1;
  obj

let check_live t h op =
  if h < 0 || h >= t.n_objects then invalid_arg (op ^ ": unknown handle");
  match t.objects.(h) with
  | Live size -> size
  | Freed -> invalid_arg (op ^ ": object already freed")

let realloc ?tag t h ~new_size =
  let old_size = check_live t h "Runtime.realloc" in
  if new_size <= 0 then invalid_arg "Runtime.realloc: size must be positive";
  (* the resize site gets its own chain/key snapshot, like an allocation *)
  let chain =
    Lp_trace.Trace.Builder.intern_chain t.builder
      (Lp_callchain.Stack.snapshot t.stack)
  in
  let key = Lp_callchain.Stack.encryption_key t.stack in
  let tag = Option.map (Lp_trace.Trace.Builder.intern_tag t.builder) tag in
  Lp_trace.Trace.Builder.realloc ?tag t.builder ~new_size ~chain ~key ~obj:h ();
  t.objects.(h) <- Live new_size;
  old_size

let free t h =
  ignore (check_live t h "Runtime.free" : int);
  t.objects.(h) <- Freed;
  t.live <- t.live - 1;
  Lp_trace.Trace.Builder.free t.builder ~obj:h

let touch t h n =
  ignore (check_live t h "Runtime.touch" : int);
  (* n = 0 is a no-op: operations on empty values reference nothing *)
  if n > 0 then Lp_trace.Trace.Builder.touch t.builder ~obj:h n
  else if n < 0 then invalid_arg "Runtime.touch: negative count"

let non_heap_refs t n = Lp_trace.Trace.Builder.non_heap_refs t.builder n

let instructions t n =
  t.instr_count <- t.instr_count + n;
  Lp_trace.Trace.Builder.instructions t.builder n
let size_of t h = check_live t h "Runtime.size_of"
let live_objects t = t.live
let depth t = Lp_callchain.Stack.depth t.stack

let finish t =
  (* Computation-implied stack/global references (see the .mli). *)
  Lp_trace.Trace.Builder.non_heap_refs t.builder
    (int_of_float (t.ref_ratio *. float_of_int t.instr_count));
  Lp_trace.Trace.Builder.set_calls t.builder (Lp_callchain.Stack.calls t.stack);
  Lp_trace.Trace.Builder.finish t.builder
