(* PINT: a dispatch-table AST interpreter in the Plang / language-p mould.

   The interpreter walks a tree of opcode-tagged nodes through a flat
   handler table indexed by opcode (the Plang [instr_dispatch] idiom), and
   its value model is the dynamic-language trio real interpreters spend
   their heap on: scope frames allocated per call and freed on return,
   auto-vivified reference chains hanging off global roots (the
   language-p [Value::Undef -> Reference -> fresh value] idiom), and
   growable vectors / string buffers whose backing stores double through
   [Runtime.realloc] — the realloc-bearing traffic the original 1993
   workload set cannot express. *)

module Rt = Lp_ialloc.Runtime

(* -- opcodes ------------------------------------------------------------------- *)

let op_seq = 0
let op_int = 1
let op_local = 2
let op_set_local = 3
let op_add = 4
let op_mul = 5
let op_mod = 6
let op_vec_new = 7
let op_vec_push = 8
let op_vec_get = 9
let op_vec_trim = 10
let op_str_new = 11
let op_str_append = 12
let op_vivify = 13
let op_call = 14
let op_for = 15
let op_if_lt = 16
let n_ops = 17

let op_name = function
  | 0 -> "op_seq"
  | 1 -> "op_int"
  | 2 -> "op_local"
  | 3 -> "op_set_local"
  | 4 -> "op_add"
  | 5 -> "op_mul"
  | 6 -> "op_mod"
  | 7 -> "op_vec_new"
  | 8 -> "op_vec_push"
  | 9 -> "op_vec_get"
  | 10 -> "op_vec_trim"
  | 11 -> "op_str_new"
  | 12 -> "op_str_append"
  | 13 -> "op_vivify"
  | 14 -> "op_call"
  | 15 -> "op_for"
  | 16 -> "op_if_lt"
  | _ -> invalid_arg "Pint.op_name"

type node = { op : int; kids : node array; ival : int }

let mk ?(kids = [||]) ?(ival = 0) op = { op; kids; ival }

(* -- runtime values ------------------------------------------------------------ *)

(* Simulated layouts: a vector backing store is a 16-byte header plus 8
   bytes per capacity slot; string buffers are headers plus their byte
   capacity; reference cells and boxed scalars are 16 bytes. *)

type value =
  | Undef
  | Int of int
  | Vec of vec
  | Str of strbuf
  | Ref of ref_cell

and vec = {
  mutable vdata : value array;
  mutable vlen : int;
  mutable vcap : int;
  vh : Rt.handle;  (* the backing store; realloc keeps the handle *)
}

and strbuf = { mutable scap : int; mutable slen : int; sh : Rt.handle }
and ref_cell = { mutable target : value; rh : Rt.handle }

type frame = {
  slots : value array;
  mutable owned : Rt.handle list;  (* freed when the frame pops *)
}

type fn = { fid : Lp_callchain.Func.id; n_params : int; n_slots : int; body : node }

type state = {
  rt : Rt.t;
  fns : fn array;  (* [op_call]'s ival indexes this *)
  op_fid : Lp_callchain.Func.id array;
  globals : value array;  (* vivification roots *)
  mutable frame : frame;
}

let vec_size cap = 16 + (8 * cap)
let str_size cap = 16 + cap

let own st h = st.frame.owned <- h :: st.frame.owned

let vec_new ?(local = true) st =
  let cap = 4 in
  let vh = Rt.alloc ~tag:"vec" st.rt ~size:(vec_size cap) in
  if local then own st vh;
  { vdata = Array.make cap Undef; vlen = 0; vcap = cap; vh }

let vec_push st v x =
  if v.vlen = v.vcap then begin
    let cap' = 2 * v.vcap in
    ignore (Rt.realloc ~tag:"vec" st.rt v.vh ~new_size:(vec_size cap') : int);
    let bigger = Array.make cap' Undef in
    Array.blit v.vdata 0 bigger 0 v.vlen;
    v.vdata <- bigger;
    v.vcap <- cap'
  end;
  v.vdata.(v.vlen) <- x;
  v.vlen <- v.vlen + 1;
  Rt.touch st.rt v.vh 1

(* shrink-to-fit: the realloc direction growth never exercises *)
let vec_trim st v =
  let cap = max 1 v.vlen in
  if cap < v.vcap then begin
    ignore (Rt.realloc ~tag:"vec" st.rt v.vh ~new_size:(vec_size cap) : int);
    v.vcap <- cap;
    v.vdata <- Array.sub v.vdata 0 cap
  end

let str_new st =
  let sh = Rt.alloc ~tag:"str" st.rt ~size:(str_size 16) in
  own st sh;
  { scap = 16; slen = 0; sh }

let str_append st s n =
  let need = s.slen + n in
  if need > s.scap then begin
    (* strings grow in 32-byte steps, not doubling: small-class resizes
       that a segregated allocator often absorbs in place *)
    let cap = ref s.scap in
    while !cap < need do
      cap := !cap + 32
    done;
    ignore (Rt.realloc ~tag:"str" st.rt s.sh ~new_size:(str_size !cap) : int);
    s.scap <- !cap
  end;
  s.slen <- need;
  Rt.touch st.rt s.sh 1

let to_int = function
  | Undef -> 0
  | Int n -> n
  | Vec v -> v.vlen
  | Str s -> s.slen
  | Ref _ -> 1

(* -- the dispatch table -------------------------------------------------------- *)

let unimplemented : state -> node -> value =
 fun _ _ -> failwith "Pint: unimplemented opcode"

let dispatch : (state -> node -> value) array = Array.make n_ops unimplemented

(* Every node evaluation enters a per-opcode frame, so an allocation's
   call-chain spells out the dynamic path through the interpreter — the
   deep-chain labelling the predictor experiments feed on. *)
let rec eval st (n : node) =
  Rt.enter st.rt st.op_fid.(n.op);
  Rt.instructions st.rt 2;
  let v = (Array.unsafe_get dispatch n.op) st n in
  Rt.leave st.rt;
  v

and eval_seq st n =
  let r = ref Undef in
  Array.iter (fun k -> r := eval st k) n.kids;
  !r

and eval_int _ n = Int n.ival
and eval_local st n = st.frame.slots.(n.ival)

and eval_set_local st n =
  let v = eval st n.kids.(0) in
  st.frame.slots.(n.ival) <- v;
  v

and eval_add st n = Int (to_int (eval st n.kids.(0)) + to_int (eval st n.kids.(1)))
and eval_mul st n = Int (to_int (eval st n.kids.(0)) * to_int (eval st n.kids.(1)))

and eval_mod st n =
  let a = to_int (eval st n.kids.(0)) in
  let b = to_int (eval st n.kids.(1)) in
  Int (if b = 0 then 0 else a mod b)

and eval_vec_new st _ = Vec (vec_new st)

and eval_vec_push st n =
  let v = eval st n.kids.(0) in
  let x = eval st n.kids.(1) in
  (match v with Vec v -> vec_push st v x | _ -> ());
  Int (to_int v)

and eval_vec_get st n =
  match eval st n.kids.(0) with
  | Vec v when v.vlen > 0 ->
      let i = to_int (eval st n.kids.(1)) mod v.vlen in
      Rt.touch st.rt v.vh 1;
      Int (to_int v.vdata.(abs i))
  | _ -> Int 0

and eval_vec_trim st n =
  let v = eval st n.kids.(0) in
  (match v with Vec v -> vec_trim st v | _ -> ());
  Int (to_int v)

and eval_str_new st _ = Str (str_new st)

and eval_str_append st n =
  let s = eval st n.kids.(0) in
  let k = to_int (eval st n.kids.(1)) in
  (match s with Str s -> str_append st s (1 + abs k) | _ -> ());
  Int (to_int s)

(* language-p style auto-vivification: walking an undefined global path
   materializes a chain of reference cells ending in storage, all
   long-lived.  The chain depth is a stable function of the root, so
   later visits re-walk (touch) the same cells and push into the same
   vector — whose growth reallocs an object born arbitrarily far back in
   the trace. *)
and eval_vivify st n =
  let root = abs (to_int (eval st n.kids.(0))) mod Array.length st.globals in
  let x = to_int (eval st n.kids.(1)) in
  let depth = 1 + (root mod 4) in
  let rec go get set d =
    if d = 0 then (
      match get () with
      | Vec v ->
          vec_push st v (Int x);
          Int v.vlen
      | Undef ->
          let v = vec_new ~local:false st in
          set (Vec v);
          vec_push st v (Int x);
          Int v.vlen
      | other -> Int (to_int other))
    else
      match get () with
      | Ref r ->
          Rt.touch st.rt r.rh 1;
          go (fun () -> r.target) (fun v -> r.target <- v) (d - 1)
      | Undef ->
          let rh = Rt.alloc ~tag:"ref" st.rt ~size:16 in
          let r = { target = Undef; rh } in
          set (Ref r);
          go (fun () -> r.target) (fun v -> r.target <- v) (d - 1)
      | other -> Int (to_int other)
  in
  go
    (fun () -> st.globals.(root))
    (fun v -> st.globals.(root) <- v)
    depth

and eval_call st n =
  let f = st.fns.(n.ival) in
  let n_args = Array.length n.kids in
  let frame = { slots = Array.make f.n_slots Undef; owned = [] } in
  for i = 0 to min n_args f.n_params - 1 do
    frame.slots.(i) <- eval st n.kids.(i)
  done;
  let fh = Rt.alloc ~tag:"frame" st.rt ~size:(32 + (8 * f.n_slots)) in
  frame.owned <- [ fh ];
  let saved = st.frame in
  st.frame <- frame;
  let result =
    match Rt.in_frame st.rt f.fid (fun () -> eval st f.body) with
    | v ->
        st.frame <- saved;
        v
    | exception e ->
        st.frame <- saved;
        raise e
  in
  List.iter (Rt.free st.rt) frame.owned;
  result

and eval_for st n =
  let count = to_int (eval st n.kids.(0)) in
  let acc = ref 0 in
  for i = 0 to count - 1 do
    st.frame.slots.(n.ival) <- Int i;
    acc := !acc + to_int (eval st n.kids.(1))
  done;
  Int !acc

and eval_if_lt st n =
  if to_int (eval st n.kids.(0)) < to_int (eval st n.kids.(1)) then
    eval st n.kids.(2)
  else eval st n.kids.(3)

let () =
  dispatch.(op_seq) <- eval_seq;
  dispatch.(op_int) <- eval_int;
  dispatch.(op_local) <- eval_local;
  dispatch.(op_set_local) <- eval_set_local;
  dispatch.(op_add) <- eval_add;
  dispatch.(op_mul) <- eval_mul;
  dispatch.(op_mod) <- eval_mod;
  dispatch.(op_vec_new) <- eval_vec_new;
  dispatch.(op_vec_push) <- eval_vec_push;
  dispatch.(op_vec_get) <- eval_vec_get;
  dispatch.(op_vec_trim) <- eval_vec_trim;
  dispatch.(op_str_new) <- eval_str_new;
  dispatch.(op_str_append) <- eval_str_append;
  dispatch.(op_vivify) <- eval_vivify;
  dispatch.(op_call) <- eval_call;
  dispatch.(op_for) <- eval_for;
  dispatch.(op_if_lt) <- eval_if_lt

(* -- program construction ------------------------------------------------------ *)

(* The two programs share the interpreter but stress different heap
   behaviour, like the paper's two PERL scripts: [`Grow] is vector-heavy
   (fill builds and trims vectors), [`Weave] is string- and
   vivification-heavy with deeper recursion. *)

type params = {
  variant : [ `Grow | `Weave ];
  iterations : int;
  pushes : int;  (* base vector pushes per fill call *)
  appends : int;  (* base string appends per fill call *)
}

(* fn 0 = fill(x): slots 0=x 1=vec 2=str 3=i
   fn 1 = weave(x, d): slots 0=x 1=d — recurses d times, vivifies, fills
   fn 2 = main(n): slots 0=n 1=i *)
let build_fns rt p =
  let int i = mk op_int ~ival:i in
  let local i = mk op_local ~ival:i in
  let setl i e = mk op_set_local ~ival:i ~kids:[| e |] in
  let add a b = mk op_add ~kids:[| a; b |] in
  let mul a b = mk op_mul ~kids:[| a; b |] in
  let modulo a b = mk op_mod ~kids:[| a; b |] in
  let seq ks = mk op_seq ~kids:(Array.of_list ks) in
  let for_ slot count body = mk op_for ~ival:slot ~kids:[| count; body |] in
  let call f args = mk op_call ~ival:f ~kids:(Array.of_list args) in
  let if_lt a b t e = mk op_if_lt ~kids:[| a; b; t; e |] in
  let fill_body =
    seq
      [
        setl 1 (mk op_vec_new);
        setl 2 (mk op_str_new);
        for_ 3
          (add (modulo (local 0) (int 5)) (int p.pushes))
          (seq
             [
               mk op_vec_push ~kids:[| local 1; mul (local 3) (local 0) |];
               mk op_str_append
                 ~kids:[| local 2; modulo (local 3) (int p.appends) |];
             ]);
        mk op_vec_trim ~kids:[| local 1 |];
        add
          (mk op_vec_get ~kids:[| local 1; local 0 |])
          (mk op_str_append ~kids:[| local 2; int 3 |]);
      ]
  in
  let weave_body =
    if_lt (int 0) (local 1)
      (seq
         [
           mk op_vivify ~kids:[| local 0; local 1 |];
           call 0 [ local 0 ];
           call 1 [ add (local 0) (int 1); add (local 1) (int (-1)) ];
         ])
      (call 0 [ local 0 ])
  in
  let main_body =
    for_ 1 (local 0)
      (match p.variant with
      | `Grow ->
          seq
            [
              call 0 [ local 1 ];
              call 1 [ local 1; add (modulo (local 1) (int 3)) (int 1) ];
            ]
      | `Weave ->
          seq
            [
              mk op_vivify ~kids:[| local 1; mul (local 1) (int 7) |];
              call 1 [ local 1; add (modulo (local 1) (int 5)) (int 2) ];
            ])
  in
  [|
    { fid = Rt.func rt "fill"; n_params = 1; n_slots = 4; body = fill_body };
    { fid = Rt.func rt "weave"; n_params = 2; n_slots = 2; body = weave_body };
    { fid = Rt.func rt "main"; n_params = 1; n_slots = 2; body = main_body };
  |]

let interpret rt p =
  let st =
    {
      rt;
      fns = build_fns rt p;
      op_fid = Array.init n_ops (fun op -> Rt.func rt (op_name op));
      globals = Array.make 8 Undef;
      frame = { slots = [||]; owned = [] };
    }
  in
  to_int (eval st (mk op_call ~ival:2 ~kids:[| mk op_int ~ival:p.iterations |]))

let input_spec = function
  | "tiny" -> { variant = `Grow; iterations = 30; pushes = 6; appends = 7 }
  | "train" -> { variant = `Grow; iterations = 900; pushes = 10; appends = 7 }
  | "test" -> { variant = `Weave; iterations = 700; pushes = 4; appends = 13 }
  | name -> invalid_arg ("Pint.run: unknown input " ^ name)

let inputs = [ "tiny"; "train"; "test" ]

let run ?(scale = 1.0) ~input () =
  let p = input_spec input in
  let iterations =
    max 12 (int_of_float (float_of_int p.iterations *. scale))
  in
  let rt = Rt.create ~ref_ratio:0.1 ~program:"pint" ~input () in
  let (_ : int) = interpret rt { p with iterations } in
  Rt.finish rt
