module Rt = Lp_ialloc.Runtime
module Bn = Bignum

(* -- small-prime machinery (factor base construction) --------------------- *)

(* Sieve of Eratosthenes up to [bound], charged as non-heap work: the factor
   base itself is the long-lived heap object; the sieve is a stack array. *)
let primes_upto rt bound =
  let sieve = Array.make (bound + 1) true in
  sieve.(0) <- false;
  if bound >= 1 then sieve.(1) <- false;
  let i = ref 2 in
  while !i * !i <= bound do
    if sieve.(!i) then begin
      let j = ref (!i * !i) in
      while !j <= bound do
        sieve.(!j) <- false;
        j := !j + !i
      done
    end;
    incr i
  done;
  Rt.instructions rt bound;
  Rt.non_heap_refs rt bound;
  let out = ref [] in
  for p = bound downto 2 do
    if sieve.(p) then out := p :: !out
  done;
  !out

(* Legendre symbol (n/p) for odd prime p, by modular exponentiation on
   machine ints (p is small).  Returns -1, 0 or 1. *)
let legendre rt n_mod_p p =
  let rec pow_mod b e m acc =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then acc * b mod m else acc in
      pow_mod (b * b mod m) (e lsr 1) m acc
    end
  in
  Rt.instructions rt 30;
  if n_mod_p = 0 then 0
  else begin
    let r = pow_mod n_mod_p ((p - 1) / 2) p 1 in
    if r = 1 then 1 else -1
  end

(* -- relations and GF(2) elimination -------------------------------------- *)

(* A relation A^2 = (-1)^s * prod p_i^e_i (mod N).  The exponent vector
   lives on the instrumented heap as a bitset (these are the medium-lived
   objects of CFRAC); exponents are kept in full for the square root. *)
type relation = {
  id : int;  (* serial, for canonicalising dependency combinations *)
  a : Bn.t;  (* A_{n-1} mod N *)
  exponents : (int * int) list;  (* (factor-base index, exponent), sparse *)
  sign : bool;  (* true when n odd: Q_n enters with sign -1 *)
  extra_y : int;
      (* large-prime variation: a relation merged from two partials carries
         the shared large prime squared, which contributes [extra_y] to the
         square root Y (1 when the relation is fully smooth) *)
  vec_handle : Rt.handle;  (* simulated heap bitset *)
  vec : int array;  (* exponents mod 2, packed, index 0 = sign bit *)
}

let make_relation rt ~id ~fb_size ?(extra_y = 1) ~a ~exponents ~sign () =
  let words = (fb_size + 1 + 62) / 63 in
  let vec = Array.make words 0 in
  let set_bit i = vec.(i / 63) <- vec.(i / 63) lor (1 lsl (i mod 63)) in
  if sign then set_bit 0;
  List.iter (fun (idx, e) -> if e land 1 = 1 then set_bit (idx + 1)) exponents;
  let vec_handle = Rt.alloc rt ~size:(8 + (8 * words)) in
  Rt.touch rt vec_handle words;
  { id; a; exponents; sign; extra_y; vec_handle; vec }

let vec_is_zero v = Array.for_all (fun w -> w = 0) v

let vec_xor rt dst src =
  Array.iteri (fun i w -> dst.(i) <- dst.(i) lxor w) src;
  Rt.instructions rt (Array.length src)

let lowest_set_bit v =
  let rec go i =
    if i = Array.length v then None
    else if v.(i) = 0 then go (i + 1)
    else begin
      let rec bit b = if v.(i) land (1 lsl b) <> 0 then b else bit (b + 1) in
      Some ((i * 63) + bit 0)
    end
  in
  go 0

(* -- the factorization proper --------------------------------------------- *)

type result = {
  factor : string option;
  relations_found : int;
  iterations : int;
}

type state = {
  rt : Rt.t;
  ctx : Bn.ctx;
  f_main : Lp_callchain.Func.id;
  f_cf : Lp_callchain.Func.id;  (* continued-fraction step *)
  f_smooth : Lp_callchain.Func.id;  (* trial division *)
  f_elim : Lp_callchain.Func.id;  (* gaussian elimination *)
  f_final : Lp_callchain.Func.id;  (* congruence of squares *)
}

(* Trial-divide [q] over the factor base.  Returns the sparse exponent
   list plus the remaining cofactor: [`Smooth] when it is 1, [`Partial lp]
   when a single large prime below the large-prime bound remains
   (Morrison-Brillhart's large-prime variation), [`Rough] otherwise. *)
let trial_divide st fb ~lp_bound q0 =
  Rt.in_frame st.rt st.f_smooth (fun () ->
      let ctx = st.ctx in
      let cur = ref (Bn.copy ctx q0) in
      let exps = ref [] in
      Array.iteri
        (fun idx p ->
          if Bn.rem_small ctx !cur p = 0 then begin
            let e = ref 0 in
            while Bn.rem_small ctx !cur p = 0 do
              let q, _ = Bn.divmod_small ctx !cur p in
              Bn.release ctx !cur;
              cur := q;
              incr e
            done;
            exps := (idx, !e) :: !exps
          end)
        fb;
      let cofactor = Bn.to_int !cur in
      Bn.release ctx !cur;
      match cofactor with
      | Some 1 -> `Smooth (List.rev !exps)
      | Some lp when lp < lp_bound -> `Partial (List.rev !exps, lp)
      | _ -> `Rough)

(* Gaussian elimination over GF(2): find a subset of relations whose
   combined exponent vector is zero.  Standard streaming elimination with a
   pivot table; each incoming relation is reduced against existing pivots
   and either becomes a new pivot or yields a dependency. *)
(* Combining two dependency histories over GF(2): a relation appearing an
   even number of times cancels, so combos stay canonical (each relation at
   most once) and congruence attempts stay linear in the factor-base rank. *)
let canonicalise combo =
  let parity = Hashtbl.create 16 in
  List.iter
    (fun rel ->
      match Hashtbl.find_opt parity rel.id with
      | Some _ -> Hashtbl.remove parity rel.id
      | None -> Hashtbl.replace parity rel.id rel)
    combo;
  Hashtbl.fold (fun _ rel acc -> rel :: acc) parity []

let find_dependency st pivots rel =
  Rt.in_frame st.rt st.f_elim (fun () ->
      let combo = ref [ rel ] in
      let v = Array.copy rel.vec in
      Rt.instructions st.rt (Array.length v);
      let continue = ref true in
      let result = ref None in
      while !continue do
        if vec_is_zero v then begin
          result := Some (canonicalise !combo);
          continue := false
        end
        else begin
          match lowest_set_bit v with
          | None ->
              result := Some (canonicalise !combo);
              continue := false
          | Some bit -> begin
              match Hashtbl.find_opt pivots bit with
              | Some (pivot_vec, pivot_rels) ->
                  vec_xor st.rt v pivot_vec;
                  combo := List.rev_append pivot_rels !combo
              | None ->
                  Hashtbl.add pivots bit (v, canonicalise !combo);
                  continue := false
            end
        end
      done;
      !result)

(* Given a dependency (multiset of relations), build X = prod A_i mod N and
   Y = sqrt(prod +-Q_i) mod N, then try gcd(X - Y, N). *)
let try_congruence st ~n ~fb combo =
  Rt.in_frame st.rt st.f_final (fun () ->
      let ctx = st.ctx in
      (* X = product of the A values, mod N. *)
      let x = ref (Bn.of_int ctx 1) in
      List.iter
        (fun rel ->
          let nx = Bn.mul_mod ctx !x rel.a n in
          Bn.release ctx !x;
          x := nx)
        combo;
      (* Combined exponents (they are even by construction, as is the count
         of negative signs). *)
      let total = Hashtbl.create 16 in
      List.iter
        (fun rel ->
          List.iter
            (fun (idx, e) ->
              Hashtbl.replace total idx (e + Option.value ~default:0 (Hashtbl.find_opt total idx)))
            rel.exponents)
        combo;
      let y = ref (Bn.of_int ctx 1) in
      Hashtbl.iter
        (fun idx e ->
          let p = Bn.of_int ctx fb.(idx) in
          for _ = 1 to e / 2 do
            let ny = Bn.mul_mod ctx !y p n in
            Bn.release ctx !y;
            y := ny
          done;
          Bn.release ctx p)
        total;
      (* large primes from merged partial relations enter Y once each *)
      List.iter
        (fun rel ->
          if rel.extra_y <> 1 then begin
            let lp = Bn.of_int ctx rel.extra_y in
            let ny = Bn.mul_mod ctx !y lp n in
            Bn.release ctx !y;
            Bn.release ctx lp;
            y := ny
          end)
        combo;
      (* gcd(X - Y mod N, N) *)
      let diff =
        if Bn.compare ctx !x !y >= 0 then Bn.sub ctx !x !y
        else Bn.sub ctx !y !x
      in
      let g = Bn.gcd ctx diff n in
      Bn.release ctx diff;
      Bn.release ctx !x;
      Bn.release ctx !y;
      let trivial =
        Bn.is_zero g
        || Bn.to_int g = Some 1
        || Bn.compare ctx g n = 0
      in
      if trivial then begin
        Bn.release ctx g;
        None
      end
      else begin
        let s = Bn.to_string ctx g in
        Bn.release ctx g;
        Some s
      end)

(* One multiplier attempt: expand the continued fraction of sqrt(k*N),
   collecting smooth relations, eliminating as we go. *)
let attempt st ~n ~k ~fb_bound ~max_iters =
  let ctx = st.ctx in
  let rt = st.rt in
  let kn = Bn.mul_small ctx n k in
  (* Factor base: 2 plus odd primes p with (kN/p) != -1. *)
  let fb =
    primes_upto rt fb_bound
    |> List.filter (fun p ->
           p = 2 || legendre rt (Bn.rem_small ctx kn p) p >= 0)
    |> Array.of_list
  in
  let fb_size = Array.length fb in
  (* The factor base is a long-lived heap object. *)
  let fb_handle = Rt.alloc rt ~size:(8 + (4 * max 1 fb_size)) in
  Rt.touch rt fb_handle fb_size;
  let g = Bn.isqrt ctx kn in
  (* Continued-fraction state:
       P_0 = 0, Q_0 = 1, A_{-1} = 1, A_{-2} = 0,
       a_n = (g + P_n) / Q_n,  P_{n+1} = a_n Q_n - P_n,
       Q_{n+1} = (kN - P_{n+1}^2) / Q_n,
       A_n = (a_n A_{n-1} + A_{n-2}) mod N. *)
  let p_cur = ref (Bn.of_int ctx 0) in
  let q_prev = ref (Bn.copy ctx kn) in
  ignore q_prev;
  let q_cur = ref (Bn.of_int ctx 1) in
  let a_prev = ref (Bn.of_int ctx 0) in
  (* A_{n-2} *)
  let a_cur = ref (Bn.of_int ctx 1) in
  (* A_{n-1} *)
  let pivots = Hashtbl.create 64 in
  let relations = ref [] in
  let n_relations = ref 0 in
  (* large-prime variation: partial relations waiting for a twin, keyed by
     their large prime.  Each entry is a heap object (the stored partial). *)
  let lp_bound = fb_bound * fb_bound in
  let partials : (int, (Bn.t * (int * int) list * bool * Rt.handle)) Hashtbl.t =
    Hashtbl.create 64
  in
  let found = ref None in
  let iter = ref 0 in
  while !found = None && !iter < max_iters do
    incr iter;
    Rt.in_frame rt st.f_cf (fun () ->
        (* a_n = (g + P_n) / Q_n *)
        let gp = Bn.add ctx g !p_cur in
        let an, r = Bn.divmod ctx gp !q_cur in
        Bn.release ctx r;
        Bn.release ctx gp;
        (* P_{n+1} = a_n Q_n - P_n *)
        let aq = Bn.mul ctx an !q_cur in
        let p_next = Bn.sub ctx aq !p_cur in
        Bn.release ctx aq;
        (* Q_{n+1} = (kN - P_{n+1}^2) / Q_n *)
        let p2 = Bn.mul ctx p_next p_next in
        let num = Bn.sub ctx kn p2 in
        Bn.release ctx p2;
        let q_next, r2 = Bn.divmod ctx num !q_cur in
        Bn.release ctx r2;
        Bn.release ctx num;
        (* A_n = (a_n A_{n-1} + A_{n-2}) mod N *)
        let prod = Bn.mul ctx an !a_cur in
        let sum = Bn.add ctx prod !a_prev in
        Bn.release ctx prod;
        let a_next = Bn.rem ctx sum n in
        Bn.release ctx sum;
        Bn.release ctx an;
        (* The relation uses A_{n-1} (the value *before* this step) against
           Q_n of the *next* index: A_{n-1}^2 = (-1)^n Q_n (mod kN).  We test
           Q_{n+1} against A_n, i.e. index n+1, whose sign is odd(n+1). *)
        let sign = !iter land 1 = 1 in
        let add_relation rel =
          relations := rel :: !relations;
          incr n_relations;
          match find_dependency st pivots rel with
          | Some combo -> found := try_congruence st ~n ~fb combo
          | None -> ()
        in
        (if not (Bn.is_zero q_next) then begin
           match trial_divide st fb ~lp_bound q_next with
           | `Smooth exponents ->
               add_relation
                 (make_relation rt ~id:!n_relations ~fb_size
                    ~a:(Bn.copy ctx a_next) ~exponents ~sign ())
           | `Partial (exponents, lp) -> (
               match Hashtbl.find_opt partials lp with
               | Some (a2, exps2, sign2, h2) ->
                   (* two partials sharing lp merge into a full relation:
                      (A1 A2)^2 = +-Q1 Q2 (mod kN), with lp^2 dividing Q1 Q2 *)
                   Hashtbl.remove partials lp;
                   let merged_exps =
                     let tbl = Hashtbl.create 16 in
                     List.iter
                       (fun (i, e) ->
                         Hashtbl.replace tbl i
                           (e + Option.value ~default:0 (Hashtbl.find_opt tbl i)))
                       (exponents @ exps2);
                     Hashtbl.fold (fun i e acc -> (i, e) :: acc) tbl []
                   in
                   let a12 = Bn.mul_mod ctx a_next a2 n in
                   Bn.release ctx a2;
                   Rt.free rt h2;
                   add_relation
                     (make_relation rt ~id:!n_relations ~fb_size ~extra_y:lp
                        ~a:a12 ~exponents:merged_exps
                        ~sign:(sign <> sign2) ())
               | None ->
                   (* store the partial until its twin arrives; the stored
                      record is a medium-lived heap object *)
                   let h = Rt.alloc rt ~size:(32 + (8 * List.length exponents)) in
                   Rt.touch rt h 2;
                   Hashtbl.replace partials lp (Bn.copy ctx a_next, exponents, sign, h))
           | `Rough -> ()
         end);
        (* Slide the recurrence windows, releasing the outgoing values. *)
        Bn.release ctx !p_cur;
        p_cur := p_next;
        let old_q_prev = !q_prev in
        q_prev := !q_cur;
        q_cur := q_next;
        Bn.release ctx old_q_prev;
        Bn.release ctx !a_prev;
        a_prev := !a_cur;
        a_cur := a_next;
        (* Terminate the expansion if Q hit zero (perfect square kN). *)
        if Bn.is_zero !q_cur then iter := max_iters)
  done;
  (* Release everything this attempt allocated. *)
  Hashtbl.iter
    (fun _ (a, _, _, h) ->
      Bn.release ctx a;
      Rt.free rt h)
    partials;
  List.iter
    (fun rel ->
      Bn.release ctx rel.a;
      Rt.free rt rel.vec_handle)
    !relations;
  Bn.release ctx !p_cur;
  Bn.release ctx !q_prev;
  Bn.release ctx !q_cur;
  Bn.release ctx !a_prev;
  Bn.release ctx !a_cur;
  Bn.release ctx g;
  Rt.free rt fb_handle;
  Bn.release ctx kn;
  (!found, !n_relations, !iter)

let factor_string rt ~n ~max_iters =
  let st =
    {
      rt;
      ctx = Bn.make_ctx rt;
      f_main = Rt.func rt "cfrac_main";
      f_cf = Rt.func rt "cf_step";
      f_smooth = Rt.func rt "smooth_test";
      f_elim = Rt.func rt "gauss_elim";
      f_final = Rt.func rt "square_root";
    }
  in
  Rt.in_frame rt st.f_main (fun () ->
      let ctx = st.ctx in
      let nv = Bn.of_string ctx n in
      (* Pick the factor-base bound from the size of N (limb count stands in
         for log N), with a generous floor: like the original program, the
         base is not shrunk for small inputs. *)
      let fb_bound = 100 * Bn.num_limbs nv * Bn.num_limbs nv in
      let fb_bound = max 1200 (min fb_bound 4000) in
      let multipliers = [ 1; 3; 5; 7; 11 ] in
      let result = ref None in
      let total_rels = ref 0 in
      let total_iters = ref 0 in
      List.iter
        (fun k ->
          if !result = None then begin
            let found, rels, iters =
              attempt st ~n:nv ~k ~fb_bound ~max_iters
            in
            total_rels := !total_rels + rels;
            total_iters := !total_iters + iters;
            result := found
          end)
        multipliers;
      Bn.release ctx nv;
      { factor = !result; relations_found = !total_rels; iterations = !total_iters })

(* -- input sets ------------------------------------------------------------ *)

(* Products of two primes, echoing the paper's "20-40 digit numbers that
   were the product of two primes" scaled to simulation budgets.  The two
   primes are of distinct magnitudes: nearly equal primes make the continued
   fraction of sqrt(N) hit the Fermat square ((p+q)/2)^2 - N = ((p-q)/2)^2
   after a handful of steps, which factors N without exercising the
   relation-collection machinery at all. *)
let input_primes = function
  | "tiny" -> [ (83, 97, 400) ]
  | "train" ->
      (* small semiprimes: their continued-fraction expansions finish within
         a few kilobytes of allocation, so in training even the relation
         records (exponent vectors) die short-lived.  On the test inputs the
         expansions run for megabytes and same-sized relation records live
         long: the trained sites mispredict them, giving true-prediction
         error bytes and arena pollution — the paper's CFRAC story (3.65%
         error, arenas degenerating to the general allocator).  The small
         training numbers also cover only the small end of the test run's
         object-size spectrum, so true prediction maps fewer sites than
         self prediction (the paper's 47.3% vs 79.0% drop). *)
      [ (83, 97, 60); (101, 103, 60); (223, 227, 60); (311, 313, 60);
        (401, 409, 60); (503, 509, 60); (601, 607, 60); (701, 709, 60);
        (1009, 1013, 60); (2003, 2011, 60) ]
  | "test" ->
      (* with the large-prime variation, 17-19 digit semiprimes factor in a
         few thousand expansion steps each *)
      [ (15485863, 100000000003, 18000); (32452843, 2147483647, 12000);
        (67867967, 1000000007, 12000); (104395301, 1000000021, 12000);
        (141650939, 1000000033, 12000); (179424673, 2147483629, 12000);
        (982451653, 1000000007, 16000); (1299709, 999999999989, 20000);
        (2038074743, 1000000009, 16000) ]
  | name -> invalid_arg ("Cfrac.run: unknown input " ^ name)

let inputs = [ "tiny"; "train"; "test" ]

let run ?(scale = 1.0) ~input () =
  let battery = input_primes input in
  let rt = Rt.create ~ref_ratio:0.22 ~program:"cfrac" ~input () in
  List.iter
    (fun (p, q, iters) ->
      let n = Printf.sprintf "%d" (p * q) in
      let max_iters = max 50 (int_of_float (float_of_int iters *. scale)) in
      let _ : result = factor_string rt ~n ~max_iters in
      ())
    battery;
  Rt.finish rt
