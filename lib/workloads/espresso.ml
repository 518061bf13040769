module Rt = Lp_ialloc.Runtime

type stats = {
  initial_cubes : int;
  final_cubes : int;
  initial_literals : int;
  final_literals : int;
  passes : int;
  final_cover : string list;  (* positional notation, for verification *)
}

type st = {
  rt : Rt.t;
  ctx : Cube.ctx;
  f_expand : Lp_callchain.Func.id;
  f_irred : Lp_callchain.Func.id;
  f_reduce : Lp_callchain.Func.id;
  f_main : Lp_callchain.Func.id;
}

(* EXPAND: for each cube, try raising each literal to don't-care; keep the
   raise if the expanded cube stays disjoint from the off-set.  Expanded
   cubes may cover siblings, which irredundant will then drop. *)
let expand st off_set cover =
  Rt.in_frame st.rt st.f_expand (fun () ->
      let ctx = st.ctx in
      Cube.with_workspace ctx (List.length cover) @@ fun () ->
      List.map
        (fun c ->
          let cur = ref (Cube.copy ctx c) in
          for v = 0 to Cube.n_vars ctx - 1 do
            match Cube.get !cur v with
            | `Zero | `One ->
                let raised = Cube.set ctx !cur v `Dash in
                let clashes =
                  List.exists
                    (fun r ->
                      match Cube.intersect ctx raised r with
                      | Some i ->
                          Cube.release ctx i;
                          true
                      | None -> false)
                    off_set
                in
                if clashes then Cube.release ctx raised
                else begin
                  Cube.release ctx !cur;
                  cur := raised
                end
            | `Dash | `Empty -> ()
          done;
          !cur)
        cover)

(* IRREDUNDANT: drop any cube covered by the union of the others.  A simple
   quadratic sweep using the tautology-based containment test. *)
let irredundant st cover =
  Rt.in_frame st.rt st.f_irred (fun () ->
      let ctx = st.ctx in
      Cube.with_workspace ctx (List.length cover) @@ fun () ->
      let rec sweep kept = function
        | [] -> List.rev kept
        | c :: rest ->
            let others = List.rev_append kept rest in
            if others <> [] && Cube.covers_cube ctx others c then begin
              Cube.release ctx c;
              sweep kept rest
            end
            else sweep (c :: kept) rest
      in
      sweep [] cover)

(* REDUCE: shrink each cube to the smallest cube still covering the part of
   the on-set no other cube covers.  We lower literals one at a time,
   keeping a lowering only if the rest of the cover plus the lowered cube
   still covers the original cube. *)
let reduce st cover =
  Rt.in_frame st.rt st.f_reduce (fun () ->
      let ctx = st.ctx in
      Cube.with_workspace ctx (List.length cover) @@ fun () ->
      let rec sweep done_ = function
        | [] -> List.rev done_
        | c :: rest ->
            let others = List.rev_append done_ rest in
            let cur = ref (Cube.copy ctx c) in
            for v = 0 to Cube.n_vars ctx - 1 do
              match Cube.get !cur v with
              | `Dash ->
                  (* try each phase; keep the first lowering that preserves
                     coverage of c by (others + lowered) *)
                  let try_phase lit =
                    let lowered = Cube.set ctx !cur v lit in
                    if Cube.covers_cube ctx (lowered :: others) c then begin
                      Cube.release ctx !cur;
                      cur := lowered;
                      true
                    end
                    else begin
                      Cube.release ctx lowered;
                      false
                    end
                  in
                  if not (try_phase `One) then ignore (try_phase `Zero : bool)
              | _ -> ()
            done;
            Cube.release ctx c;
            sweep (!cur :: done_) rest
      in
      sweep [] cover)

let minimize rt ~n_vars ~on_set =
  let ctx = Cube.make_ctx rt ~n_vars in
  let st =
    {
      rt;
      ctx;
      f_expand = Rt.func rt "expand";
      f_irred = Rt.func rt "irredundant";
      f_reduce = Rt.func rt "reduce";
      f_main = Rt.func rt "espresso_main";
    }
  in
  Rt.in_frame st.rt st.f_main (fun () ->
      let cover = List.map (Cube.of_string ctx) on_set in
      let initial_cubes, initial_literals = Cube.cover_cost cover in
      (* Off-set once, by complementation (no don't-care set). *)
      let off_set = Cube.complement ctx cover in
      let passes = ref 0 in
      let current = ref cover in
      let best_cost = ref (Cube.cover_cost cover) in
      let improved = ref true in
      while !improved && !passes < 8 do
        incr passes;
        let expanded = expand st off_set !current in
        Cube.release_cover ctx !current;
        let irred = irredundant st expanded in
        let reduced = reduce st irred in
        let expanded2 = expand st off_set reduced in
        Cube.release_cover ctx reduced;
        let final = irredundant st expanded2 in
        current := final;
        let cost = Cube.cover_cost final in
        if cost < !best_cost then best_cost := cost else improved := false
      done;
      let final_cubes, final_literals = Cube.cover_cost !current in
      let final_cover = List.map (Cube.to_string ctx) !current in
      Cube.release_cover ctx !current;
      Cube.release_cover ctx off_set;
      { initial_cubes; final_cubes; initial_literals; final_literals;
        passes = !passes; final_cover })

(* -- synthetic PLAs --------------------------------------------------------- *)

(* Random cube in positional notation, biased towards literals so the
   function has structure to minimize. *)
let random_cube rng n_vars =
  String.init n_vars (fun _ ->
      let r = Prng.float rng in
      if r < 0.42 then '0' else if r < 0.84 then '1' else '-')

let random_pla rng ~n_vars ~n_cubes =
  List.init n_cubes (fun _ -> random_cube rng n_vars)

(* A structured PLA: the carry-out of an n-bit ripple adder, as minterm-ish
   cubes.  Variables: a_0..a_{k-1}, b_0..b_{k-1}. *)
let adder_carry_pla ~k =
  (* carry out of a_i + b_i with ripple: enumerate (a, b) pairs and emit the
     minterms where carry_out = 1; on k bits this is dense and gives the
     minimizer real work. *)
  let n_vars = 2 * k in
  let cubes = ref [] in
  for a = 0 to (1 lsl k) - 1 do
    for b = 0 to (1 lsl k) - 1 do
      if a + b >= 1 lsl k then begin
        let cube =
          String.init n_vars (fun v ->
              if v < k then if (a lsr v) land 1 = 1 then '1' else '0'
              else if (b lsr (v - k)) land 1 = 1 then '1'
              else '0')
        in
        cubes := cube :: !cubes
      end
    done
  done;
  (n_vars, !cubes)

type pla = { n_vars : int; on_set : string list }

let input_plas input : pla list =
  match input with
  | "tiny" ->
      let rng = Prng.of_string "espresso-tiny" in
      [ { n_vars = 4; on_set = random_pla rng ~n_vars:4 ~n_cubes:6 } ]
  | "train" ->
      let rng = Prng.of_string "espresso-train" in
      let n1, adder = adder_carry_pla ~k:3 in
      [
        { n_vars = 8; on_set = random_pla rng ~n_vars:8 ~n_cubes:24 };
        { n_vars = n1; on_set = adder };
        { n_vars = 9; on_set = random_pla rng ~n_vars:9 ~n_cubes:30 };
        { n_vars = 10; on_set = random_pla rng ~n_vars:10 ~n_cubes:36 };
        { n_vars = 7; on_set = random_pla rng ~n_vars:7 ~n_cubes:20 };
      ]
  | "test" ->
      let rng = Prng.of_string "espresso-test" in
      let n1, adder = adder_carry_pla ~k:4 in
      let n2, adder3 = adder_carry_pla ~k:3 in
      [
        { n_vars = 9; on_set = random_pla rng ~n_vars:9 ~n_cubes:32 };
        { n_vars = n1; on_set = adder };
        { n_vars = 10; on_set = random_pla rng ~n_vars:10 ~n_cubes:40 };
        { n_vars = 8; on_set = random_pla rng ~n_vars:8 ~n_cubes:28 };
        { n_vars = 11; on_set = random_pla rng ~n_vars:11 ~n_cubes:44 };
        { n_vars = n2; on_set = adder3 };
        { n_vars = 9; on_set = random_pla rng ~n_vars:9 ~n_cubes:36 };
        { n_vars = 10; on_set = random_pla rng ~n_vars:10 ~n_cubes:34 };
        { n_vars = 7; on_set = random_pla rng ~n_vars:7 ~n_cubes:24 };
        { n_vars = 12; on_set = random_pla rng ~n_vars:12 ~n_cubes:40 };
      ]
  | name -> invalid_arg ("Espresso.run: unknown input " ^ name)

let inputs = [ "tiny"; "train"; "test" ]

let run ?(scale = 1.0) ~input () =
  let plas = input_plas input in
  let plas =
    if scale >= 1.0 then plas
    else begin
      (* keep a prefix of the battery for scaled-down test runs *)
      let keep = max 1 (int_of_float (scale *. float_of_int (List.length plas))) in
      List.filteri (fun i _ -> i < keep) plas
    end
  in
  let rt = Rt.create ~ref_ratio:0.06 ~program:"espresso" ~input () in
  List.iter (fun { n_vars; on_set } -> ignore (minimize rt ~n_vars ~on_set : stats)) plas;
  Rt.finish rt
