(** ESPRESSO: two-level logic minimization.

    This workload stands in for the paper's ESPRESSO 2.3 ("a PLA logic
    optimization program").  It implements the classic Espresso loop over
    the {!Cube} algebra: compute the off-set by complementation, then
    iterate EXPAND (greedily raise literals of each cube against the
    off-set), IRREDUNDANT (drop cubes covered by the rest of the cover),
    and REDUCE (shrink cubes to the smallest form that preserves the
    cover), until the cover cost stops improving.

    Allocation profile: the recursive cofactor/tautology/complement
    procedures create great numbers of short-lived cube objects, while the
    on-set and off-set covers live for a whole minimization — the mix of
    many sites with varied lifetimes that gives ESPRESSO the largest site
    count in the paper (Table 4: 2854 sites). *)

type stats = {
  initial_cubes : int;
  final_cubes : int;
  initial_literals : int;
  final_literals : int;
  passes : int;
  final_cover : string list;
      (** the minimized cover in ['0' '1' '-'] notation, for verification *)
}

val minimize : Lp_ialloc.Runtime.t -> n_vars:int -> on_set:string list -> stats
(** Minimize the single-output function whose on-set cubes are given in
    ['0' '1' '-'] positional notation.  Verifies nothing (tests do); returns
    cost statistics. *)

val inputs : string list

val run : ?scale:float -> input:string -> unit -> Lp_trace.Trace.t
(** Run a named input set: a deterministic battery of synthetic PLAs
    ("examples provided with the release code" in the paper).
    @raise Invalid_argument on an unknown input name. *)
