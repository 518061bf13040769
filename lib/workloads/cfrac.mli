(** CFRAC: continued-fraction integer factorization (Morrison–Brillhart).

    This workload stands in for the paper's CFRAC program ("factors large
    integers using the continued fraction method", inputs "20–40 digit
    numbers that were the product of two primes").  The implementation is a
    genuine factorizer: it expands the continued fraction of [sqrt(k*N)],
    trial-divides the residues [Q_n] over a factor base, and combines smooth
    relations by Gaussian elimination over GF(2) until a congruence of
    squares splits [N].

    All multi-precision values live on the instrumented heap ({!Bignum}), so
    the allocation behaviour mirrors the original: an enormous number of
    tiny, almost-all-short-lived objects (temporaries of the recurrences and
    trial divisions) plus a few extremely long-lived ones (the factor base
    and the accumulated relations) — the highly skewed lifetime distribution
    the paper singles CFRAC out for. *)

type result = {
  factor : string option;  (** a nontrivial factor of the input, in decimal *)
  relations_found : int;
  iterations : int;
}

val factor_string : Lp_ialloc.Runtime.t -> n:string -> max_iters:int -> result
(** Factor the decimal number [n] on the given runtime.  [max_iters] bounds
    the continued-fraction iterations per multiplier so tracing terminates
    even on hostile inputs. *)

val inputs : string list
(** Named input sets, smallest first. *)

val run : ?scale:float -> input:string -> unit -> Lp_trace.Trace.t
(** Run the workload on a named input and return its allocation trace.
    [scale] (default 1.0) scales the iteration budget down for quick tests.

    @raise Invalid_argument on an unknown input name. *)
