(** PINT: a dispatch-table AST interpreter, the realloc-bearing workload.

    The paper's five programs predate [realloc]-centric idioms; PINT
    supplies them.  It is a small dynamic-language interpreter in the
    Plang / language-p mould: an opcode-indexed handler table drives
    evaluation, calls allocate scope frames freed on return, undefined
    global paths auto-vivify into chains of reference cells, and vectors
    and string buffers grow (and shrink) their backing stores through
    {!Lp_ialloc.Runtime.realloc} — so its traces carry first-class
    {!Lp_trace.Event.Realloc} events alongside deep-chain allocations.

    The [train] input runs a vector-heavy program; [test] runs a string-
    and vivification-heavy one: same interpreter, different programs,
    like the paper's PERL pair. *)

val inputs : string list

val run : ?scale:float -> input:string -> unit -> Lp_trace.Trace.t
(** @raise Invalid_argument on an unknown input name. *)
