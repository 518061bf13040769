(** GAWK: the AWK-interpreter workload.

    The paper's GAWK input was "an AWK script to format the words of
    several dictionaries into filled paragraphs"; crucially, the two GAWK
    input sets ran the {i same} script on different data, which is why GAWK
    shows essentially identical self and true prediction (Table 4).  We
    mirror that: both named inputs run one fixed script (paragraph filling
    plus word-frequency accounting) over dictionaries of different sizes
    and contents. *)

val script : string
(** The mini-AWK source both inputs run. *)

val inputs : string list

val run : ?scale:float -> input:string -> unit -> Lp_trace.Trace.t
(** @raise Invalid_argument on an unknown input name. *)

val run_script :
  Lp_ialloc.Runtime.t -> script:string -> lines:string array -> string
(** Parse and execute an arbitrary script (used by tests and examples);
    returns its output. *)
