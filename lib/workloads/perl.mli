(** PERL: the report-extraction workload.

    Stands in for Perl 4.10.  The paper's two PERL inputs were {i two
    distinct Perl programs} on distinct data ("sorted the contents of a
    file and formatted the words in a dictionary into filled paragraphs"),
    which is why PERL shows the largest gap between self prediction
    (91.4%) and true prediction (20.4%) in Table 4.  We mirror that: the
    training input runs a sort-and-count script, the test input runs a
    paragraph-formatting script with regex extraction — different code,
    different allocation sites. *)

val sort_script : string
val format_script : string

val inputs : string list

val run : ?scale:float -> input:string -> unit -> Lp_trace.Trace.t
(** @raise Invalid_argument on an unknown input name. *)

val run_script :
  Lp_ialloc.Runtime.t -> script:string -> stdin:string array -> string
(** Parse and execute an arbitrary script (tests, examples). *)
