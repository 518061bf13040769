(** GHOST: the PostScript-interpreter workload.

    Stands in for GhostScript 2.1 run with [NODISPLAY] over large documents
    ("a large reference manual and a masters thesis").  The named inputs
    generate synthetic PostScript documents — a prolog of procedure
    definitions followed by pages of text runs, rules, boxes and curves —
    and interpret them through the mini-PostScript VM, rasterizing into
    6-kilobyte band buffers.

    The two inputs have different page mixes (the manual is table- and
    rule-heavy, the thesis is prose-heavy), so true prediction degrades
    slightly against self prediction, as the paper observed for GHOST. *)

type summary = { pages : int; bands : int; output_chars : int }

val interpret : Lp_ialloc.Runtime.t -> source:string -> summary
(** Interpret PostScript source on the given runtime.
    @raise Ps_object.Ps_error on PostScript errors. *)

val document : style:[ `Manual | `Thesis ] -> pages:int -> seed:string -> string
(** Generate a synthetic document. *)

val inputs : string list

val run : ?scale:float -> input:string -> unit -> Lp_trace.Trace.t
(** @raise Invalid_argument on an unknown input name. *)
