(** Growable [int] array with amortized-doubling storage, and the one
    growth rule ({!widen}) of every bare table.

    The streaming consumers (driver, trainer, linter) replace their
    [Array.make n_objects] per-object tables with these: object ids are
    dense but a source's object count is only known at exhaustion, so the
    tables grow as ids appear.  Reads beyond the current length return the
    [default], writes extend the length (intermediate slots hold the
    default).

    Every index is checked against [\[0, Sys.max_array_length)]: an
    index outside it (a corrupt trace's object id) raises
    [Invalid_argument] and leaves the table as it was.  The in-bounds
    path of {!get} and {!set} is one compare and a branch. *)

type t

val create : ?default:int -> int -> t
(** [create ?default hint] pre-sizes for [hint] elements ([default]
    defaults to [0]). *)

val length : t -> int
(** Highest written index + 1. *)

val ensure : t -> int -> unit
(** [ensure t n] extends the logical length to at least [n].
    @raise Failure when [n] exceeds [Sys.max_array_length]. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit

val take : t -> int array
(** The first [length t] elements.  When the storage is exactly full it
    is handed over, not copied, so the grow must not be written
    afterwards: call it once the table is complete. *)

(** {1 Bare tables}

    For tables kept as a plain array (or a byte per slot) and indexed
    directly: the same growth rule and the same index check, on the
    slow path only.  A table grows to [max n (2 * length)] slots, [n]
    the length that covers the index, so an empty table first grows to
    exactly [n]. *)

val widen : 'a array -> default:'a -> int -> 'a array
(** [widen a ~default i] is [a] when [i] indexes it, else a grown copy
    (new slots hold [default]) that [i] indexes.
    @raise Invalid_argument when [i] is outside
    [\[0, Sys.max_array_length)]. *)

val widen_bytes : Bytes.t -> int -> Bytes.t
(** {!widen} for a byte per slot; new bytes are ['\000']. *)
