(** Growable [int] array with amortized-doubling storage.

    The streaming consumers (driver, trainer, linter) replace their
    [Array.make n_objects] per-object tables with these: object ids are
    dense but a source's object count is only known at exhaustion, so the
    tables grow as ids appear.  Reads beyond the current length return the
    [default], writes extend the length (intermediate slots hold the
    default). *)

type t

val create : ?default:int -> int -> t
(** [create ?default hint] pre-sizes for [hint] elements ([default]
    defaults to [0]). *)

val length : t -> int
(** Highest written index + 1. *)

val ensure : t -> int -> unit
(** [ensure t n] extends the logical length to at least [n]. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit
val take : t -> int array
(** The first [length t] elements.  When the storage is exactly full it
    is handed over, not copied, so the grow must not be written
    afterwards: call it once the table is complete. *)
