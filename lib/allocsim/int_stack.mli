(** Growable int-array stack used by the allocator hot paths in place of
    [int list] free lists: LIFO like cons/head (so the swap is
    metric-neutral) with no allocation per push/pop at steady state. *)

type t

val create : unit -> t
val is_empty : t -> bool
val push : t -> int -> unit

val pop : t -> int
(** Undefined on an empty stack — callers check {!is_empty} first. *)
