(** Dense ids for the raw allocation sites of a trace: (chain id, size)
    pairs, numbered 0, 1, 2, … in first-seen order.

    Every per-(chain, size) table in the replay and analysis layers —
    the static predictor's verdict memo, the online oracle's site states,
    the audit's site profile and live-interval domains — keys on this
    one interner.  It is an open-addressing table over parallel int
    arrays with a load factor of at most 1/2: a probe allocates nothing
    (no tuple key, no option, no polymorphic hash), which is what lets a
    per-allocation lookup sit on the hot path of a replay.  Ids depend
    only on the order pairs are first interned, never on the hash
    layout. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty interner with room for [capacity] probe slots (rounded up
    to a power of two, default 256); it grows as needed. *)

val find : t -> int -> int -> int
(** [find t chain size] is the pair's id, or [-1] if it was never
    interned. *)

val intern : t -> int -> int -> int
(** [intern t chain size] is the pair's id, assigning the next one
    ([length t] before the call) on first sight. *)

val length : t -> int
(** Number of pairs interned. *)

val chain : t -> int -> int
val size : t -> int -> int
(** The pair an id stands for. *)

val chains : t -> int array
val sizes : t -> int array
(** Every interned pair's chain (resp. size), indexed by id. *)

val clear : t -> unit
(** Forget every pair, keeping the capacity: ids restart at 0. *)
