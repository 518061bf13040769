(** Execution-wide statistics of a trace — the quantities of Table 2.

    {!compute} reads a materialized trace; every streamed and sharded
    pass is the {!domain} under the {!Absint} engine. *)

type t = {
  program : string;
  input : string;
  instructions : int;  (** simulated instructions executed *)
  calls : int;  (** function calls *)
  total_bytes : int;  (** total bytes allocated *)
  total_objects : int;  (** total objects allocated *)
  max_bytes : int;  (** maximum bytes simultaneously alive *)
  max_objects : int;  (** maximum objects simultaneously alive *)
  heap_ref_pct : float;  (** % of all memory references made to the heap *)
  distinct_chains : int;  (** distinct raw stack snapshots at allocations *)
  mean_object_size : float;
}

val compute : Trace.t -> t

val compute_source : Source.t -> t
(** Streaming twin of {!compute}: {!Absint.run_source} of {!domain}, one
    bounded-memory pass whose only per-object state is the engine's.
    Fields are identical to {!compute} on the materialized equivalent.
    The source is consumed. *)

val domain : (module Absint.DOMAIN)
(** Table 2's statistics as an engine domain: each range records the
    live-heap maxima after its allocations and resizes, and the merge
    takes their max and the last range's clock and header fields.
    [lpalloc stats --sharded] runs it through [Lifetime.Shard.run]. *)

val project : Absint.token -> t
(** Unpack {!domain}'s merged token.
    @raise Invalid_argument on a foreign token. *)

val pp : Format.formatter -> t -> unit
