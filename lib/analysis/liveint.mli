(** Live-interval overlap analysis (the audit's third analysis).

    An {!Lp_trace.Absint} domain over the interval lattice per site — a site here
    being (birth chain × current size bucket): an allocation opens an
    interval, a free closes it, a realloc migrates the object's bytes
    between size buckets of its birth chain.  Per range it records each
    site's net byte delta and relative peak (max prefix sum); the merge
    prefix-sums nets in range order to recover absolute per-site peaks,
    their events, and the foreign co-live bytes at the peak —
    byte-identical to the sequential pass.

    The report surfaces the global live-heap peak
    ([live-peak-pressure], info) and fragmentation hotspots
    ([live-overlap-hotspot], warning): sites whose own peak and the
    foreign bytes co-live at it both exceed a configurable share of the
    global peak — interleaved lifetimes from different sites being what
    defeats address-ordered reuse and what short-lived arenas segregate
    away. *)

type site = {
  li_chain : int;  (** birth chain id *)
  li_size : int;  (** size bucket (current size at the interval's open) *)
  li_peak : int;  (** peak simultaneous live bytes of this site *)
  li_peak_event : int;  (** first event attaining the peak *)
  li_foreign_at_peak : int;  (** other sites' live bytes at that event *)
  li_allocs : int;
  li_alloc_bytes : int;
}

type merged = {
  lm_sites : site array;  (** global first-appearance order *)
  lm_n_sites : int;
  lm_gpeak : int;  (** global live-byte peak; [min_int] on empty input *)
  lm_gpeak_event : int;
}

type summary
(** Per-range token payload; an implementation detail of the merge. *)

type Lp_trace.Absint.token += Summary of summary | Merged of merged

val domain : (module Lp_trace.Absint.DOMAIN)

val project : Lp_trace.Absint.token -> merged
(** Unpack the merged token. @raise Invalid_argument on foreign tokens. *)

val rules : Diagnostic.rule list

val default_hotspot_share : float
(** [0.25]: a hotspot needs its own peak {e and} the foreign co-live
    bytes each ≥ 25% of the global peak. *)

val report :
  ?hotspot_share:float -> Lp_trace.Source.t -> merged -> Diagnostic.t list
(** Hotspots in site first-appearance order, then the global peak. *)
