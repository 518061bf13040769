(** The shared site domain.

    The per-(chain, size) abstract domain both the collision and the
    coverage analyses consume: every allocation is attributed to its
    concrete site (raw chain id × exact size) and to the portable
    predictor key the configured policy maps that site onto, with
    per-site and per-key lifetime statistics accumulated through the
    {!Lp_trace.Lifetimes.Fold} machinery (deferred, so survivors get
    their end-of-trace lifetimes).  Several concrete sites mapping onto
    one key is exactly a {e key collision}. *)

type config = {
  pc_policy : Lp_callchain.Site.policy;
  pc_rounding : int;  (** portable-key size rounding *)
  pc_threshold : int;  (** short-lived cutoff, bytes *)
}

type site = {
  st_chain : int;  (** raw chain id *)
  st_size : int;  (** exact allocation size *)
  st_key : int;  (** index into [pf_keys] *)
  st_first_event : int;  (** first allocation under this site *)
  mutable st_count : int;
  mutable st_short : int;
  mutable st_survivors : int;
  mutable st_max_lifetime : int;
  mutable st_bytes : int;
  st_hist : Lp_quantile.Histogram.t;
      (** count-weighted lifetime quartile histogram *)
}

type key = {
  ky_key : Lifetime.Portable.t;
  ky_first_event : int;
  mutable ky_sites : int list;  (** member sites, first-appearance order *)
  mutable ky_count : int;
  mutable ky_short : int;
  mutable ky_survivors : int;
  mutable ky_max_lifetime : int;
  mutable ky_bytes : int;
}

type merged = {
  pf_sites : site array;  (** global first-appearance order *)
  pf_keys : key array;  (** global first-appearance order *)
  pf_end_clock : int;
  pf_threshold : int;
}

val domain : config -> (module Lp_trace.Absint.DOMAIN)

val project : Lp_trace.Absint.token -> merged
(** Unpack this domain's merged token.
    @raise Invalid_argument on a foreign token. *)
