(** Per-allocation-site lifetime statistics.

    One of these accumulates for every distinct allocation site during
    training: object and byte counts, how many were short-lived, the
    heap-reference total (for "New Ref" predictions) and the longest
    lifetime seen — what the predictor (§4.1) and the model file read.
    Every field is a sum or a maximum, so a site's statistics do not
    depend on the order its objects are observed in; training relies on
    that to fold per-(chain, size) totals into sites ({!add}). *)

type t = {
  mutable count : int;
  mutable bytes : int;
  mutable short_count : int;
  mutable short_bytes : int;
  mutable survivors : int;  (** objects never freed *)
  mutable max_lifetime : int;
  mutable refs : int;
}

let create () =
  {
    count = 0;
    bytes = 0;
    short_count = 0;
    short_bytes = 0;
    survivors = 0;
    max_lifetime = 0;
    refs = 0;
  }

let observe t ~size ~lifetime ~survived ~short ~refs =
  t.count <- t.count + 1;
  t.bytes <- t.bytes + size;
  if short then begin
    t.short_count <- t.short_count + 1;
    t.short_bytes <- t.short_bytes + size
  end;
  if survived then t.survivors <- t.survivors + 1;
  if lifetime > t.max_lifetime then t.max_lifetime <- lifetime;
  t.refs <- t.refs + refs

(* [add t s] folds [s]'s objects into [t]: the same statistics as
   observing them one by one, in any order *)
let add t s =
  t.count <- t.count + s.count;
  t.bytes <- t.bytes + s.bytes;
  t.short_count <- t.short_count + s.short_count;
  t.short_bytes <- t.short_bytes + s.short_bytes;
  t.survivors <- t.survivors + s.survivors;
  if s.max_lifetime > t.max_lifetime then t.max_lifetime <- s.max_lifetime;
  t.refs <- t.refs + s.refs

let all_short t = t.count > 0 && t.short_count = t.count
(** The paper's predictor criterion: {e all} of the site's training
    objects were short-lived (§4.1: "we only consider allocation sites in
    which all of the objects allocated lived less than 32 kilobytes"). *)

let short_fraction t =
  if t.count = 0 then 0. else float_of_int t.short_count /. float_of_int t.count
