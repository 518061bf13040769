(** Tunable parameters of lifetime prediction, with the paper's choices as
    defaults (§4.1 and §5.2). *)

type t = {
  short_lived_threshold : int;
      (** an object is short-lived if it dies before this many bytes are
          allocated; the paper uses 32 KB *)
  n_arenas : int;  (** arena blocking; the paper uses 16 *)
  arena_size : int;  (** bytes per arena; the paper uses 4 KB *)
  size_rounding : int;
      (** object sizes are rounded up to this multiple when mapping sites
          across runs; the paper found 4 best *)
  policy : Lp_callchain.Site.policy;
      (** which abstraction of the birth context keys a site *)
}

let default =
  {
    short_lived_threshold = 32768;
    n_arenas = Lp_allocsim.Arena.default_config.n_arenas;
    arena_size = Lp_allocsim.Arena.default_config.arena_size;
    size_rounding = 4;
    policy = Lp_callchain.Site.Complete_chain;
  }

let arena_config t : Lp_allocsim.Arena.config =
  { n_arenas = t.n_arenas; arena_size = t.arena_size }
