type entry = {
  member : Spec.member;
  build : ?arena_config:Arena.config -> Spec.t -> Backend.t;
}

let sbrk =
  {
    Spec.key = "sbrk";
    kind = Bounded { lo = 8; hi = None; multiple = Some 8 };
    default = Int First_fit.default_sbrk_chunk;
    grammar = "<bytes>";
    doc = "simulated sbrk granularity: positive multiple of 8";
  }

let freelist name aliases policy =
  {
    member = { name; aliases; doc = ""; rows = [ sbrk ] };
    build =
      (fun ?arena_config:_ t ->
        First_fit.backend ~sbrk_chunk:(Spec.int t "sbrk") ~policy ());
  }

(* In table order.  [arena] builds its fallback, another entry, hence
   the recursion. *)
let rec entries =
  [
    (* first fit with a roving pointer and boundary-tag coalescing (the
       paper's baseline) *)
    freelist "first-fit" [ "ff" ] First_fit.First;
    (* whole-free-list best fit: tighter packing, longer searches *)
    freelist "best-fit" [ "bf" ] First_fit.Best;
    (* 4.2BSD (Kingsley) power-of-two buckets, never coalesced *)
    {
      member = { name = "bsd"; aliases = []; doc = ""; rows = [] };
      build = (fun ?arena_config:_ _ -> Bsd.backend ());
    };
    (* segregated fit: size-class slabs with page recycling (modern design) *)
    {
      member =
        {
          name = "segfit";
          aliases = [ "seg" ];
          doc = "";
          rows =
            [
              {
                key = "slab";
                kind = Ladder { lo = 16; hi = 4096; multiple = 16; max_len = 128 };
                default = Ints Segfit.default_classes;
                grammar = "<n>+<n>+...";
                doc =
                  "slab cell-size ladder: strictly ascending multiples of 16 \
                   in [16, 4096], at most 128 entries";
              };
            ];
        };
      build =
        (fun ?arena_config:_ t -> Segfit.backend ~classes:(Spec.ints t "slab") ());
    };
    (* lifetime-predicting arenas over a fallback (the paper's allocator);
       [arena_config] stands in for the defaults of [n] and [chunk] *)
    {
      member =
        {
          name = "arena";
          aliases = [];
          doc = "";
          rows =
            [
              {
                key = "n";
                kind = Bounded { lo = 1; hi = Some 4096; multiple = None };
                default = Int Arena.default_config.n_arenas;
                grammar = "<count>";
                doc = "number of arenas, in [1, 4096]";
              };
              {
                key = "chunk";
                kind = Bounded { lo = 64; hi = Some 1048576; multiple = None };
                default = Int Arena.default_config.arena_size;
                grammar = "<bytes>";
                doc = "per-arena size in bytes, in [64, 1048576]";
              };
              {
                key = "fallback";
                kind = Member;
                default = Name "first-fit";
                grammar = "<name>";
                doc =
                  "general-purpose fallback backend: any plain backend name \
                   except arena";
              };
            ];
        };
      build =
        (fun ?(arena_config = Arena.default_config) t ->
          let config =
            {
              Arena.n_arenas = Spec.int ~default:arena_config.n_arenas t "n";
              arena_size = Spec.int ~default:arena_config.arena_size t "chunk";
            }
          in
          let fallback =
            build (Spec.bare (find_entry (Spec.text t "fallback")).member)
          in
          Arena.backend ~config ~fallback ());
    };
  ]

and find_entry name = List.find (fun e -> e.member.Spec.name = name) entries

and build ?arena_config t = (find_entry (Spec.name t)).build ?arena_config t

let family =
  {
    Spec.noun = "backend";
    full_noun = "allocator backend";
    members = List.map (fun e -> e.member) entries;
  }

let names () = Spec.names family

let find name =
  match Spec.find family name with
  | Some m -> m
  | None -> failwith (Spec.unknown family name)

let backend ?arena_config name = build ?arena_config (Spec.bare (find name))
let canonical_name name = (find name).name

let backend_of_spec ?arena_config spec =
  Result.map (build ?arena_config) (Spec.parse family spec)

let specs_of_list list =
  let specs = String.split_on_char ',' list in
  match
    List.find_map
      (fun s -> match backend_of_spec s with Ok _ -> None | Error msg -> Some msg)
      specs
  with
  | Some msg -> Error msg
  | None -> Ok specs

let canonical_spec spec = Result.map Spec.to_string (Spec.parse family spec)
let grammar_markdown () = Spec.markdown family
