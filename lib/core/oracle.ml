(* The lifetime-oracle layer: one interface over every way the simulator
   can answer "will this allocation die young?".

   The paper's pipeline trains a site database offline and compiles it
   into the allocation system (§5.1) — that is the [Static] oracle, a
   thin wrapper over {!Predictor}.  The [Online] oracle removes the
   profile run entirely: it starts empty, watches the outcome of every
   prediction it makes (the driver feeds each object's lifetime back when
   it is known), and promotes a site to short-lived predicted once a
   window of its recent outcomes is unanimously short — with hysteresis,
   so a single long-lived stray does not flap the verdict.

   Determinism: an online instance's state is a pure function of the
   event stream it observed.  The driver consults the oracle in event
   order and reports outcomes in event order (survivors in object-id
   order at the end), and every instance is private to one replay, so
   results are identical at any domain count. *)

type online_params = {
  window : int;  (* outcomes per site considered; 0 = unbounded *)
  promote : int;  (* observations required before promotion *)
  demote : int;  (* consecutive long outcomes that demote *)
  threshold : int option;  (* short-lived cutoff; None = config's *)
}

let default_window = 256
let default_promote = 4
let default_demote = 4

let default_online_params =
  {
    window = default_window;
    promote = default_promote;
    demote = default_demote;
    threshold = None;
  }

type spec = Spec_static | Spec_online of online_params

type t =
  | Static of Predictor.t
  | Online of { params : online_params; config : Config.t }

let static predictor = Static predictor

let online ?(window = default_window) ?(promote = default_promote)
    ?(demote = default_demote) ?threshold config =
  Online { params = { window; promote; demote; threshold }; config }

(* -- spec grammar -----------------------------------------------------------------

   [static] or [online:window=N:promote=K:demote=K:threshold=B], in the
   spec grammar the allocator backends use ({!Lp_allocsim.Spec}).  Only
   the rule that crosses parameters lives here: [promote] may not exceed
   a bounded [window]. *)

module Spec = Lp_allocsim.Spec

let family =
  let positive = Spec.Bounded { lo = 1; hi = None; multiple = None } in
  {
    Spec.noun = "oracle";
    full_noun = "oracle";
    members =
      [
        {
          name = "static";
          aliases = [];
          doc = "the offline-trained site database";
          rows = [];
        };
        {
          name = "online";
          aliases = [];
          doc = "";
          rows =
            [
              {
                key = "window";
                kind = Bounded { lo = 0; hi = Some 65536; multiple = None };
                default = Int default_window;
                grammar = "<n>";
                doc =
                  "sliding outcome window per site, in [0, 65536]; 0 keeps \
                   every outcome";
              };
              {
                key = "promote";
                kind = positive;
                default = Int default_promote;
                grammar = "<n>";
                doc =
                  "outcomes a site needs (all short) before it predicts, at \
                   least 1";
              };
              {
                key = "demote";
                kind = positive;
                default = Int default_demote;
                grammar = "<n>";
                doc =
                  "consecutive long-lived outcomes that revoke a prediction, \
                   at least 1";
              };
              {
                key = "threshold";
                kind = Optional { lo = 1; unset = "config" };
                default = Unset;
                grammar = "<bytes>";
                doc =
                  "short-lived cutoff in allocated bytes, at least 1; \
                   defaults to the simulation threshold";
              };
            ];
        };
      ];
  }

let ( let* ) = Result.bind

let parse spec =
  let* t = Spec.parse family spec in
  if Spec.name t = "static" then Ok (t, Spec_static)
  else
    let p =
      {
        window = Spec.int t "window";
        promote = Spec.int t "promote";
        demote = Spec.int t "demote";
        threshold =
          (match Spec.get t "threshold" with Int n -> Some n | _ -> None);
      }
    in
    if p.window > 0 && p.promote > p.window then
      Spec.error spec "parameter promote: %d exceeds window %d" p.promote p.window
    else Ok (t, Spec_online p)

let spec_of_string spec = Result.map snd (parse spec)
let canonical_spec spec = Result.map (fun (t, _) -> Spec.to_string t) (parse spec)
let grammar_markdown () = Spec.markdown family

let of_spec ~config ?predictor spec =
  match spec with
  | Spec_static -> (
      match predictor with
      | Some p -> Ok (static p)
      | None -> Error "oracle static needs a trained site database")
  | Spec_online params -> Ok (Online { params; config })

(* -- instances --------------------------------------------------------------------

   An instance is one replay's worth of oracle: the {!Lp_allocsim.Driver}
   predictor record plus a way to snapshot the predicted site set
   afterwards.  Static instances are stateless (the database is frozen);
   online instances own mutable window state and must be created fresh
   per replay — {!instance_for_trace} always builds new state, so two
   consecutive replays of the same prepared trace cannot leak learning
   from one into the other. *)

type instance = {
  driver : Lp_allocsim.Driver.predictor;
  snap : unit -> string list;
}

let driver_predictor i = i.driver
let snapshot i = i.snap ()

let static_snapshot p () =
  let acc = ref [] in
  Predictor.iter_keys p (fun k -> acc := Portable.to_string k :: !acc);
  List.sort String.compare !acc

(* -- the online trainer ----------------------------------------------------------

   Per-site state lives in parallel arrays indexed by a dense site id;
   the (chain, size) -> id map is the same no-allocation open-addressing
   probe as {!Predictor}'s memo.  Each outcome updates a bounded window
   (a byte ring when [window > 0], plain counters when unbounded), a
   consecutive-long-outcome streak, and the promoted flag:

     promoted   <- window full enough ([>= promote]) and unanimously short
     demoted    <- [demote] consecutive long outcomes
     in between   the verdict is sticky (hysteresis)

   With [window=0, promote=1, demote=1] the promoted set after a replay
   of the training trace is exactly the all-short site set {!Train}
   collects — the convergence property the test suite checks. *)

type online_state = {
  params : online_params;
  threshold : int;
  policy : Lp_callchain.Site.policy;
  rounding : int;
  chain_of : int -> Lp_callchain.Chain.t;
  funcs : Lp_callchain.Func.table;
  ids : Lp_trace.Site_intern.t;  (* (chain, size) -> site id *)
  (* per-site state, by site id (first-seen order) *)
  mutable st_key : int array;
  mutable st_obs : int array;  (* outcomes ever recorded *)
  mutable st_wobs : int array;  (* outcomes currently in the window *)
  mutable st_wshort : int array;  (* short outcomes in the window *)
  mutable st_streak : int array;  (* consecutive long outcomes *)
  mutable st_promoted : Bytes.t;
  mutable st_ring : Bytes.t array;  (* outcome ring; empty until first use *)
  mutable st_rpos : int array;
  obj_site : Lp_trace.Grow.t;  (* object -> birth site id, -1 untracked *)
}

let create_state ~params ~threshold ~(config : Config.t) ~chain_of ~funcs ~hint =
  {
    params;
    threshold;
    policy = config.policy;
    rounding = config.size_rounding;
    chain_of;
    funcs;
    ids = Lp_trace.Site_intern.create ~capacity:4096 ();
    st_key = Array.make 256 0;
    st_obs = Array.make 256 0;
    st_wobs = Array.make 256 0;
    st_wshort = Array.make 256 0;
    st_streak = Array.make 256 0;
    st_promoted = Bytes.make 256 '\000';
    st_ring = Array.make 256 Bytes.empty;
    st_rpos = Array.make 256 0;
    obj_site = Lp_trace.Grow.create ~default:(-1) hint;
  }

(* every per-site table grows by the one growth rule to index [s] *)
let states_grow st s =
  let widen a = Lp_trace.Grow.widen a ~default:0 s in
  st.st_key <- widen st.st_key;
  st.st_obs <- widen st.st_obs;
  st.st_wobs <- widen st.st_wobs;
  st.st_wshort <- widen st.st_wshort;
  st.st_streak <- widen st.st_streak;
  st.st_rpos <- widen st.st_rpos;
  st.st_promoted <- Lp_trace.Grow.widen_bytes st.st_promoted s;
  st.st_ring <- Lp_trace.Grow.widen st.st_ring ~default:Bytes.empty s

(* a pair seen for the first time gets the next id and fresh state *)
let site_id st chain size key =
  let n = Lp_trace.Site_intern.length st.ids in
  let s = Lp_trace.Site_intern.intern st.ids chain size in
  if s = n then begin
    if s = Array.length st.st_key then states_grow st s;
    st.st_key.(s) <- key
  end;
  s

let record_outcome st s short =
  st.st_obs.(s) <- st.st_obs.(s) + 1;
  let window = st.params.window in
  if window = 0 then begin
    st.st_wobs.(s) <- st.st_wobs.(s) + 1;
    if short then st.st_wshort.(s) <- st.st_wshort.(s) + 1
  end
  else begin
    let ring =
      let r = Array.unsafe_get st.st_ring s in
      if Bytes.length r > 0 then r
      else begin
        let r = Bytes.make window '\000' in
        st.st_ring.(s) <- r;
        r
      end
    in
    let pos = st.st_rpos.(s) in
    if st.st_wobs.(s) < window then st.st_wobs.(s) <- st.st_wobs.(s) + 1
    else if Bytes.unsafe_get ring pos = '\001' then
      st.st_wshort.(s) <- st.st_wshort.(s) - 1;
    Bytes.unsafe_set ring pos (if short then '\001' else '\000');
    st.st_rpos.(s) <- (pos + 1) mod window;
    if short then st.st_wshort.(s) <- st.st_wshort.(s) + 1
  end;
  if short then st.st_streak.(s) <- 0
  else st.st_streak.(s) <- st.st_streak.(s) + 1;
  if Bytes.unsafe_get st.st_promoted s = '\001' then begin
    if st.st_streak.(s) >= st.params.demote then
      Bytes.unsafe_set st.st_promoted s '\000'
  end
  else if
    st.st_wobs.(s) >= st.params.promote && st.st_wshort.(s) = st.st_wobs.(s)
  then Bytes.unsafe_set st.st_promoted s '\001'

(* The driver consults this at every alloc and realloc.  The object's
   site binding is set at its first consultation — the alloc, mirroring
   where offline training attributes lifetimes — and a later realloc
   consults the resized site's verdict without rebinding the outcome. *)
let online_predicted st ~obj ~size ~chain ~key =
  let s = site_id st chain size key in
  if Lp_trace.Grow.get st.obj_site obj < 0 then
    Lp_trace.Grow.set st.obj_site obj s;
  Bytes.unsafe_get st.st_promoted s = '\001'

let online_outcome st ~obj ~lifetime ~survived =
  let s = Lp_trace.Grow.get st.obj_site obj in
  if s >= 0 then begin
    Lp_trace.Grow.set st.obj_site obj (-1);
    let short = (not survived) && lifetime < st.threshold in
    record_outcome st s short
  end

(* The promoted portable key set, aggregated with {!Predictor.build}'s
   conservative rule: rounding can collapse several raw sites onto one
   portable key, and the key survives only if every contributing site
   (with at least one recorded outcome) is promoted.  Sites that were
   only ever consulted — no outcome yet — do not contribute, matching
   offline training, which never saw them either. *)
let online_snapshot st () =
  let portable s =
    Portable.of_policy_site st.policy st.funcs ~rounding:st.rounding
      (Lp_callchain.Site.make st.policy
         ~raw_chain:(st.chain_of (Lp_trace.Site_intern.chain st.ids s))
         ~key:st.st_key.(s)
         ~size:(Lp_trace.Site_intern.size st.ids s))
  in
  let keys = Portable.Table.create 256 in
  for s = 0 to Lp_trace.Site_intern.length st.ids - 1 do
    if st.st_obs.(s) > 0 then begin
      let k = portable s in
      if Bytes.get st.st_promoted s = '\001' then begin
        if not (Portable.Table.mem keys k) then Portable.Table.add keys k ()
      end
      else Portable.Table.remove keys k
    end
  done;
  for s = 0 to Lp_trace.Site_intern.length st.ids - 1 do
    if st.st_obs.(s) > 0 && Bytes.get st.st_promoted s <> '\001' then
      Portable.Table.remove keys (portable s)
  done;
  let acc = ref [] in
  Portable.Table.iter (fun k () -> acc := Portable.to_string k :: !acc) keys;
  List.sort String.compare acc.contents

let online_instance ~(params : online_params) ~config ~predict_cost ~chain_of
    ~funcs ~hint =
  let threshold =
    match params.threshold with
    | Some t -> t
    | None -> config.Config.short_lived_threshold
  in
  let st = create_state ~params ~threshold ~config ~chain_of ~funcs ~hint in
  {
    driver =
      {
        Lp_allocsim.Driver.predicted = online_predicted st;
        predict_cost;
        short_threshold = threshold;
        on_outcome = Some (online_outcome st);
      };
    snap = online_snapshot st;
  }

let static_instance ~predicted ~predict_cost p =
  {
    driver =
      {
        Lp_allocsim.Driver.predicted;
        predict_cost;
        short_threshold = Predictor.threshold p;
        on_outcome = None;
      };
    snap = static_snapshot p;
  }

let instance_for_trace ?(pooled = false) t ~predict_cost
    (trace : Lp_trace.Trace.t) =
  match t with
  | Static p ->
      let predicted =
        if pooled then Predictor.for_trace_pooled p trace
        else Predictor.for_trace p trace
      in
      static_instance ~predicted ~predict_cost p
  | Online { params; config } ->
      online_instance ~params ~config ~predict_cost
        ~chain_of:(Lp_trace.Trace.chain_of_alloc trace)
        ~funcs:trace.funcs
        ~hint:(Lp_trace.Trace.total_objects trace)

let instance_for_source t ~predict_cost (src : Lp_trace.Source.t) =
  match t with
  | Static p ->
      let predicted = Predictor.for_source p src in
      static_instance ~predicted ~predict_cost p
  | Online { params; config } ->
      online_instance ~params ~config ~predict_cost
        ~chain_of:src.Lp_trace.Source.chain ~funcs:src.Lp_trace.Source.funcs
        ~hint:1024
