(** Run-independent site keys.

    Function identifiers are dense per-run integers, so a site from the
    training run cannot be compared directly with one from the test run.
    A {e portable} key names the chain by function {e names} and rounds the
    size up to a multiple of the configured rounding (the paper rounds to
    4 bytes: exact sizes sometimes failed to map between runs, while
    coarser rounding "eliminated too much size information", §4.1). *)

type t = { chain : string list; size : int }

let of_site (funcs : Lp_callchain.Func.table) ~rounding (site : Lp_callchain.Site.t) =
  {
    chain = Lp_callchain.Chain.names funcs site.chain;
    size = Lp_callchain.Site.round_size ~multiple:rounding site.size;
  }

(* The one site-to-key rule of a policy.  Under [Encrypted_key] the
   chain is a single XOR key, already name-derived and hence stable
   across runs; [of_site] would misinterpret it as a function id. *)
let of_policy_site (policy : Lp_callchain.Site.policy) funcs ~rounding
    (site : Lp_callchain.Site.t) =
  match policy with
  | Encrypted_key ->
      {
        chain = [ string_of_int site.chain.(0) ];
        size = Lp_callchain.Site.round_size ~multiple:rounding site.size;
      }
  | _ -> of_site funcs ~rounding site

let equal a b = a.size = b.size && List.equal String.equal a.chain b.chain

let hash t =
  let h = ref (t.size * 31) in
  List.iter (fun name -> h := ((!h * 33) + Hashtbl.hash name) land max_int) t.chain;
  !h

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let to_string t = Printf.sprintf "[%s; ~size=%d]" (String.concat "<-" t.chain) t.size
