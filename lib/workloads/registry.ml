type program = {
  name : string;
  description : string;
  input_notes : string;
  run : ?scale:float -> input:string -> unit -> Lp_trace.Trace.t;
}

let programs =
  [
    {
      name = "cfrac";
      description =
        "Factors products of two primes with the continued-fraction method \
         (Morrison-Brillhart), over an instrumented multi-precision integer \
         substrate.";
      input_notes =
        "Train and test factor different semiprimes of different magnitudes.";
      run = Cfrac.run;
    };
    {
      name = "espresso";
      description =
        "Two-level logic minimizer: EXPAND / IRREDUNDANT / REDUCE over a \
         bit-pair cube algebra with unate-recursive tautology and \
         complementation.";
      input_notes =
        "Train and test minimize different PLA batteries (different random \
         functions and adder widths).";
      run = Espresso.run;
    };
    {
      name = "gawk";
      description =
        "AWK interpreter (lexer, parser, tree-walking evaluator with \
         heap-allocated value cells) running a paragraph-filling and \
         word-frequency script.";
      input_notes =
        "The SAME script on different dictionaries, like the paper's GAWK \
         inputs; true prediction should match self prediction.";
      run = Gawk.run;
    };
    {
      name = "ghost";
      description =
        "PostScript interpreter with operand/dict stacks, path construction, \
         curve flattening, and a banded scanline rasterizer (6 KB band \
         buffers).";
      input_notes =
        "Train renders a rule-heavy reference manual, test a prose-heavy \
         thesis: same interpreter, different page mixes.";
      run = Ghost.run;
    };
    {
      name = "perl";
      description =
        "Perl-style report-extraction interpreter with arrays, hashes, \
         subroutines and a backtracking regular-expression engine.";
      input_notes =
        "TWO DISTINCT scripts (sort-and-count vs. paragraph formatting with \
         regex extraction), like the paper's PERL inputs; true prediction \
         should degrade sharply.";
      run = Perl.run;
    };
    {
      name = "pint";
      description =
        "Dispatch-table AST interpreter whose scope frames, auto-vivified \
         reference chains, and growable vectors and string buffers emit \
         deep-chain allocations and first-class realloc sequences.";
      input_notes =
        "Train runs a vector-heavy program, test a string- and \
         vivification-heavy one: same interpreter, different programs. \
         The only workload whose traces carry Realloc events.";
      run = Pint.run;
    };
  ]

let find name = List.find (fun p -> p.name = name) programs
let names = List.map (fun p -> p.name) programs

let cache : (string * string * float, Lp_trace.Trace.t) Hashtbl.t = Hashtbl.create 16

let trace ?(scale = 1.0) ~program ~input () =
  let key = (program, input, scale) in
  match Hashtbl.find_opt cache key with
  | Some t -> t
  | None ->
      let p = find program in
      let t = p.run ~scale ~input () in
      Hashtbl.replace cache key t;
      t

let clear_cache () = Hashtbl.reset cache
