module Rt = Lp_ialloc.Runtime

(* Fill dictionary words into 72-column paragraphs and count frequencies;
   words arrive one (or a few) per input line.  Functions give the
   call-chains extra depth, as AWK programmers' helper functions do. *)
let script =
  {awk|
function emit(s) {
  print s
  paragraphs_out += 1
}

function flush_line() {
  if (len > 0) { emit(line); line = ""; len = 0 }
}

function add_word(w,  n) {
  n = length(w)
  if (len + n + 1 > 72) flush_line()
  if (len == 0) { line = w; len = n }
  else { line = line " " w; len = len + n + 1 }
  count[w] = count[w] + 1
  total_words += 1
  if (length(w) > longest) longest = length(w)
}

BEGIN { line = ""; len = 0 }

{
  for (i = 1; i <= NF; i++) add_word($i)
}

END {
  flush_line()
  frequent = 0
  for (w in count) {
    if (count[w] >= 3) frequent += 1
  }
  printf "%d words, %d frequent, longest %d\n", total_words, frequent, longest
}
|awk}

let run_script rt ~script ~lines =
  let program = Awk_parser.parse script in
  let interp = Awk_interp.create rt program in
  Awk_interp.run interp ~lines

(* Dictionaries: mostly one word per line, occasionally several, like a
   dictionary file with multi-word entries. *)
let dictionary_lines rng ~n_words =
  let words = Corpus.dictionary rng (max 16 (n_words / 20)) in
  Array.init n_words (fun _ ->
      if Prng.float rng < 0.85 then Prng.choose rng words
      else
        String.concat " "
          (List.init (Prng.in_range rng 2 4) (fun _ -> Prng.choose rng words)))

let input_spec = function
  | "tiny" -> ("gawk-tiny", 400)
  | "train" -> ("gawk-train-webster", 30_000)
  | "test" -> ("gawk-test-oed", 60_000)
  | name -> invalid_arg ("Gawk.run: unknown input " ^ name)

let inputs = [ "tiny"; "train"; "test" ]

let run ?(scale = 1.0) ~input () =
  let seed, n_words = input_spec input in
  let n_words = max 50 (int_of_float (float_of_int n_words *. scale)) in
  let rng = Prng.of_string seed in
  let lines = dictionary_lines rng ~n_words in
  (* The interpreter's explicit per-eval stack references already put the
     heap fraction at the paper's ~47% for GAWK; no implied extra. *)
  let rt = Rt.create ~ref_ratio:0.0 ~program:"gawk" ~input () in
  let (_ : string) = run_script rt ~script ~lines in
  Rt.finish rt
