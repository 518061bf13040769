module Rt = Lp_ialloc.Runtime

(* Sort the lines of a file, reporting duplicate counts and a few regex
   statistics — a classic report-extraction one-liner grown up. *)
let sort_script =
  {perl|
my $n = 0;
while (<>) {
  chomp($_);
  push(@lines, $_);
  $n = $n + 1;
  if ($_ =~ /^([a-f])/) { $initial{$1} = $initial{$1} + 1; }
}
@sorted = sort(@lines);
my $prev = "";
my $dups = 0;
foreach $l (@sorted) {
  if ($l eq $prev) { $dups = $dups + 1; }
  else { print($l); }
  $prev = $l;
}
printf("%d lines, %d duplicates\n", $n, $dups);
foreach $k (sort(keys(%initial))) {
  printf("%s: %d\n", $k, $initial{$k});
}
|perl}

(* Format dictionary words into filled paragraphs, tallying vowel runs. *)
let format_script =
  {perl|
sub flush_line {
  if ($len > 0) { print($line); $line = ""; $len = 0; $out = $out + 1; }
}

sub add_word {
  my $w = shift;
  my $k = length($w);
  if ($len + $k + 1 > 70) { flush_line(); }
  if ($len == 0) { $line = $w; $len = $k; }
  else { $line = $line . " " . $w; $len = $len + $k + 1; }
}

while (<>) {
  chomp($_);
  @words = split(/ /, $_);
  foreach $w (@words) {
    if ($w =~ /([aeiou][aeiou]*)/) {
      $vowels{$1} = $vowels{$1} + 1;
    }
    $w =~ s/ch/k/;
    add_word($w);
    $total = $total + 1;
  }
}
flush_line();
printf("%d words in %d lines\n", $total, $out);
foreach $k (sort(keys(%vowels))) {
  printf("%s %d\n", $k, $vowels{$k});
}
|perl}

let run_script rt ~script ~stdin =
  let program = Perl_parser.parse script in
  let interp = Perl_interp.create rt program in
  Perl_interp.run interp ~stdin

let input_spec = function
  | "tiny" -> (sort_script, "perl-tiny", 200, 1)
  | "train" -> (sort_script, "perl-sortfile", 8_000, 1)
  | "test" -> (format_script, "perl-dict", 12_000, 4)
  | name -> invalid_arg ("Perl.run: unknown input " ^ name)

let inputs = [ "tiny"; "train"; "test" ]

let run ?(scale = 1.0) ~input () =
  let script, seed, n_lines, words_per_line = input_spec input in
  let n_lines = max 20 (int_of_float (float_of_int n_lines *. scale)) in
  let rng = Prng.of_string seed in
  let vocab = Corpus.dictionary rng (max 16 (n_lines / 12)) in
  let lines =
    Array.init n_lines (fun _ ->
        String.concat " "
          (List.init (Prng.in_range rng 1 (2 * words_per_line))
             (fun _ -> Prng.choose rng vocab)))
  in
  let rt = Rt.create ~ref_ratio:0.0 ~program:"perl" ~input () in
  let (_ : string) = run_script rt ~script ~stdin:lines in
  Rt.finish rt
