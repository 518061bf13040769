module Rt = Lp_ialloc.Runtime

type summary = { pages : int; bands : int; output_chars : int }

let interpret rt ~source =
  let interp = Ps_interp.create rt in
  Ps_interp.run interp source;
  {
    pages = Ps_interp.pages interp;
    bands = Ps_interp.bands_painted interp;
    output_chars = String.length source;
  }

(* -- synthetic documents ----------------------------------------------------- *)

(* The prolog is deliberately layered (tl -> placetext -> show;
   box -> rectpath -> fill), as real document prologs are: length-1
   call-chains see only the innermost wrapper, so prediction needs depth —
   the effect Table 6 measures. *)
let prolog =
  {ps|
% prolog: procedures shared by the page bodies
/FS 10 def
/setsize { /FS exch def /Times findfont FS scalefont setfont } def
/placetext { moveto show } def
/tl { placetext } def                            % (text) x y tl
/rectpath { newpath moveto
            dup 0 rlineto exch 0 exch rlineto neg 0 rlineto
            closepath } def                      % w h x y rectpath
/box { rectpath fill } def                       % w h x y box
/rule { newpath moveto 0 rlineto stroke } def    % w x y rule
/vline { newpath moveto 0 exch rlineto stroke } def
/frame { gsave 0.5 setlinewidth rectpath stroke grestore } def
/swirl { newpath moveto curveto stroke } def
/pagenum { 3 string cvs 306 30 placetext } def
/heading { gsave 14 setsize placetext grestore 10 setsize } def
|ps}

(* A text line: words drawn from the corpus, placed with tl. *)
let text_line rng words buf ~y ~indent =
  let n = Prng.in_range rng 6 12 in
  let text =
    String.concat " " (List.init n (fun _ -> Prng.choose rng words))
  in
  Printf.bprintf buf "(%s) %d %d tl\n" text indent y

let manual_page rng words buf ~page =
  Printf.bprintf buf "%% page %d (manual style)\n" page;
  Printf.bprintf buf "%d setsize\n" (if page mod 7 = 0 then 9 else 10);
  (* heading *)
  Printf.bprintf buf "(%s %d) 72 740 heading\n" (Prng.choose rng words) page;
  Printf.bprintf buf "468 72 728 rule\n";
  (* two columns of short entries with rules and boxes *)
  let y = ref 700 in
  while !y > 90 do
    let col = if Prng.bool rng then 72 else 320 in
    text_line rng words buf ~y:!y ~indent:col;
    if Prng.float rng < 0.30 then Printf.bprintf buf "%d 4 %d %d box\n"
        (Prng.in_range rng 30 180) col (!y - 6);
    if Prng.float rng < 0.20 then Printf.bprintf buf "200 %d %d rule\n" col (!y - 8);
    if Prng.float rng < 0.08 then
      Printf.bprintf buf "gsave 0.8 setgray %d 24 %d %d box grestore\n"
        (Prng.in_range rng 60 200) col (!y - 30);
    y := !y - Prng.in_range rng 14 22
  done;
  (* table frame *)
  if page mod 3 = 0 then Printf.bprintf buf "400 120 100 420 frame\n";
  Printf.bprintf buf "%d pagenum\nshowpage\n" page

let thesis_page rng words buf ~page =
  Printf.bprintf buf "%% page %d (thesis style)\n" page;
  Printf.bprintf buf "%d setsize\n" (if page mod 9 = 0 then 12 else 11);
  if page mod 12 = 1 then
    Printf.bprintf buf "gsave 18 setsize (Chapter %d) 72 700 placetext grestore\n"
      ((page / 12) + 1);
  let y = ref 680 in
  while !y > 80 do
    (* paragraphs: several full-width lines then a gap *)
    let lines = Prng.in_range rng 3 7 in
    for i = 0 to lines - 1 do
      if !y > 80 then begin
        text_line rng words buf ~y:!y ~indent:(if i = 0 then 90 else 72);
        y := !y - 14
      end
    done;
    y := !y - 8;
    (* the occasional figure: a framed box with a curve inside *)
    if Prng.float rng < 0.12 && !y > 220 then begin
      Printf.bprintf buf "300 120 140 %d frame\n" (!y - 130);
      Printf.bprintf buf "%d %d %d %d %d %d %d %d swirl\n" (160 + Prng.int rng 60)
        (!y - 40) (240 + Prng.int rng 60) (!y - 120) (320 + Prng.int rng 60)
        (!y - 40) (150 + Prng.int rng 40) (!y - 110);
      y := !y - 140
    end
  done;
  Printf.bprintf buf "%d pagenum\nshowpage\n" page

let document ~style ~pages ~seed =
  let rng = Prng.of_string seed in
  let words = Corpus.dictionary (Prng.split rng) 600 in
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf "%!PS-MiniGhost-1.0\n";
  Buffer.add_string buf prolog;
  for page = 1 to pages do
    match style with
    | `Manual -> manual_page rng words buf ~page
    | `Thesis -> thesis_page rng words buf ~page
  done;
  Buffer.contents buf

let input_spec = function
  | "tiny" -> (`Thesis, 2, "ghost-tiny")
  | "train" -> (`Manual, 60, "ghost-refman")
  | "test" -> (`Thesis, 110, "ghost-thesis")
  | name -> invalid_arg ("Ghost.run: unknown input " ^ name)

let inputs = [ "tiny"; "train"; "test" ]

let run ?(scale = 1.0) ~input () =
  let style, pages, seed = input_spec input in
  let pages = max 1 (int_of_float (float_of_int pages *. scale)) in
  let source = document ~style ~pages ~seed in
  let rt = Rt.create ~ref_ratio:0.12 ~program:"ghost" ~input () in
  let (_ : summary) = interpret rt ~source in
  Rt.finish rt
