(* Generator of tile_engines.ml, the straight-line transformation
   engines of the tap-wise integer Winograd path.

   Usage: gen_engines.exe > tile_engines.ml

   The twq_quant library runs it on every build (a dune rule), so the
   engines always match [Transform]'s matrices and are never edited by
   hand.  It links only twq_winograd and twq_hw, neither of which
   depends on twq_quant.

   Per variant it emits two functions that keep a whole tile in locals:

   - [scatter_fN]: the integer input transform Bᵀ·x·B, emitted from the
     CSE'd shift-add graph ([Dfg.apply_cse]) of the variant's scaled
     integral Bᵀ ([Transform.bt_scaled_int]), the per-tap sign-mask
     round-shift, a branch-free clamp, and the t² panel stores.  Integer
     arithmetic is exact, so any evaluation order equals
     [Transform.input_tile_int].
   - [gather_fN]: the per-tap S_BG rescale and the float output
     transform Aᵀ·y·A.  Each sum follows [Ops.matmul]'s accumulation
     rule — ascending index, left-associated, zero coefficients skipped
     — so it equals [Transform.output_tile] up to the sign of a zero. *)

module T = Twq_winograd.Transform
module Rat = Twq_util.Rat
module Dfg = Twq_hw.Dfg

let pr = Printf.printf

let float_lit c =
  let s =
    if Float.is_integer c then Printf.sprintf "%.1f" c else Printf.sprintf "%.17g" c
  in
  assert (float_of_string s = c);
  s

(* Σ c_k·x_k as [Ops.matmul] folds it: ascending k, left-associated,
   zero coefficients skipped.  Multiplying by ±1 is exact, so those
   terms add or subtract the operand itself; the fold's initial 0.0 is
   dropped, which can only change the sign of a zero sum. *)
let float_sum terms =
  let terms = List.filter (fun (c, _) -> c <> 0.0) terms in
  match terms with
  | [] -> "0.0"
  | (c, x) :: rest ->
      let head =
        if c = 1.0 then x
        else if c = -1.0 then Printf.sprintf "(-. %s)" x
        else Printf.sprintf "(%s *. %s)" (float_lit c) x
      in
      List.fold_left
        (fun acc (c, x) ->
          if c = 1.0 then Printf.sprintf "%s +. %s" acc x
          else if c = -1.0 then Printf.sprintf "%s -. %s" acc x
          else Printf.sprintf "%s +. (%s *. %s)" acc (float_lit c) x)
        head rest

let tag v = String.lowercase_ascii (T.name v)

(* One 1-D pass y = Bᵀ·x as straight-line lets: the CSE'd shift-add
   graph ([Dfg.apply_cse]) of the integer Bᵀ, its shared nodes first,
   then one sum of shifted terms per output.  [input k] names input k,
   [node k] names shared node k and [out i] output i. *)
let dfg_sum dfg ~input ~node terms =
  let value (t : Dfg.term) =
    assert (t.Dfg.shift >= 0);
    let src =
      if t.Dfg.src < dfg.Dfg.n_inputs then input t.Dfg.src
      else node (t.Dfg.src - dfg.Dfg.n_inputs)
    in
    if t.Dfg.shift = 0 then src else Printf.sprintf "(%s lsl %d)" src t.Dfg.shift
  in
  let pos, neg = List.partition (fun (t : Dfg.term) -> not t.Dfg.negate) terms in
  match pos @ neg with
  | [] -> "0"
  | t :: rest ->
      let head = if t.Dfg.negate then Printf.sprintf "(-%s)" (value t) else value t in
      List.fold_left
        (fun acc (t : Dfg.term) ->
          Printf.sprintf "%s %s %s" acc (if t.Dfg.negate then "-" else "+") (value t))
        head rest

let emit_pass dfg ~input ~node ~out =
  Array.iteri
    (fun k (a, b) -> pr "  let %s = %s in\n" (node k) (dfg_sum dfg ~input ~node [ a; b ]))
    dfg.Dfg.cse_nodes;
  Array.iteri
    (fun i terms -> out i (dfg_sum dfg ~input ~node terms))
    dfg.Dfg.outputs

let emit_scatter v =
  let bt = T.bt_scaled_int v in
  let dfg = Dfg.apply_cse (Dfg.of_matrix (Twq_util.Rmat.of_ints bt)) in
  let t = T.t v in
  pr "\n(* %s: t = %d, Bᵀ scaled by %d. *)\n" (T.name v) t (T.bt_scale v);
  pr "let scatter_%s (src : int array) soff rs (v : int array) vbase stride\n" (tag v);
  pr "    (rq : int array) lo hi =\n";
  pr "  if\n";
  pr "    soff < 0 || rs < 0 || stride < 0 || vbase < 0\n";
  pr "    || soff + (%d * (rs + 1)) >= Array.length src\n" (t - 1);
  pr "    || vbase + (%d * stride) >= Array.length v\n" ((t * t) - 1);
  pr "    || Array.length rq < %d\n" (3 * t * t);
  pr "  then invalid_arg \"Tile_engines.scatter_%s: out of bounds\";\n" (tag v);
  pr "  let r0 = soff in\n";
  for dy = 1 to t - 1 do
    pr "  let r%d = r%d + rs in\n" dy (dy - 1)
  done;
  (* Stage 1, per column j of the window: c(i, j) = Σ_k Bᵀ(i, k)·x(k, j). *)
  for j = 0 to t - 1 do
    for k = 0 to t - 1 do
      if j = 0 then pr "  let x%d_0 = get src r%d in\n" k k
      else pr "  let x%d_%d = get src (r%d + %d) in\n" k j k j
    done;
    emit_pass dfg
      ~input:(fun k -> Printf.sprintf "x%d_%d" k j)
      ~node:(fun k -> Printf.sprintf "u%d_%d" k j)
      ~out:(fun i e -> pr "  let c%d_%d = %s in\n" i j e)
  done;
  (* Stage 2, per tap (i, j): Σ_l c(i, l)·Bᵀ(j, l), requantized and
     stored at panel i·t + j. *)
  pr "  let o = vbase in\n";
  for i = 0 to t - 1 do
    emit_pass dfg
      ~input:(fun l -> Printf.sprintf "c%d_%d" i l)
      ~node:(fun k -> Printf.sprintf "w%d_%d" k i)
      ~out:(fun j e ->
        let tap = (i * t) + j in
        pr "  set v o (requant (%s) (get rq %d) (get rq %d) (get rq %d) lo hi);\n" e
          (3 * tap) ((3 * tap) + 1) ((3 * tap) + 2);
        if tap < (t * t) - 1 then pr "  let o = o + stride in\n")
  done;
  pr "  ()\n"

let emit_gather v =
  let at = Array.map (Array.map Rat.to_float) (T.at_rat v) in
  let t = T.t v and m = T.m v in
  pr "\nlet gather_%s (mo : int array) moff stride (sbg : float array) soff\n" (tag v);
  pr "    (yo : float array) =\n";
  pr "  if\n";
  pr "    moff < 0 || stride < 0 || soff < 0\n";
  pr "    || moff + (%d * stride) >= Array.length mo\n" ((t * t) - 1);
  pr "    || soff + %d > Array.length sbg\n" (t * t);
  pr "    || Array.length yo < %d\n" (m * m);
  pr "  then invalid_arg \"Tile_engines.gather_%s: out of bounds\";\n" (tag v);
  (* Stage 1, per column k: p(i, k) = Σ_l Aᵀ(i, l)·y(l, k), with the
     rescaled tap y(l, k) = acc·S_BG loaded once. *)
  for k = 0 to t - 1 do
    for l = 0 to t - 1 do
      let tap = (l * t) + k in
      if tap = 0 then pr "  let y0_0 = float_of_int (get mo moff) *. getf sbg soff in\n"
      else
        pr
          "  let y%d_%d = float_of_int (get mo (moff + (%d * stride))) *. getf sbg (soff + %d) in\n"
          l k tap tap
    done;
    for i = 0 to m - 1 do
      pr "  let p%d_%d = %s in\n" i k
        (float_sum (List.init t (fun l -> (at.(i).(l), Printf.sprintf "y%d_%d" l k))))
    done
  done;
  (* Stage 2, per output (i, j): Σ_k p(i, k)·Aᵀ(j, k). *)
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      pr "  setf yo %d (%s);\n" ((i * m) + j)
        (float_sum (List.init t (fun k -> (at.(j).(k), Printf.sprintf "p%d_%d" i k))))
    done
  done;
  pr "  ()\n"

let () =
  pr "(* Generated at build time by gen/gen_engines.ml from Transform's\n";
  pr "   matrices. *)\n";
  pr "\n";
  pr "module Transform = Twq_winograd.Transform\n";
  pr "\n";
  pr "(* Per-tap requantization of one transformed tap [y]: the\n";
  pr "   round-half-away shift on |y| through the sign mask [s], the left\n";
  pr "   shift, then the clamp to [lo, hi] as sign masks of [z - hi] and\n";
  pr "   [z - lo], exact while neither difference overflows (Tapwise.pack\n";
  pr "   proves |z| < 2^61). *)\n";
  pr "let[@inline] requant y half rsh lsh lo hi =\n";
  pr "  let s = y asr 62 in\n";
  pr "  let z = (((((y lxor s) - s + half) asr rsh) lxor s) - s) lsl lsh in\n";
  pr "  let d = z - hi in\n";
  pr "  let z = hi + (d land (d asr 62)) in\n";
  pr "  let d = z - lo in\n";
  pr "  lo + (d land lnot (d asr 62))\n";
  pr "\n";
  pr "(* Every engine checks its whole index range once on entry, so the\n";
  pr "   accesses inside are in bounds and skip the per-element check. *)\n";
  pr "external get : int array -> int -> int = \"%%array_unsafe_get\"\n";
  pr "external set : int array -> int -> int -> unit = \"%%array_unsafe_set\"\n";
  pr "external getf : float array -> int -> float = \"%%array_unsafe_get\"\n";
  pr "external setf : float array -> int -> float -> unit = \"%%array_unsafe_set\"\n";
  List.iter
    (fun v ->
      emit_scatter v;
      emit_gather v)
    T.all_variants;
  pr "\nlet scatter = function\n";
  List.iter (fun v -> pr "  | Transform.%s -> scatter_%s\n" (T.name v) (tag v)) T.all_variants;
  pr "\nlet gather = function\n";
  List.iter (fun v -> pr "  | Transform.%s -> gather_%s\n" (T.name v) (tag v)) T.all_variants
