(* Generator of every specialized Winograd transform in the library,
   all emitted from [Transform]'s exact matrices, so no transform is
   written out by hand twice.

   Usage: gen_transforms.exe steps   > kernel_steps.ml  (twq_winograd)
          gen_transforms.exe engines > tile_engines.ml  (twq_quant)

   Both libraries run it on every build (a dune rule).  It links only
   twq_util and twq_tensor and compiles its own copies of transform.ml
   and ../hw/dfg.ml, so it depends on neither library it generates for.

   [steps]: per variant, the 1-D steps [bt], [g], [at] of
   [Kernels.f32_specialized] and [Kernels.i32_specialized], which apply
   one matrix to a strided vector; the kernels run each twice as a
   sandwich.

   - The float steps follow [Ops.matmul]'s accumulation rule over
     [Rat.to_float] of the matrix, and compute each |c|·x_k product
     once for every row that uses it.  (−c)·x = −(c·x) and
     a + (−b) = a − b in IEEE arithmetic, so they equal the matmul
     sandwich up to the sign of a zero.
   - The integer steps evaluate the CSE'd shift-add graph
     ([Dfg.apply_cse]) of the minimally scaled integral matrix
     ([Transform.bt_scale]·Bᵀ, [g_scale]·G, [at_scale]·Aᵀ).  Integer
     arithmetic is exact, so they equal the integer sandwiches of
     [Transform] in any evaluation order.

   [engines]: per variant, two functions of the tap-wise integer path
   that keep a whole tile in locals:

   - [scatter_fN]: the integer input transform Bᵀ·x·B, emitted from the
     CSE'd shift-add graph of the variant's scaled integral Bᵀ
     ([Transform.bt_scaled_int]), the per-tap sign-mask round-shift, a
     branch-free clamp, and the t² panel stores.  It equals
     [Transform.input_tile_int] followed by the requantization.
   - [gather_fN]: the per-tap S_BG rescale and the float output
     transform Aᵀ·y·A.  Each sum follows [Ops.matmul]'s accumulation
     rule, so it equals [Transform.output_tile] up to the sign of a
     zero. *)

module T = Transform
module Rat = Twq_util.Rat

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

(* One 1-D pass y = M·x of an integer matrix M as straight-line lets:
   the CSE'd shift-add graph ([Dfg.apply_cse]) of M, its shared nodes
   first, then one sum of shifted terms per output.  [input k] names
   input k, [node k] names shared node k and [out i] output i. *)
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

(* [base + k·stride] as an index expression. *)
let at base stride k =
  if k = 0 then base
  else if k = 1 then Printf.sprintf "%s + %s" base stride
  else Printf.sprintf "%s + (%d * %s)" base k stride

(* One step of Kernels: y = M·x over [x_k = s.(o + k·st)], writing
   [y_i] to [d.(q + i·dt)].  [mat] is the exact M; [scale] makes it
   integral for the integer step. *)
let emit_step ~float name (mat : Rat.t array array) scale =
  let ty = if float then "float" else "int" in
  pr "\nlet %s (s : %s array) o st (d : %s array) q dt =\n" name ty ty;
  Array.iteri
    (fun k _ ->
      if Array.exists (fun row -> not (Rat.is_zero row.(k))) mat then
        pr "  let x%d = s.(%s) in\n" k (at "o" "st" k))
    mat.(0);
  let out i e = pr "  d.(%s) <- %s;\n" (at "q" "dt" i) e in
  (if float then begin
     (* Each |c|·x_k with |c| ≠ 1 is bound once, just before the first
        row that uses it (short live ranges), and every row sums ±x_k
        or ±product as [float_sum] folds it. *)
     let prods = Hashtbl.create 16 in
     let operand k c =
       let a = Float.abs c in
       if a = 1.0 then Printf.sprintf "x%d" k
       else
         match Hashtbl.find_opt prods (k, a) with
         | Some p -> p
         | None ->
             let p = Printf.sprintf "p%d" (Hashtbl.length prods) in
             pr "  let %s = %s *. x%d in\n" p (float_lit a) k;
             Hashtbl.add prods (k, a) p;
             p
     in
     Array.iteri
       (fun i row ->
         out i
           (float_sum
              (List.init (Array.length row) (fun k ->
                   let c = Rat.to_float row.(k) in
                   if c = 0.0 then (0.0, "") else (Float.copy_sign 1.0 c, operand k c)))))
       mat
   end
   else
     let ints =
       Array.map (Array.map (fun c -> Rat.to_int_exn (Rat.mul (Rat.of_int scale) c))) mat
     in
     emit_pass
       (Dfg.apply_cse (Dfg.of_matrix (Twq_util.Rmat.of_ints ints)))
       ~input:(Printf.sprintf "x%d") ~node:(Printf.sprintf "u%d") ~out);
  pr "  ()\n"

let emit_steps () =
  pr "(* Generated at build time by lib/winograd/gen/gen_transforms.ml from\n";
  pr "   Transform's matrices. *)\n";
  pr "\ntype 'a step = 'a array -> int -> int -> 'a array -> int -> int -> unit\n";
  List.iter
    (fun float ->
      let name v m = Printf.sprintf "%s_%s_%s" (if float then "float" else "int") m (tag v) in
      List.iter
        (fun v ->
          emit_step ~float (name v "bt") (T.bt_rat v) (T.bt_scale v);
          emit_step ~float (name v "g") (T.g_rat v) (T.g_scale v);
          emit_step ~float (name v "at") (T.at_rat v) (T.at_scale v))
        T.all_variants;
      pr "\nlet %s_steps = function\n" (if float then "float" else "int");
      List.iter
        (fun v ->
          pr "  | Transform.%s -> (%s, %s, %s)\n" (T.name v) (name v "bt") (name v "g")
            (name v "at"))
        T.all_variants)
    [ true; false ]

let emit_engines () =
  pr "(* Generated at build time by lib/winograd/gen/gen_transforms.ml from\n";
  pr "   Transform's matrices. *)\n";
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

let () =
  match Sys.argv with
  | [| _; "steps" |] -> emit_steps ()
  | [| _; "engines" |] -> emit_engines ()
  | _ ->
      prerr_endline "usage: gen_transforms.exe (steps | engines)";
      exit 2
