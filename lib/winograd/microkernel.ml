(* Register-tiled, cache-blocked GEMM microkernels for the per-tap
   Winograd GEMMs.

   The shared tap-major loop ([Kernels.tap_major]) reduces every
   Winograd tap (or, under RNS, every (modulus, tap)) to one
   [tiles × Cin] · [Cin × Cout] product.  This module supplies the inner
   engine for those products: one fixed 4×4 accumulator-block kernel
   (float, int, and int with two products per word) over *packed*
   operand panels, plus a KC-blocked
   driver that keeps one [KC × NR] weight panel L1-resident while it
   sweeps the tile panels — the same work-group tiling shape as a GPU
   Winograd kernel's per-work-group [tiles × Cout] block.

   Packed layouts (both panels are padded to full register blocks; pad
   lanes must be zero so padded outputs stay finite and unread):

   - A (tiles) panels: [ceil(rows/MR)] consecutive panels of [K × MR] —
     element (k, lane) of panel ib at [ib·K·MR + k·MR + lane].  The
     microkernel's k-loop then reads one contiguous MR-vector per step.
   - B (weights) panels: [ceil(cols/NR)] consecutive panels of [K × NR] —
     element (k, lane) of panel jb at [jb·K·NR + k·NR + lane], so the
     co-loop streams contiguously instead of striding across a whole
     [Cout] row per k step.
   - Paired B panels: the B layout with each pair of adjacent lanes
     folded into one int, [lane 2p + (lane 2p+1) lsl 32] — element
     (k, p) of panel jb at [jb·K·NR/2 + k·NR/2 + p].  Only for operands
     whose sums are proven to fit 31 bits (see [gemm_i32_pair]).
   - C: row-major [rows_p × cstride] with [cstride ≥ cols_p]; every
     driver writes its [rows_p × cols_p] block, C := A·B, and never
     reads what the block held before.

   Numerical contract: every C element is a left fold over ascending k
   from zero — the first KC panel starts its accumulators at zero, adds
   products in ascending-k order and stores once; every later panel
   loads the stored partial and resumes.  Splitting K into KC panels
   therefore does not change the association.  This is exactly the accumulation
   order of the naive triple loop, so the integer kernels are
   bit-identical and the float kernels are IEEE-identical up to the sign
   of zeros (the tile-major float oracle's [Ops.matmul] skips products
   with a zero left operand; the kernels do not, which can only flip a
   zero's sign for finite inputs). *)

(* ------------------------------------------------------------- config *)

type cfg = { mr : int; nr : int; kc : int }

(* The one register block: a 4×4 accumulator block (16 refs that
   ocamlopt's [eliminate_ref] keeps unboxed) and a 256-deep k panel —
   one panel covers Cin for every ResNet-style layer, so the fold
   usually runs in a single pass. *)
let block = { mr = 4; nr = 4; kc = 256 }

let config () = block

(* Sparse/dense cutoff for the compressed-panel path: a tap whose weight
   panel density is strictly below the threshold is packed compressed
   and executed by [gemm_i32_sparse]; 0.0 disables the sparse path
   entirely, 1.0 compresses every tap with at least one zero.  The
   default 0.5 sits at the measured break-even of the compressed
   kernel (see DESIGN.md §14). *)
let sparse_threshold_v = ref 0.5

let sparse_threshold () = !sparse_threshold_v

let set_sparse_threshold t =
  if not (t >= 0.0 && t <= 1.0) then
    invalid_arg
      (Printf.sprintf
         "Microkernel.set_sparse_threshold: %g must be in [0, 1]" t);
  sparse_threshold_v := t

let round_up n b = (n + b - 1) / b * b

(* The drivers accept only the compiled block; any other shape is a
   caller bug, not a tuning request. *)
let check_block name field v expected =
  if v <> expected then
    invalid_arg
      (Printf.sprintf "Microkernel.%s: %s = %d, only %s = %d is supported"
         name field v field expected)

(* ------------------------------------------------------------- kernels *)

(* [kf_4x4 v vo u uo kn c o0 cs first] / [ki_4x4 ...]: 4×4 block
   update.  [vo]/[uo] point at the k=0 element of the A/B panel slice,
   [o0] at C's top-left element of the block, [cs] is C's row stride,
   [kn] the panel depth.  The first KC panel ([first]) starts its
   accumulators at zero, so C's previous contents are never read; later
   panels resume from the stored partial. *)

let[@inline] ldf first (c : float array) o =
  if first then 0.0 else Array.unsafe_get c o

let[@inline] ldi first (c : int array) o =
  if first then 0 else Array.unsafe_get c o

let kf_4x4 (v : float array) vo (u : float array) uo kn (c : float array) o0 cs
    first =
  let o1 = o0 + cs in
  let o2 = o1 + cs in
  let o3 = o2 + cs in
  let c00 = ref (ldf first c o0)
  and c01 = ref (ldf first c (o0 + 1))
  and c02 = ref (ldf first c (o0 + 2))
  and c03 = ref (ldf first c (o0 + 3))
  and c10 = ref (ldf first c o1)
  and c11 = ref (ldf first c (o1 + 1))
  and c12 = ref (ldf first c (o1 + 2))
  and c13 = ref (ldf first c (o1 + 3))
  and c20 = ref (ldf first c o2)
  and c21 = ref (ldf first c (o2 + 1))
  and c22 = ref (ldf first c (o2 + 2))
  and c23 = ref (ldf first c (o2 + 3))
  and c30 = ref (ldf first c o3)
  and c31 = ref (ldf first c (o3 + 1))
  and c32 = ref (ldf first c (o3 + 2))
  and c33 = ref (ldf first c (o3 + 3)) in
  for k = 0 to kn - 1 do
    let a = vo + (k * 4) and b = uo + (k * 4) in
    let a0 = Array.unsafe_get v a
    and a1 = Array.unsafe_get v (a + 1)
    and a2 = Array.unsafe_get v (a + 2)
    and a3 = Array.unsafe_get v (a + 3) in
    let b0 = Array.unsafe_get u b
    and b1 = Array.unsafe_get u (b + 1)
    and b2 = Array.unsafe_get u (b + 2)
    and b3 = Array.unsafe_get u (b + 3) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c02 := !c02 +. (a0 *. b2);
    c03 := !c03 +. (a0 *. b3);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c12 := !c12 +. (a1 *. b2);
    c13 := !c13 +. (a1 *. b3);
    c20 := !c20 +. (a2 *. b0);
    c21 := !c21 +. (a2 *. b1);
    c22 := !c22 +. (a2 *. b2);
    c23 := !c23 +. (a2 *. b3);
    c30 := !c30 +. (a3 *. b0);
    c31 := !c31 +. (a3 *. b1);
    c32 := !c32 +. (a3 *. b2);
    c33 := !c33 +. (a3 *. b3)
  done;
  Array.unsafe_set c o0 !c00;
  Array.unsafe_set c (o0 + 1) !c01;
  Array.unsafe_set c (o0 + 2) !c02;
  Array.unsafe_set c (o0 + 3) !c03;
  Array.unsafe_set c o1 !c10;
  Array.unsafe_set c (o1 + 1) !c11;
  Array.unsafe_set c (o1 + 2) !c12;
  Array.unsafe_set c (o1 + 3) !c13;
  Array.unsafe_set c o2 !c20;
  Array.unsafe_set c (o2 + 1) !c21;
  Array.unsafe_set c (o2 + 2) !c22;
  Array.unsafe_set c (o2 + 3) !c23;
  Array.unsafe_set c o3 !c30;
  Array.unsafe_set c (o3 + 1) !c31;
  Array.unsafe_set c (o3 + 2) !c32;
  Array.unsafe_set c (o3 + 3) !c33

let ki_4x4 (v : int array) vo (u : int array) uo kn (c : int array) o0 cs first =
  let o1 = o0 + cs in
  let o2 = o1 + cs in
  let o3 = o2 + cs in
  let c00 = ref (ldi first c o0)
  and c01 = ref (ldi first c (o0 + 1))
  and c02 = ref (ldi first c (o0 + 2))
  and c03 = ref (ldi first c (o0 + 3))
  and c10 = ref (ldi first c o1)
  and c11 = ref (ldi first c (o1 + 1))
  and c12 = ref (ldi first c (o1 + 2))
  and c13 = ref (ldi first c (o1 + 3))
  and c20 = ref (ldi first c o2)
  and c21 = ref (ldi first c (o2 + 1))
  and c22 = ref (ldi first c (o2 + 2))
  and c23 = ref (ldi first c (o2 + 3))
  and c30 = ref (ldi first c o3)
  and c31 = ref (ldi first c (o3 + 1))
  and c32 = ref (ldi first c (o3 + 2))
  and c33 = ref (ldi first c (o3 + 3)) in
  for k = 0 to kn - 1 do
    let a = vo + (k * 4) and b = uo + (k * 4) in
    let a0 = Array.unsafe_get v a
    and a1 = Array.unsafe_get v (a + 1)
    and a2 = Array.unsafe_get v (a + 2)
    and a3 = Array.unsafe_get v (a + 3) in
    let b0 = Array.unsafe_get u b
    and b1 = Array.unsafe_get u (b + 1)
    and b2 = Array.unsafe_get u (b + 2)
    and b3 = Array.unsafe_get u (b + 3) in
    c00 := !c00 + (a0 * b0);
    c01 := !c01 + (a0 * b1);
    c02 := !c02 + (a0 * b2);
    c03 := !c03 + (a0 * b3);
    c10 := !c10 + (a1 * b0);
    c11 := !c11 + (a1 * b1);
    c12 := !c12 + (a1 * b2);
    c13 := !c13 + (a1 * b3);
    c20 := !c20 + (a2 * b0);
    c21 := !c21 + (a2 * b1);
    c22 := !c22 + (a2 * b2);
    c23 := !c23 + (a2 * b3);
    c30 := !c30 + (a3 * b0);
    c31 := !c31 + (a3 * b1);
    c32 := !c32 + (a3 * b2);
    c33 := !c33 + (a3 * b3)
  done;
  Array.unsafe_set c o0 !c00;
  Array.unsafe_set c (o0 + 1) !c01;
  Array.unsafe_set c (o0 + 2) !c02;
  Array.unsafe_set c (o0 + 3) !c03;
  Array.unsafe_set c o1 !c10;
  Array.unsafe_set c (o1 + 1) !c11;
  Array.unsafe_set c (o1 + 2) !c12;
  Array.unsafe_set c (o1 + 3) !c13;
  Array.unsafe_set c o2 !c20;
  Array.unsafe_set c (o2 + 1) !c21;
  Array.unsafe_set c (o2 + 2) !c22;
  Array.unsafe_set c (o2 + 3) !c23;
  Array.unsafe_set c o3 !c30;
  Array.unsafe_set c (o3 + 1) !c31;
  Array.unsafe_set c (o3 + 2) !c32;
  Array.unsafe_set c (o3 + 3) !c33

(* Paired lanes: two int products per machine word.  Each B int holds
   the weights of two adjacent output columns, [lo + hi lsl 32] (see
   [pair_panel]), so one multiply [a · (lo + hi·2^32)] computes both
   products and one add accumulates both sums.  OCaml ints wrap mod
   2^63, so the packed accumulator always equals [lo_sum + hi_sum·2^32]
   mod 2^63; when [lo_sum] fits 32 signed bits and [hi_sum] 31, the
   split in [store_pair] recovers both exactly.  A partial is packed on
   load and split on store, so the KC-panel seam works like the wide
   kernel's as long as every stored partial is in range. *)

let[@inline] load_pair first (c : int array) o =
  if first then 0
  else Array.unsafe_get c o + (Array.unsafe_get c (o + 1) lsl 32)

(* [lo] is the low 32 bits sign-extended; [x − lo] is then exactly
   [hi·2^32]. *)
let store_pair (c : int array) o x =
  let lo = (x lsl 31) asr 31 in
  Array.unsafe_set c o lo;
  Array.unsafe_set c (o + 1) ((x - lo) asr 32)

(* [kp_4x4 v vo u uo kn c o0 cs first]: the 4×4 block update of
   [ki_4x4] with B paired — [uo] points at the k=0 pair of a
   [K × NR/2] panel, and each k step is 8 multiply-adds into 8 packed
   accumulators instead of 16 into 16. *)
let kp_4x4 (v : int array) vo (u : int array) uo kn (c : int array) o0 cs
    first =
  let o1 = o0 + cs in
  let o2 = o1 + cs in
  let o3 = o2 + cs in
  let c00 = ref (load_pair first c o0)
  and c01 = ref (load_pair first c (o0 + 2))
  and c10 = ref (load_pair first c o1)
  and c11 = ref (load_pair first c (o1 + 2))
  and c20 = ref (load_pair first c o2)
  and c21 = ref (load_pair first c (o2 + 2))
  and c30 = ref (load_pair first c o3)
  and c31 = ref (load_pair first c (o3 + 2)) in
  for k = 0 to kn - 1 do
    let a = vo + (k * 4) and b = uo + (k * 2) in
    let a0 = Array.unsafe_get v a
    and a1 = Array.unsafe_get v (a + 1)
    and a2 = Array.unsafe_get v (a + 2)
    and a3 = Array.unsafe_get v (a + 3) in
    let b0 = Array.unsafe_get u b and b1 = Array.unsafe_get u (b + 1) in
    c00 := !c00 + (a0 * b0);
    c01 := !c01 + (a0 * b1);
    c10 := !c10 + (a1 * b0);
    c11 := !c11 + (a1 * b1);
    c20 := !c20 + (a2 * b0);
    c21 := !c21 + (a2 * b1);
    c30 := !c30 + (a3 * b0);
    c31 := !c31 + (a3 * b1)
  done;
  store_pair c o0 !c00;
  store_pair c (o0 + 2) !c01;
  store_pair c o1 !c10;
  store_pair c (o1 + 2) !c11;
  store_pair c o2 !c20;
  store_pair c (o2 + 2) !c21;
  store_pair c o3 !c30;
  store_pair c (o3 + 2) !c31

(* ------------------------------------------------------ blocked driver *)

(* [gemm ~mr ~nr ~kc ~rows_p ~cols_p ~k ...] writes A·B over the packed
   panels to the [rows_p × cols_p] block of C (row stride [cstride]):
   C := A·B, whatever C held before.  The k dimension is processed in
   [kc]-deep cache panels: for each panel the [kc × NR] weight
   sub-panel is swept by every tile panel before the next NR block is
   touched, so it stays L1-resident across the ib loop.  The first
   panel stores, later panels resume from C's partial sums.  With
   [k = 0] the product is the zero block. *)

let zero_block (c : 'a array) ~co ~cstride ~rows_p ~cols_p (z : 'a) =
  for i = 0 to rows_p - 1 do
    Array.fill c (co + (i * cstride)) cols_p z
  done

let gemm_f32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~(vp : float array) ~vo
    ~(up : float array) ~uo ~(c : float array) ~co ~cstride =
  check_block "gemm_f32" "mr" mr block.mr;
  check_block "gemm_f32" "nr" nr block.nr;
  let nib = rows_p / 4 and njb = cols_p / 4 in
  if k = 0 then zero_block c ~co ~cstride ~rows_p ~cols_p 0.0;
  let k0 = ref 0 in
  while !k0 < k do
    let kn = min kc (k - !k0) in
    for jb = 0 to njb - 1 do
      let ub = uo + (jb * k * 4) + (!k0 * 4) in
      let cjb = co + (jb * 4) in
      for ib = 0 to nib - 1 do
        let vb = vo + (ib * k * 4) + (!k0 * 4) in
        kf_4x4 vp vb up ub kn c (cjb + (ib * 4 * cstride)) cstride
          (!k0 = 0)
      done
    done;
    k0 := !k0 + kn
  done

let gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~(vp : int array) ~vo
    ~(up : int array) ~uo ~(c : int array) ~co ~cstride =
  check_block "gemm_i32" "mr" mr block.mr;
  check_block "gemm_i32" "nr" nr block.nr;
  let nib = rows_p / 4 and njb = cols_p / 4 in
  if k = 0 then zero_block c ~co ~cstride ~rows_p ~cols_p 0;
  let k0 = ref 0 in
  while !k0 < k do
    let kn = min kc (k - !k0) in
    for jb = 0 to njb - 1 do
      let ub = uo + (jb * k * 4) + (!k0 * 4) in
      let cjb = co + (jb * 4) in
      for ib = 0 to nib - 1 do
        let vb = vo + (ib * k * 4) + (!k0 * 4) in
        ki_4x4 vp vb up ub kn c (cjb + (ib * 4 * cstride)) cstride
          (!k0 = 0)
      done
    done;
    k0 := !k0 + kn
  done

(* Every C value and every stored partial must fit this many signed
   bits: the [hi] lane is 31 bits (and the [lo] lane 32). *)
let pair_acc_bits = 31

let pair_panel (src : int array) ~so ~n (dst : int array) ~doff =
  for i = 0 to (n / 2) - 1 do
    dst.(doff + i) <- src.(so + (2 * i)) + (src.(so + (2 * i) + 1) lsl 32)
  done

(* [gemm_i32]'s driver over a paired B panel: panel jb is [K × NR/2]
   ints, so its k0 offset is [k0·2]. *)
let gemm_i32_pair ~mr ~nr ~kc ~rows_p ~cols_p ~k ~(vp : int array) ~vo
    ~(up : int array) ~uo ~(c : int array) ~co ~cstride =
  check_block "gemm_i32_pair" "mr" mr block.mr;
  check_block "gemm_i32_pair" "nr" nr block.nr;
  let nib = rows_p / 4 and njb = cols_p / 4 in
  if k = 0 then zero_block c ~co ~cstride ~rows_p ~cols_p 0;
  let k0 = ref 0 in
  while !k0 < k do
    let kn = min kc (k - !k0) in
    for jb = 0 to njb - 1 do
      let ub = uo + (jb * k * 2) + (!k0 * 2) in
      let cjb = co + (jb * 4) in
      for ib = 0 to nib - 1 do
        let vb = vo + (ib * k * 4) + (!k0 * 4) in
        kp_4x4 vp vb up ub kn c (cjb + (ib * 4 * cstride)) cstride
          (!k0 = 0)
      done
    done;
    k0 := !k0 + kn
  done

(* -------------------------------------------------- compressed panels *)

(* Block-compressed weight panels for pruned taps.  The natural block
   shape over the packed layout would be [KC × NR], but measured zero
   structure of magnitude-pruned tap panels kills that idea: pruning is
   unstructured, so the probability that a whole block is zero is
   (1-d)^(block size) — at density 0.3 a [KC × NR] block is never zero
   and even a single [1 × NR] row is zero only ~25% of the time (~1.3x
   ceiling).  A single *column* entry, by contrast, is zero with
   probability 1-d, so the degenerate 1×1 block — compressed sparse
   columns over the packed panel — is the only granularity that reaches
   the >= 1.5x regime at d = 0.3.  [sparse] therefore stores, per output
   column, the ascending list of nonzero k rows (indices and values
   compacted side by side); the 4-row kernel below keeps the A panel
   L1-resident across columns and streams the compacted pairs.

   Bit-identity: the products are integers, each skipped entry
   contributes an exact 0, and per C element the remaining products are
   added in ascending-k order — the same fold as the dense driver, so
   sparse and dense results are bit-identical on identical weights. *)

type sparse = {
  sp_k : int;  (* logical panel depth (Cin) *)
  sp_cols : int;  (* packed column count (Cout rounded up to NR) *)
  sp_off : int array;  (* [cols+1] CSC offsets into idx/val *)
  sp_idx : int array;  (* nonzero k rows, ascending per column *)
  sp_val : int array;  (* matching weight values *)
}

(* [compress_panel ~nr ~k ~cols up ~uo] reads one tap's NR-packed B
   panel (column j = jb·NR + jr at [uo + (jb·k + kk)·NR + jr]) and
   builds its compressed form.  Padded columns are all-zero by the
   packing contract and come out empty. *)
let compress_panel ~nr ~k ~cols (up : int array) ~uo =
  let off = Array.make (cols + 1) 0 in
  let nnz = ref 0 in
  for j = 0 to cols - 1 do
    let jb = j / nr and jr = j mod nr in
    let base = uo + (jb * k * nr) + jr in
    let cnt = ref 0 in
    for kk = 0 to k - 1 do
      if up.(base + (kk * nr)) <> 0 then incr cnt
    done;
    nnz := !nnz + !cnt;
    off.(j + 1) <- !nnz
  done;
  let idx = Array.make (max 1 !nnz) 0 and vals = Array.make (max 1 !nnz) 0 in
  let pos = ref 0 in
  for j = 0 to cols - 1 do
    let jb = j / nr and jr = j mod nr in
    let base = uo + (jb * k * nr) + jr in
    for kk = 0 to k - 1 do
      let w = up.(base + (kk * nr)) in
      if w <> 0 then begin
        idx.(!pos) <- kk;
        vals.(!pos) <- w;
        incr pos
      end
    done
  done;
  { sp_k = k; sp_cols = cols; sp_off = off; sp_idx = idx; sp_val = vals }

let sparse_nnz sp = sp.sp_off.(sp.sp_cols)

(* ------------------------------------------------------ sparse kernels *)

(* [ks_4 v vo idx vals i0 i1 c o0 cs]: 4×1 compressed-column store.
   Entries [i0, i1) of the compacted arrays belong to one output column;
   [vo] points at k = 0 of the A panel slice (stride 4 per k), [o0] at
   the column's top C element, [cs] is C's row stride.  An empty run
   stores zeros. *)

let ks_4 (v : int array) vo (idx : int array) (vals : int array) i0 i1
    (c : int array) o0 cs =
  let o1 = o0 + cs in
  let o2 = o1 + cs in
  let o3 = o2 + cs in
  let c0 = ref 0 and c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
  for i = i0 to i1 - 1 do
    let a = vo + (Array.unsafe_get idx i * 4) in
    let b = Array.unsafe_get vals i in
    c0 := !c0 + (Array.unsafe_get v a * b);
    c1 := !c1 + (Array.unsafe_get v (a + 1) * b);
    c2 := !c2 + (Array.unsafe_get v (a + 2) * b);
    c3 := !c3 + (Array.unsafe_get v (a + 3) * b)
  done;
  Array.unsafe_set c o0 !c0;
  Array.unsafe_set c o1 !c1;
  Array.unsafe_set c o2 !c2;
  Array.unsafe_set c o3 !c3

(* [gemm_i32_sparse] writes A·B over the packed A panels and the
   compressed B panel to the [rows_p × sp.sp_cols] block of C.  The A
   panel of each row block (k·MR ints) stays L1-resident while every
   column's compacted run streams past it; an empty column stores
   zeros, so no stale C value survives.  No KC blocking — the compacted
   pairs are visited once per row block in ascending-k order,
   preserving the dense fold. *)
let gemm_i32_sparse ~mr ~rows_p ~(sp : sparse) ~(vp : int array) ~vo
    ~(c : int array) ~co ~cstride =
  check_block "gemm_i32_sparse" "mr" mr block.mr;
  let nib = rows_p / 4 in
  let k = sp.sp_k in
  let off = sp.sp_off and idx = sp.sp_idx and vals = sp.sp_val in
  for ib = 0 to nib - 1 do
    let vb = vo + (ib * k * 4) in
    let crow = co + (ib * 4 * cstride) in
    for j = 0 to sp.sp_cols - 1 do
      let i0 = Array.unsafe_get off j and i1 = Array.unsafe_get off (j + 1) in
      ks_4 vp vb idx vals i0 i1 c (crow + j) cstride
    done
  done
