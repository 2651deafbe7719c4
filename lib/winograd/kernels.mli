(** Allocation-free specialized Winograd transform kernels and tap-major
    convolution drivers.

    This is the software analogue of the paper's transformation engines:
    the constant matrices [Bᵀ], [G], [Aᵀ] are specialized into straight-line
    code (shift-and-add for the integer path, constant-folded multiplies for
    the float path) that writes into caller-provided scratch, and the tile
    loop is reformulated tap-major — input tiles are scattered into [t·t]
    per-tap [tiles × cin] panels, each tap runs one flat GEMM against the
    [cin × cout] transformed weights, and results are gathered back through
    the inverse transform.  The hot loop performs zero per-tile allocation;
    workers stage everything in per-domain {!Twq_util.Parallel.Scratch}
    arenas.

    Numerical contract: the float kernels reproduce the generic
    [Ops.matmul] sandwich ({!Transform.input_tile} and friends) operation
    for operation — same accumulation order, same term skipping — so
    outputs are identical to the reference path ([=] on every element; the
    only tolerated deviation is the sign of a zero).  The integer kernels
    are exact and bit-identical to the integer sandwiches
    ({!Transform.input_tile_int} and friends).

    The module ships no oracle of its own.  The tests check the drivers
    against the two references in [test/oracle.ml]: {!conv2d_f32} against
    the tile-major float Winograd convolution over the same matrices
    (under [=]), {!conv2d_i32_exact} against the direct integer
    convolution. *)

type 'a kernel = {
  tile : int;  (** transform size [t = m + r - 1] *)
  mout : int;  (** output tile size [m] *)
  input : 'a array -> int -> 'a array -> int -> 'a array -> unit;
      (** [input src soff dst doff tmp] — Bᵀ·x·B.  Reads a row-major [t×t]
          tile at [soff], writes [t×t] taps at [doff].  [tmp] is caller
          scratch of at least [t·t]; [dst]/[tmp]/[src] must not alias. *)
  weight : 'a array -> int -> 'a array -> int -> 'a array -> unit;
      (** [weight src soff dst doff tmp] — G·f·Gᵀ.  Reads [r×r], writes
          [t×t]; [tmp] at least [t·r]. *)
  output : 'a array -> int -> 'a array -> int -> 'a array -> unit;
      (** [output src soff dst doff tmp] — Aᵀ·y·A.  Reads [t×t], writes
          [m×m]; [tmp] at least [m·t]. *)
}

(** Fused elementwise epilogue applied in the producing conv driver's
    output write loop — the software analogue of the accelerator's FixPipe
    post-processing stage.  The optional saturating residual add aligns
    both operands onto the common power-of-two output grid with hardware
    round-shifts before saturating to [bits]; ReLU clamps negatives last.
    [other] must share the destination's row-major layout (same shape),
    because the fused store indexes it with the destination's flat
    offset. *)
type epilogue = { relu : bool; add : add_spec option }

and add_spec = {
  other : int array;  (** residual operand, same layout as the output *)
  shift_self : int;   (** right shift aligning the producer's output *)
  shift_other : int;  (** right shift aligning [other] *)
  bits : int;         (** saturation width of the sum (8 for int8) *)
}

val no_epilogue : epilogue
(** Identity epilogue: plain store. *)

val epilogue_store : epilogue -> int array -> int -> int -> unit
(** [epilogue_store e dst off v] — apply [e] to the requantized value [v]
    and store the result at [dst.(off)]:
    [add] (round-shift both operands, sum, saturate), then [relu]. *)

val f32_specialized : Transform.variant -> float kernel
(** Fully unrolled float transforms for F2/F4/F6 with shared
    sign-symmetric products; identical (up to zero sign) to the
    {!Transform.input_tile}/[weight_tile]/[output_tile] sandwiches. *)

val i32_specialized : Transform.variant -> int kernel
(** Fully unrolled shift-add integer transforms over the minimally scaled
    integral matrices; bit-identical to {!Transform.input_tile_int},
    {!Transform.weight_tile_int_scaled}, {!Transform.output_tile_int}. *)

val f32_of_mats :
  bt:float array array ->
  g:float array array ->
  at:float array array ->
  float kernel
(** Compile arbitrary transform matrices ([bt : t×t], [g : t×r],
    [at : m×t]) into sparse straight-line plans.  Bit-identical (including
    zero signs) to the [Ops.matmul] sandwich with the same matrices — used
    by {!Gconv} for generated [F(m,r)] instances. *)

val i32_of_mats :
  bt:int array array ->
  g:int array array ->
  at:int array array ->
  int kernel
(** Integer analogue of {!f32_of_mats}: compile arbitrary *integer*
    transform matrices into sparse straight-line plans.  Exact arithmetic
    — used by {!Rns} both for the common-denominator-lifted matrices and
    for their per-modulus residue reductions. *)

val load_tile_f :
  float array ->
  h:int ->
  w:int ->
  base:int ->
  pad:int ->
  h0:int ->
  w0:int ->
  t:int ->
  float array ->
  unit
(** [load_tile_f xd ~h ~w ~base ~pad ~h0 ~w0 ~t dst] copies the [t×t]
    window whose top-left corner is at [(h0, w0)] of the padded [h×w]
    plane starting at [xd.(base)] into [dst] (row-major), zero-filling
    out-of-range reads. *)

val load_tile_i :
  int array ->
  h:int ->
  w:int ->
  base:int ->
  pad:int ->
  h0:int ->
  w0:int ->
  t:int ->
  int array ->
  unit

val block_of : total:int -> int
(** Tiles per scheduling block used by the packed drivers: big enough
    that each per-tap GEMM runs over a panel, small enough to keep all
    domains busy.  Exposed for drivers built outside this module
    ({!Rns}); per-tile results never depend on the grouping. *)

val conv2d_f32 :
  float kernel ->
  pad:int ->
  x:Twq_tensor.Tensor.t ->
  w:Twq_tensor.Tensor.t ->
  Twq_tensor.Tensor.t
(** Tap-major Winograd convolution (stride 1, no bias): NCHW [x] against
    [\[cout; cin; r; r\]] weights.  The per-tap GEMMs run through
    {!Microkernel} over register-block-packed panels; per
    (tile, tap, co) the accumulation is ascending [ci], left-associated,
    so outputs equal the tile-major float oracle of [test/oracle.ml]
    (per-tile [Ops.matmul] sandwiches with the same matrices) element for
    element under [=]; zero signs may differ. *)

val conv2d_i32_exact :
  int kernel ->
  scale2:int ->
  pad:int ->
  x:Twq_tensor.Itensor.t ->
  w:Twq_tensor.Itensor.t ->
  Twq_tensor.Itensor.t
(** Bit-true integer tap-major convolution; every output of the scaled
    integral sandwich is asserted divisible by [scale2 =
    (bt_scale·g_scale·at_scale)²] and divided back down.  The per-tap
    GEMMs run through {!Microkernel}.  Every step is exact integer
    arithmetic, so the result equals the direct integer convolution —
    the oracle the tests hold it to, in [test/oracle.ml]. *)
