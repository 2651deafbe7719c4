(** Allocation-free specialized Winograd transform kernels and tap-major
    convolution drivers.

    This is the software analogue of the paper's transformation engines:
    the constant matrices [Bᵀ], [G], [Aᵀ] are specialized into straight-line
    code (shift-and-add for the integer path, constant-folded multiplies for
    the float path), generated at build time from {!Transform}'s matrices
    ({!Kernel_steps}), that writes into caller-provided scratch, and the tile
    loop is reformulated tap-major — input tiles are scattered into [t·t]
    per-tap [tiles × cin] panels, each tap runs one flat GEMM against the
    [cin × cout] transformed weights, and results are gathered back through
    the inverse transform.  One loop, {!tap_major}, does this for every
    Winograd convolution in the library; the quantized tap-wise layer
    plugs the generated whole-tile engines of [Twq_quant.Tile_engines]
    into it instead of these records.  It performs zero per-tile allocation;
    workers stage everything in per-domain {!Twq_util.Parallel.Scratch}
    arenas, one set per element type.

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
  window : 'a array -> int -> int -> 'a array -> 'a array -> unit;
      (** [window src soff rs dst tmp] — {!input} over a [t×t] window
          whose rows are [rs] apart ([src.(soff + dy·rs + dx)]); writes
          the [t×t] taps at [dst.(0)].  [input src soff dst 0 tmp] is
          [window src soff t dst tmp]. *)
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
    [add] (round-shift both operands, sum, saturate), then [relu].
    Neither step branches on the sign of a value: the round-shifts and
    the ReLU use sign masks, since the operands are sign-random. *)

val f32_specialized : Transform.variant -> float kernel
(** The float kernel of a variant, around the straight-line steps
    {!Kernel_steps.float_steps} generated at build time from
    {!Transform}'s matrices; identical (up to zero sign) to the
    {!Transform.input_tile}/[weight_tile]/[output_tile] sandwiches.  One
    record per variant, built once. *)

val i32_specialized : Transform.variant -> int kernel
(** The integer kernel of a variant, around the shift-add steps
    {!Kernel_steps.int_steps} over the minimally scaled integral
    matrices; bit-identical to {!Transform.input_tile_int},
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

(** {1 The tap-major loop}

    One loop runs every tap-major Winograd convolution in the library —
    {!conv2d_f32}, {!conv2d_i32_exact}, [Rns.conv2d] and
    [Tapwise.forward_int_into].  It owns the tile grid, the tile blocks
    and their partition over the domain pool, the interior/border
    decision per tile, the zero-padded staging of border windows, the
    MR-packed input panels (pad rows zeroed), the GEMM slab, one GEMM
    per panel and the NR weight packing; the caller supplies three typed
    hooks — scatter, GEMM, gather — so no float ever passes through the
    generic code. *)

type 'a lane
(** The element type of the packed panels: its zero, a typed
    zero-padding tile loader and dense GEMM, and one per-domain scratch
    arena per staging buffer. *)

val f32_lane : float lane
val i32_lane : int lane

type 'a put = 'a array -> 'a array -> int -> int -> unit
(** [put src dst base stride] spreads one transformed tile.  [src]
    holds one transformed [t×t] tile (row-major taps); the hook writes
    panel [p]'s value at [dst.(base + p·stride)] for each of its panels
    (one per tap, or one per (modulus, tap)).  With {!Filters} the loop
    calls it per (cout, cin) for the weights and, after
    {!field-window}, per (tile, cin) for the inputs. *)

type 'a scatter = 'a array -> int -> int -> 'a array -> int -> int -> unit
(** [scatter src soff rs v vbase stride] — a fused scatter engine,
    called once per (tile, cin).  The tile's [t×t] input window is
    [src.(soff + dy·rs + dx)]: the input itself (rows [w] apart) when
    the window lies inside it, else the lane's tile buffer, where the
    loop staged it zero-padded (rows [t] apart).  The engine transforms
    it and writes panel [p]'s value at [v.(vbase + p·stride)]. *)

type ('a, 'g) gather =
  'a array -> int -> int -> 'g array -> 'g array -> 'g array -> int -> int ->
  int -> unit
(** [gather mo off stride yw yo tmp obase rh rw] — called once per
    output tile; the hook loops over [co].  Panel [p] of output channel
    [co] sits at [mo.(off + p·stride + co)].  [yw], [yo], [tmp] are the
    gather lane's per-domain scratch: [yw] and [tmp] hold at least
    [panels] elements, [yo] at least [panels/t² · m²].  The tile's crop
    is [rh × rw] and its top-left output of channel 0 is at flat offset
    [obase] of the NCHW [\[n; cout; ho; wo\]] output, so pixel
    [(co, dy, dx)] is at [obase + (co·ho + dy)·wo + dx]. *)

type 'a weights =
  | Filters of 'a array * 'a put
      (** [\[cout; cin; r; r\]] spatial filters, transformed by the
          kernel's [weight] and spread by the [put] on every call, into a
          per-domain arena; the per-panel GEMMs are [lane]'s dense GEMM
          against that panel *)
  | Packed of {
      gemm : int -> int -> 'a array -> int -> 'a array -> int -> unit;
      scatter : 'a scatter;
    }
      (** the caller's own per-panel GEMM over weights it packed itself,
          and its own fused {!scatter} engine for the input windows:
          [gemm p rows_p v vo mo co] runs panel [p] (A panel at
          [v.(vo)], C at [mo.(co)], row stride
          [cout_p = round_up cout nr]) and must write every element of
          its [rows_p × cout_p] block: the slab is not zeroed *)

val tap_major :
  'a lane ->
  'g lane ->
  'a kernel ->
  panels:int ->
  pad:int ->
  x:'a array ->
  n:int ->
  cin:int ->
  h:int ->
  w:int ->
  cout:int ->
  weights:'a weights ->
  gather:('a, 'g) gather ->
  unit ->
  unit
(** [tap_major lane glane k ~panels ~pad ~x ~n ~cin ~h ~w ~cout ~weights
    ~gather ()] runs a stride-1 convolution of the NCHW input data [x]
    ([\[n; cin; h; w\]]) tap-major: per block of output tiles, each
    (tile, cin) window — read in place for an interior tile, staged
    zero-padded for a border tile — is transformed into [panels]
    MR-packed panels of [lane] ({!Filters}' [put] after
    {!field-window}, or the {!Packed} scatter engine); one GEMM per
    panel writes a [tiles × cout_p] slab (C := A·B); and [gather] turns
    each tile's slab rows into outputs, using [glane]'s scratch.
    [weights] supplies the scatter and the per-panel GEMMs (see
    {!weights}).  Only [k.tile] and
    [k.mout] shape the loop, plus [k.weight] for {!Filters}.  Results do
    not depend on the block size or the domain count. *)

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
