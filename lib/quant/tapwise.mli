(** Integer-only tap-wise quantized Winograd convolution — the paper's core
    contribution (Sec. III).

    The layer keeps int8 activations/weights in the spatial domain and
    [wino_bits]-bit integers inside the Winograd domain, with one scaling
    factor per tap ([S_B] for feature maps, [S_G] for weights,
    [S_BG = S_B ⊙ S_G] folded into the single rescale before the output
    back-transformation):

    {v
      y = Aᵀ ( S_BG ⊙ Σ_cin ⌊Bᵀ x̂ B ⊘ S_B⌉ ⊙ ⌊G f̂ Gᵀ ⊘ S_G⌉ ) A
    v}

    Every scale is a power of two, and every input tap scale an exact
    power-of-two multiple of [s_x], so each per-tap rescale in the integer
    datapath is an arithmetic shift (the hardware-friendly configuration
    of Sec. III-B).  Non-power-of-two scales exist only in QAT
    ([Twq_nn.Qat_model]'s [pow2] flag, the Table II ±pow2 rows). *)

type granularity =
  | Single_scale  (** one scale per transformation — the [F4]-breaks baseline *)
  | Tap_wise      (** one scale per tap — the paper's method *)
  | Channel_tap_wise
      (** per-output-channel × per-tap weight scales — the combined strategy
          of Sec. V-A4 ("might achieve better performance for networks with
          significantly different channel distributions") *)

type config = {
  variant : Twq_winograd.Transform.variant;
  act_bits : int;   (** spatial-domain bits (8 in the paper) *)
  wino_bits : int;  (** Winograd-domain bits (8, 9 or 10) *)
  granularity : granularity;
}

val default_config : Twq_winograd.Transform.variant -> config
(** int8/int8, tap-wise. *)

type layer = {
  config : config;
  pad : int;
  s_x : float;                 (** input activation scale *)
  s_w : float;                 (** spatial-domain weight scale *)
  s_y : float;                 (** output activation scale *)
  s_b : float array array;     (** t×t input tap scales *)
  s_g : float array array;     (** t×t weight tap scales *)
  s_g_channel : float array array array option;
      (** [cout][t][t] weight scales; present under [Channel_tap_wise] *)
  wq : Twq_tensor.Itensor.t;   (** [cout; cin; t; t] quantized Winograd weights *)
  bias : Twq_tensor.Tensor.t option;
}

val weight_scale : layer -> int -> int -> int -> float
(** [weight_scale l co i j] — the effective weight scale of tap (i,j) for
    output channel [co] (respects the granularity). *)

val calibrate :
  config:config ->
  w:Twq_tensor.Tensor.t ->
  ?bias:Twq_tensor.Tensor.t ->
  ?input_scale:float ->
  ?scale_grids:float array array * float array array ->
  sample_inputs:Twq_tensor.Tensor.t list ->
  pad:int ->
  unit ->
  layer
(** Builds a quantized layer from fp32 weights and representative input
    activations: calibrates [s_x], the per-tap maxima of [Bᵀ x̂ B] and
    [G f̂ Gᵀ], the output scale [s_y], and pre-quantizes the weights.
    [input_scale] pins [s_x] (instead of calibrating it) so that a chain of
    layers can agree on the inter-layer scales ([s_x = s_y] of the
    producer), which keeps the whole network integer-only.
    [scale_grids] = (S_B, S_G) injects externally learned tap scales (the
    log2-gradient training of Sec. III-B) instead of static calibration.
    [s_x], [s_w] and [s_y] are rounded up to powers of two (a pinned
    [input_scale] is kept as given), and every tap scale, calibrated or
    learned, is snapped up to a power-of-two multiple of [s_x] (for
    [S_B]) or [s_w] (for [S_G]). *)

val input_shift : layer -> int -> int -> int
(** [input_shift l i j] — the right-shift applied to tap (i,j) of the
    integer input transform ([log2 (s_b/s_x)]). Matches the paper's
    learned feature-map shifts (1–5 bits). *)

val weight_shift : layer -> int -> int -> int
(** Same for the weight taps (2–10 bits in the paper). *)

type packed
(** A layer plus everything shape-independent the tap-major forward
    needs, staged once: the dense taps' Winograd weight panels, the
    folded per-(channel, tap) gather scale [s_b·s_g] and the per-tap
    requant shifts with their rounding offsets.  Packing at plan time
    removes the per-forward weight-panel rebuild. *)

val pack : layer -> packed
(** Stages the layer for {!forward_int_into}, taking two per-layer
    execution decisions that are then frozen:

    - {e Sparse or dense, per tap.}  [pack] measures each tap's nonzero
      density; a tap strictly below [Microkernel.sparse_threshold ()]
      keeps only a compressed-column form of its panel and runs the
      sparse GEMM driver (bit-identical; it only skips exact zeros).
    - {e Two products per word or one, per layer.}  The scatter clamps
      every Winograd-domain activation to [|a| ≤ 2^(wino_bits−1)], so
      every per-tap accumulator is bounded by
      [2^(wino_bits−1) · max over (tap, co) of Σ_ci |wq(co, ci, tap)|];
      {!acc_bits} is the signed width of that bound.  When it is at
      most [Microkernel.pair_acc_bits] (31), the dense taps are packed
      as paired panels only and run [Microkernel.gemm_i32_pair],
      bit-identical to the wide [gemm_i32]; otherwise they keep the
      wide panel and [gemm_i32].  There is no knob: the proof decides.
      Past [Sys.int_size] (63) bits the int accumulators would wrap, so
      [pack] refuses such a layer ({!acc_range_error}).

    The panels are built one row of the tap grid at a time through a
    reused buffer of [t] wide tap panels, so a paired layer never holds
    the whole wide panel.

    Each tap's requant shift [k = log2 (s_b/s_from)] is capped at a
    right shift of 62 and a left shift of [wino_bits], which changes
    no result (the capped shifts already round to 0 and saturate) but
    keeps the shift inside the machine word.

    {e The scatter's pre-clamp range.}  A transformed input tap is at
    most [2^(act_bits−1) · G] in magnitude, where [G] is the square of
    the largest row L1 norm of the variant's integer Bᵀ
    ([Transform.bt_scaled_int]; 4, 100 and 3600 for F2, F4, F6), and the
    left shift multiplies it by [2^lshift].  [pack] proves
    [2^(act_bits−1) · G · 2^lshift < 2^61] for every tap.  Within that
    bound the shift cannot wrap the word, and the differences
    [z − hi] and [z − lo] of the generated scatter's branch-free clamp
    cannot overflow (the clamp bounds are below 2^61 for any
    [wino_bits ≤ 62]).  A layer that fails it raises [Invalid_argument]
    naming the tap and the widths ({!scatter_range_error});
    [Serialize] refuses such a layer at load.

    The gather rescales each accumulator once, by [s_b·s_g] folded
    here.  That equals the oracle's [(acc·s_b)·s_g] bit for bit only
    when [s_g] is a power of two, which {!calibrate} and
    {!Serialize} guarantee; [pack] checks every weight tap scale with
    [Float.frexp] anyway.
    @raise Invalid_argument naming the tap if a weight tap scale is not
    a power of two, naming the tap and both widths if the scatter's
    range proof fails, or naming the widths and [cin] if {!acc_bits}
    exceeds [Sys.int_size]. *)

val scatter_range_error : layer -> string option
(** [Some reason] when some tap breaks {!pack}'s scatter range proof
    [2^(act_bits−1) · G · 2^lshift < 2^61], naming the tap, the variant
    and the widths; [None] when every tap meets it. *)

val acc_range_error : layer -> string option
(** [Some reason] when {!pack}'s accumulator bound needs more than
    [Sys.int_size] signed bits, naming the bits, both widths and [cin];
    [None] otherwise.  [Serialize] refuses such a layer at load. *)

val packed_layer : packed -> layer
(** The underlying layer (scales, bias, config). *)

val paired : packed -> bool
(** Whether {!pack}'s range proof held, so the dense taps run two int
    products per machine word ([Microkernel.gemm_i32_pair]). *)

val acc_bits : packed -> int
(** Worst-case signed bits of any per-tap accumulator, from {!pack}'s
    range proof ([1] for all-zero weights). *)

val tap_densities : packed -> float array
(** Measured per-tap nonzero fraction of the packed weight panel
    ([t² ] entries, pad lanes excluded). *)

val sparse_tap_count : packed -> int
(** Number of taps that will execute through the compressed-panel
    driver. *)

val forward_int_into :
  ?epilogue:Twq_winograd.Kernels.epilogue ->
  packed ->
  Twq_tensor.Itensor.t ->
  out:Twq_tensor.Itensor.t ->
  unit
(** In-place tap-major integer forward: writes the requantized int8
    activations into [out] (shape [\[n; cout; ho; wo\]], typically a
    planner arena buffer) and applies [epilogue] inside the gather store
    — requant to [s_y], then optional saturating residual add and ReLU,
    all in one pass over the output.  Bit-identical to running
    {!forward_int} followed by the separate elementwise ops.

    The input transform, per-tap requant and clamp of each (tile, cin)
    window run in the generated {!Tile_engines.scatter},
    reading interior tiles in place; the S_BG rescale and output
    transform of each (tile, cout) in {!Tile_engines.gather}.  No
    per-element requantization (the per-tap input shift and clamp, the
    output rounding, the epilogue) branches on the value; only the
    output saturation does, to keep NaN → 0 and the ±inf rails.

    Input contract: every element of the input lies in
    [\[−2^(act_bits−1), 2^(act_bits−1)−1\]], as [Quantizer.quantize] at
    [act_bits] produces.  {!pack}'s range proof assumes it; outside it
    the result is unspecified. *)

val forward_int : layer -> Twq_tensor.Itensor.t -> Twq_tensor.Itensor.t
(** int8 NCHW in → int8 NCHW out (requantized with [s_y]).  Runs the
    allocation-free shared tap-major loop
    ({!Twq_winograd.Kernels.tap_major}: {!pack} + {!forward_int_into}
    with the identity epilogue); bit-identical to {!forward_int_ref}. *)

val forward_int_ref : layer -> Twq_tensor.Itensor.t -> Twq_tensor.Itensor.t
(** Tile-major reference implementation of the integer pipeline — the
    oracle {!forward_int} is tested against. *)

val forward : layer -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Float-in/float-out wrapper: quantize input with [s_x], run
    {!forward_int}, dequantize with [s_y]. *)

val forward_float_ref : layer -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Algebraic fake-quant reference implementation of the same pipeline
    (floats end-to-end, quantization simulated).  Agrees with {!forward} up
    to a few output LSBs (float-vs-integer rounding can differ on exact
    ties); the test-suite checks this bound. *)

val quantization_noise : layer -> Twq_tensor.Tensor.t -> w:Twq_tensor.Tensor.t -> float
(** RMS error of {!forward} against the fp32 direct convolution, normalised
    by the fp32 RMS — a fast proxy for end-to-end accuracy impact. *)
