(** Quantized standard (spatial-domain) convolution — the int8 baseline
    operator.

    This is the non-Winograd datapath of the accelerator: int8 activations
    and weights, int32 accumulation, requantization on output.  It is the
    reference the paper's Table II "im2col int8" row corresponds to, and
    what the integer graph uses for every convolution Winograd cannot
    take (stride 2, 1×1).

    Two implementations with one meaning:
    - {!forward_int} is the direct loop over [(ci, ki, kj)] per output
      element — the oracle;
    - {!forward_int_into} on a {!pack}ed layer is the production path:
      im2col of fixed blocks of output pixels into MR-packed panels, one
      {!Twq_winograd.Microkernel.gemm_i32} per block against the
      NR-packed weights, then requant and the fused epilogue.  It is
      bit-identical to {!forward_int}. *)

type layer = {
  act_bits : int;
  s_x : float;
  s_w : float;                       (** layer-wise weight scale *)
  s_w_channel : float array option;  (** per-output-channel scales if enabled *)
  s_y : float;
  wq : Twq_tensor.Itensor.t;  (** [cout; cin; kh; kw] int weights *)
  bias : Twq_tensor.Tensor.t option;
  stride : int;
  pad : int;
}

val weight_scale : layer -> int -> float
(** Effective weight scale of output channel [co]. *)

val calibrate :
  ?act_bits:int ->
  ?pow2:bool ->
  ?per_channel:bool ->
  w:Twq_tensor.Tensor.t ->
  ?bias:Twq_tensor.Tensor.t ->
  ?input_scale:float ->
  sample_inputs:Twq_tensor.Tensor.t list ->
  stride:int ->
  pad:int ->
  unit ->
  layer
(** [input_scale] pins [s_x] so layers can chain (see
    {!Tapwise.calibrate}); [per_channel] enables output-channel-wise weight
    scales (the spatial-domain refinement of Sec. V-A4, ~1.7× lower weight
    quantization error). *)

val forward_int : layer -> Twq_tensor.Itensor.t -> Twq_tensor.Itensor.t
(** int8 in → int8 out; int32 accumulation internally.  The direct
    loop, kept as the oracle of {!forward_int_into}. *)

type packed
(** A layer staged for the GEMM path: the weights as an NR-packed
    [K × cout] panel with [K = cin·kh·kw], and the per-channel requant
    scales and bias as flat float arrays.  Built once when the graph
    node is built and shared by every compiled plan. *)

val pack : layer -> packed

val packed_layer : packed -> layer

val forward_int_into :
  ?epilogue:Twq_winograd.Kernels.epilogue ->
  packed ->
  Twq_tensor.Itensor.t ->
  out:Twq_tensor.Itensor.t ->
  unit
(** In-place forward: writes the requantized int8 activations into [out]
    (shape [\[n; cout; ho; wo\]], typically a planner arena buffer),
    applying [epilogue] in the output store — requant to [s_y], then
    optional saturating residual add and ReLU, in one pass.  Runs the
    im2col GEMM on per-domain scratch and allocates nothing in steady
    state; bit-identical to {!forward_int} followed by the epilogue. *)

val forward : layer -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Float wrapper (quantize → {!forward_int} → dequantize). *)
