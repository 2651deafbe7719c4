(** Deployment: export a trained QAT model to an integer-only network.

    This is the end goal of the paper's flow — after Winograd-aware
    training, inference runs entirely on int8 tensors with Winograd-domain
    integers and shift-based rescaling:

    - batch-norm parameters are folded into the conv weights/biases using
      statistics gathered on a calibration batch;
    - each 3×3 convolution becomes a {!Twq_quant.Tapwise} layer; the
      inter-layer scales chain exactly ([s_x] of layer n+1 = [s_y] of
      layer n), so activations stay int8 end-to-end;
    - ReLU and 2×2 average pooling run directly on the int8 tensors
      (pooling divides by 4 with the hardware round-shift);
    - only the final global-average-pool + fully-connected head runs in
      float (its cost is negligible; the paper's accelerator handles it in
      the Vector Unit).

    The result is an ordinary {!Int_graph.t} ({!Int_graph.chain}): it
    runs, serializes, prunes and serves like any quantized graph.

    Only the [Vgg_mini] architecture is currently exportable (residual
    blocks would additionally need requantized int8 skip-adds). *)

val export :
  Qat_model.t ->
  calibration:Twq_tensor.Tensor.t ->
  ?variant:Twq_winograd.Transform.variant ->
  ?wino_bits:int ->
  unit ->
  Int_graph.t
(** Fold BN, calibrate and quantize every conv of the model into the
    chain input → (conv, relu)×2 → avg-pool per stage → head.
    [calibration] is an NCHW batch of representative inputs.
    @raise Invalid_argument for non-[Vgg_mini] architectures. *)

val of_string : string -> Int_graph.t
(** Read a network saved in the retired [twq-int8-net v1] format as the
    equivalent {!Int_graph.t}; it computes bit-identical logits.
    @raise Failure on malformed input. *)
