(** The integer-only inference network: post-training quantization of a
    {!Graph.t}, the export target of {!Deploy}, the serving payload and
    its text format.

    {!quantize} handles arbitrary graphs, including the residual
    connections of ResNet-style models:

    - 3×3 stride-1 convolutions become tap-wise Winograd layers
      ({!Twq_quant.Tapwise});
    - all other convolutions become int8 spatial layers
      ({!Twq_quant.Qconv});
    - ReLU / max-pool / 2×2 avg-pool / upsample run directly on int8;
    - residual [Add] aligns its two operands' power-of-two scales with
      hardware round-shifts, adds, and saturates back to int8;
    - the global-average-pool + linear head runs in float.

    Every inter-node tensor carries a power-of-two scale, so all the
    rescaling in the integer graph is shift-based — the same property the
    paper's FixPipe exploits.

    Run {!Passes.fold_bn} first: [quantize] rejects graphs that still
    contain batch-norm nodes.

    Every node holds a {!Plan.prim}, its layer packed when the node is
    built or loaded, and every graph ends in its float head, so each
    graph runs a compiled {!Plan}: {!run} always executes that plan,
    and {!run_ref} is the oracle it is tested against. *)

type t

val quantize :
  Graph.t ->
  calibration:Twq_tensor.Tensor.t ->
  ?variant:Twq_winograd.Transform.variant ->
  ?wino_bits:int ->
  unit ->
  t
(** @raise Invalid_argument on BN nodes or unsupported pooling sizes. *)

type link = Wino of Twq_quant.Tapwise.layer | Relu | Avg_pool2

val chain :
  input_scale:float ->
  link list ->
  w:Twq_tensor.Tensor.t ->
  bias:Twq_tensor.Tensor.t option ->
  t
(** A linear network: quantize at [input_scale], apply the links in
    order, then the float head (global-average-pool, linear [w]/[bias])
    dequantizing at the [s_y] of the last Winograd layer.  This is the
    shape {!Deploy.export} produces.
    @raise Invalid_argument when a Winograd layer's [act_bits] is
    narrower than its input (8 bits after the input quantizer, a
    layer's [act_bits] after it): {!Twq_quant.Tapwise}'s input contract,
    which {!quantize} and {!of_string} enforce too. *)

val run : t -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Float in (quantized at the input scale), logits out.  Executes the
    compiled {!Plan} for the input's shape (compiled once per shape,
    cached): fused requant/ReLU/add epilogues, liveness-based arena
    reuse, near-zero steady-state allocation.  Bit-identical to
    {!run_ref}. *)

val run_ref : t -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Reference node-by-node interpreter — the oracle {!run} is tested
    against.  Its convolutions share no kernel code with the plan's:
    Winograd layers run the tile-major [Tapwise.forward_int_ref] and
    spatial layers the direct loop [Qconv.forward_int].  Drops
    intermediate activations after their last use. *)

val plans : t -> Plan.cache option
(** The graph's plan cache.  Always [Some]: the option survives only
    because the serving benchmark still matches on it. *)

val plan : t -> input_shape:int array -> Plan.t
(** The compiled plan for one input shape ({!Plan.plan} on the graph's
    cache). *)

val accuracy : t -> Twq_dataset.Synth_images.sample array -> float
(** Top-1 accuracy of {!run} on a dataset split. *)

val noise_vs_float : t -> Graph.t -> Twq_tensor.Tensor.t -> float
(** Relative RMS error of the integer graph's logits against the float
    graph's, on a given batch. *)

val wino_layers : t -> Twq_quant.Tapwise.layer list
(** The tap-wise Winograd layers, in node order. *)

val winograd_layer_count : t -> int
val spatial_layer_count : t -> int

(** {2 Winograd-domain pruning} *)

val prune : t -> density:float -> t
(** Magnitude-prune every tap-wise layer's quantized Winograd weights
    to the given nonzero fraction ([Pruning.prune_quantized], per
    layer) and re-pack them, which re-takes the per-tap sparse/dense
    execution decision from the pruned zeros.  Spatial layers and the
    float head are untouched.
    @raise Invalid_argument if [density] is outside (0, 1]. *)

val winograd_density : t -> float
(** Aggregate nonzero fraction over all tap-wise layers' quantized
    Winograd weights (1.0 if there are none). *)

val wino_sparsity : t -> int * int
(** [Plan.wino_sparsity] of the graph's plan cache. *)

val wino_pairing : t -> int * int * int
(** [Plan.wino_pairing] of the graph's plan cache —
    [(paired, winograd_layers, max_acc_bits)]. *)

(** {2 File I/O} *)

val to_string : t -> string
val of_string : string -> t
(** Exact round-trip (hex-float scales): a reloaded graph produces
    bit-identical integer activations.  Besides each layer's own checks
    ({!Twq_quant.Serialize}), the structure is validated: the output
    node is the only head, every input names an earlier node other than
    the head, each op has its arity (input 0, add/concat 2, the rest 1),
    pool sizes, strides and upsample factors are at least 1, shifts
    lie in 0..62, an add's stored output scale equals its node's scale,
    every layer packs, and no Winograd layer's [act_bits] is narrower
    than its input (8 bits after the input quantizer or an add, a conv's
    [act_bits] after it, unchanged through the other ops).
    @raise Failure naming the offending node (and byte offset). *)

val save : t -> string -> unit
val load : string -> t
