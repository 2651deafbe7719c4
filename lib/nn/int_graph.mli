(** Post-training quantization of a {!Graph.t} into an integer-only graph.

    Generalises {!Deploy} to arbitrary graphs, including the residual
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
    contain batch-norm nodes. *)

type t

val quantize :
  Graph.t ->
  calibration:Twq_tensor.Tensor.t ->
  ?variant:Twq_winograd.Transform.variant ->
  ?wino_bits:int ->
  unit ->
  t
(** @raise Invalid_argument on BN nodes or unsupported pooling sizes. *)

val run : t -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Float in (quantized at the input scale), logits out.  Executes the
    compiled {!Plan} for the input's shape (compiled once per shape,
    cached): fused requant/ReLU/add epilogues, liveness-based arena
    reuse, near-zero steady-state allocation.  Bit-identical to
    {!run_ref}. *)

val run_ref : t -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Reference node-by-node interpreter — the oracle {!run} is tested
    against.  Drops intermediate activations after their last use. *)

val plans : t -> Plan.cache option
(** The graph's plan cache ([None] only for deserialized graphs whose
    output is not a GAP→Linear head). *)

val noise_vs_float : t -> Graph.t -> Twq_tensor.Tensor.t -> float
(** Relative RMS error of the integer graph's logits against the float
    graph's, on a given batch. *)

val winograd_layer_count : t -> int
val spatial_layer_count : t -> int

(** {2 Winograd-domain pruning} *)

val prune : t -> density:float -> t
(** Magnitude-prune every tap-wise layer's quantized Winograd weights
    to the given nonzero fraction ([Pruning.prune_quantized], per
    layer) and re-make the graph, so lowering re-packs the panels and
    re-takes the per-tap sparse/dense execution decision from the
    pruned zeros.  Spatial layers and the float head are untouched.
    @raise Invalid_argument if [density] is outside (0, 1]. *)

val winograd_density : t -> float
(** Aggregate nonzero fraction over all tap-wise layers' quantized
    Winograd weights (1.0 if there are none). *)

val wino_sparsity : t -> int * int
(** [Plan.wino_sparsity] of the graph's plan cache; [(0, 0)] for
    graphs without plans. *)

val wino_pairing : t -> int * int * int
(** [Plan.wino_pairing] of the graph's plan cache —
    [(paired, winograd_layers, max_acc_bits)]; [(0, 0, 0)] for graphs
    without plans. *)

(** {2 File I/O} *)

val to_string : t -> string
val of_string : string -> t
(** Exact round-trip (hex-float scales): a reloaded graph produces
    bit-identical integer activations. *)

val save : t -> string -> unit
val load : string -> t
