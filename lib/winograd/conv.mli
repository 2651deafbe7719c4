(** Winograd convolution over full NCHW tensors.

    Only unitary-stride 3×3 convolutions are supported — exactly the layers
    the paper maps to the Winograd operator.  Outputs are numerically equal
    (up to FP rounding) to {!Twq_tensor.Ops.conv2d}.

    This module ships no oracle.  The tests keep one per meaning in
    [test/oracle.ml]: a tile-major float Winograd convolution through the
    generic [Ops.matmul] sandwich (the ground truth for {!conv2d}, under
    [=]) and the direct integer convolution (the ground truth for
    {!conv2d_int_bit_true} and {!conv2d_int_rns}). *)

val conv2d : variant:Transform.variant -> ?pad:int -> x:Twq_tensor.Tensor.t -> w:Twq_tensor.Tensor.t -> ?b:Twq_tensor.Tensor.t -> unit -> Twq_tensor.Tensor.t
(** Winograd convolution, stride 1.  Spatial output dims need not be
    multiples of the tile size; edge tiles are computed on zero-padded
    extensions and cropped.  Runs the allocation-free tap-major
    {!Kernels} path; element-for-element equal to the tile-major float
    oracle of [test/oracle.ml] with {!Transform.bt}/[g]/[at]. *)

val conv2d_int_bit_true : variant:Transform.variant -> ?pad:int -> x:Twq_tensor.Itensor.t -> w:Twq_tensor.Itensor.t -> unit -> Twq_tensor.Itensor.t
(** Bit-true integer Winograd convolution: all transforms are carried out
    exactly in integers (each via its minimally-scaled integral matrix) and
    the final result is divided back by [(bt_scale·g_scale·at_scale)²],
    which is always exact.
    Equal to the direct integer convolution — the ground truth used by the
    tests (the direct-int oracle of [test/oracle.ml]) and by the paper's
    "bit-true" discussion.  Runs the tap-major shift-add {!Kernels}
    path. *)

val conv2d_int_rns :
  ?plan:Rns.plan ->
  m:int ->
  r:int ->
  ?basis:int list ->
  ?pad:int ->
  x:Twq_tensor.Itensor.t ->
  w:Twq_tensor.Itensor.t ->
  unit ->
  Twq_tensor.Itensor.t
(** Exact integer Winograd convolution through the {!Rns} backend for an
    arbitrary generated [F(m,r)] — including big tiles (F(6,3)) whose
    scaled dynamic range exceeds what the bit-true path above can carry.
    With no [plan], one is synthesized for the tensors' actual value
    ranges and channel count, using [basis] if given or
    {!Rns.suggest_basis} otherwise.  Bit-identical to the direct integer
    convolution.
    @raise Rns.Rns_error on basis/range rejection. *)

val tiles_along : variant:Transform.variant -> int -> int
(** Number of Winograd tiles covering a spatial extent. *)

val max_abs_error : variant:Transform.variant -> x:Twq_tensor.Tensor.t -> w:Twq_tensor.Tensor.t -> float
(** Max |winograd − direct| over the output — FP32 numerical-error probe. *)
