(** Generalised 2-D Winograd convolution for arbitrary odd kernels.

    Nests two 1-D Toom–Cook transforms from {!Generator} — the same
    construction behind the hardcoded F(m,3) variants, but for any
    [F(m×m, r×r)] with odd [r] (5×5 and 7×7 kernels, which the paper's
    im2col engine supports in hardware and which Winograd can also cover
    in software).  FP32 only: the bit-growth for r > 3 makes the integer
    path impractical, which is precisely why the paper restricts the
    accelerator to 3×3. *)

type t

val create : ?points:Twq_util.Rat.t list -> m:int -> r:int -> unit -> t
(** @raise Invalid_argument as {!Generator.make}. *)

val m : t -> int
val r : t -> int

val macs_reduction : t -> float
(** [(m·r / (m+r−1))²]. *)

val conv2d :
  t ->
  ?pad:int ->
  x:Twq_tensor.Tensor.t ->
  w:Twq_tensor.Tensor.t ->
  unit ->
  Twq_tensor.Tensor.t
(** Stride-1 convolution of NCHW [x] with [\[cout; cin; r; r\]] weights;
    numerically equal to [Ops.conv2d].  Runs the compiled tap-major
    {!Kernels} path.  Its oracle lives in the tests, not here: the
    tile-major float Winograd convolution of [test/oracle.ml], fed the
    same {!Generator} matrices, which {!conv2d} must equal under [=]. *)
