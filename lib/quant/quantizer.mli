(** Scalar uniform quantization primitives (Eq. 2 of the paper).

    A real value [x] is represented as an integer [x̂ = clamp(⌊x/s⌉)] with a
    shared scale [s = x_max / 2^(n-1)].  Scales may optionally be restricted
    to powers of two ([pow2_round_up]) so that hardware re-scaling becomes a
    plain arithmetic shift. *)

val qmax : bits:int -> int
(** Largest representable value, [2^(bits-1) - 1]. *)

val qmin : bits:int -> int
(** Smallest representable value, [-2^(bits-1)]. *)

val scale_for : bits:int -> max_abs:float -> float
(** [x_max / 2^(bits-1)]; returns a tiny positive scale when [max_abs = 0]
    so downstream divisions stay well-defined. *)

val pow2_round_up : float -> float
(** [2^⌈log2 s⌉] — the paper's straight-forward power-of-two rounding. *)

val pow2_exponent : float -> int
(** [⌈log2 s⌉] of a positive scale. *)

val quantize : bits:int -> scale:float -> float -> int
(** Round-to-nearest (ties away from zero) then clamp to the signed
    [bits]-bit range.  Saturation happens in float, so [+inf] and huge
    positives give [qmax], [-inf] and huge negatives give [qmin], and
    NaN gives 0. *)

val dequantize : scale:float -> int -> float

val fake_quant : bits:int -> scale:float -> float -> float
(** [dequantize (quantize x)] — the straight-through forward used in
    quantization-aware training. *)

val quantize_tensor : bits:int -> scale:float -> Twq_tensor.Tensor.t -> Twq_tensor.Itensor.t
val dequantize_tensor : scale:float -> Twq_tensor.Itensor.t -> Twq_tensor.Tensor.t
val fake_quant_tensor : bits:int -> scale:float -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t

(** {2 Affine (zero-point) quantization}

    [x ≈ s·(q − z)] — used where value distributions are one-sided (e.g.
    post-ReLU activations); the symmetric scheme above is what the paper's
    hardware implements, the affine variant rounds out the library. *)

type affine = { scale : float; zero_point : int; bits : int }

val affine_params : bits:int -> lo:float -> hi:float -> affine
(** Parameters covering [\[lo, hi\]] (always includes 0 so that zero is
    exactly representable). *)

val affine_quantize : affine -> float -> int
val affine_dequantize : affine -> int -> float
