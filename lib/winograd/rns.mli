(** Residue-number-system integer Winograd backend — exact big-tile
    convolution via per-modulus GEMMs and fused CRT reconstruction.

    The paper's tap-wise scales exist because the integer Winograd
    dynamic range explodes beyond F(4,3): the scaled F(6,3) sandwich
    needs ~2× the accumulator bits of F4.  Following Liu & Mattina
    ("Efficient Residue Number System Based Winograd Convolution"), this
    backend sidesteps the blowup by computing the *entire* scaled integer
    sandwich independently in each modulus of a small pairwise-coprime
    basis — residues fit int8/int16, so the PR-7 packed
    {!Microkernel.gemm_i32} path applies unchanged — and recovering the
    exact result once per output pixel by Chinese-remainder
    reconstruction, fused with the denominator divide-off into the
    output-scatter epilogue.  No full-range intermediate tensor ever
    materializes.

    Pipeline, per modulus [p]:
    + the rational [Bᵀ]/[G]/[Aᵀ] of a generated [F(m,r)] are lifted to
      integers by their common denominators ([β], [γ], [α] — reusing
      {!Twq_util.Rmat.lift_common_denominator});
    + input/weight tiles go through the exact lifted transforms once and
      are reduced mod [p] while being packed into the per-tap
      MR/NR panels;
    + one [\[tiles×Cin\]·\[Cin×Cout\]] GEMM per (tap, modulus) accumulates
      lazily (no reduction in the inner loop — the plan proves
      [Cin·p² < max_int]);
    + the output transform runs on residues with [Aᵀ mod p];
    + the gather loop CRT-reconstructs the centered scaled output
      [Y = (β·γ·α)²·y], asserts exact divisibility, divides the
      denominator off, and applies the fused {!Kernels.epilogue}.

    A plan is only constructed after a range proof: the basis product
    must exceed twice the worst-case |Y| bound computed from the lifted
    scales, [Cin], and the declared value ranges — otherwise construction
    fails with a typed {!error}.  Given the proof, the backend is exact:
    {!conv2d} is bit-identical to the direct integer convolution (the
    oracle the tests hold it to, in [test/oracle.ml]) or it raises; it
    never silently truncates. *)

type error =
  | Bad_basis of string
      (** Malformed basis: empty, too many moduli, a modulus outside the
          supported range, a non-coprime pair, or a product beyond the
          native-int reconstruction cap. *)
  | Insufficient_range of { bound : int; required : int; product : int }
      (** The range proof failed: the worst-case scaled accumulator
          magnitude is [bound], so the basis product must be at least
          [required = 2·bound + 1], but it is only [product]. *)
  | Lift_overflow of string
      (** The common-denominator lift of a transform matrix overflows
          native ints (message names the entry). *)
  | Accumulator_overflow of string
      (** Some exact intermediate (lifted transform output, GEMM
          accumulator, or the scaled output bound itself) cannot be
          proven to fit a native int for the requested configuration. *)
  | Out_of_range of string
      (** Runtime violation of the planned contract: an input/weight
          value outside the declared range, or more input channels than
          the plan was proven for. *)

exception Rns_error of error

val error_to_string : error -> string

type plan

val default_basis : int list
(** [\[251; 241; 239\]] — Liu & Mattina's 8-bit prime basis.  Enough for
    F(4,3)-class ranges; F(6,3) at full int8 needs a wider basis (see
    {!suggest_basis}). *)

val plan :
  ?points:Twq_util.Rat.t list ->
  m:int ->
  r:int ->
  basis:int list ->
  cin:int ->
  ?xmax:int ->
  ?wmax:int ->
  unit ->
  (plan, error) result
(** Synthesize [F(m,r)] (Lavin points by default, like {!Gconv.create}),
    lift its matrices, and validate [basis] against the worst-case range
    for up to [cin] input channels with inputs in [\[-xmax, xmax\]] and
    weights in [\[-wmax, wmax\]] (both default 128, covering int8).
    @raise Invalid_argument only for the same malformed [F(m,r)]
    requests {!Generator.make} rejects; every basis/range failure is a
    typed [Error]. *)

val plan_exn :
  ?points:Twq_util.Rat.t list ->
  m:int ->
  r:int ->
  basis:int list ->
  cin:int ->
  ?xmax:int ->
  ?wmax:int ->
  unit ->
  plan
(** {!plan}, raising {!Rns_error} on rejection. *)

val suggest_basis :
  ?points:Twq_util.Rat.t list ->
  m:int ->
  r:int ->
  cin:int ->
  ?xmax:int ->
  ?wmax:int ->
  unit ->
  (int list, error) result
(** Smallest basis from fixed ladders of descending 8-bit primes
    (251, 241, 239, …) then 13-bit primes (8191, 8179, …) whose product
    passes the range proof for the given configuration.  8-bit moduli are
    preferred so residues fit int8 datapaths. *)

val m : plan -> int
val r : plan -> int

val tile : plan -> int
(** [m + r - 1]. *)

val basis : plan -> int array
val denom : plan -> int
(** [(β·γ·α)²] — divided off exactly in the epilogue. *)

val bound : plan -> int
(** Proven worst-case [|Y|] of the scaled integer output. *)

val required : plan -> int
(** [2·bound + 1] — the minimum admissible basis product. *)

val product : plan -> int

val describe : plan -> string
(** Human-readable plan report: tile size, lift scales, basis, range
    proof margin — what the [twq rns] CLI prints. *)

val conv2d :
  plan ->
  ?epilogue:Kernels.epilogue ->
  ?out:Twq_tensor.Itensor.t ->
  ?pad:int ->
  x:Twq_tensor.Itensor.t ->
  w:Twq_tensor.Itensor.t ->
  unit ->
  Twq_tensor.Itensor.t
(** Exact integer Winograd convolution (stride 1) of NCHW [x] against
    [\[cout; cin; r; r\]] weights through the shared tap-major loop
    ({!Kernels.tap_major}), one panel per (modulus, tap).  Bit-identical
    to the direct integer convolution.  Shape errors raise
    [Invalid_argument] (as the other drivers); a value or channel count
    outside the plan's proven range raises
    {!Rns_error}[ (Out_of_range _)].  [epilogue] is applied in the output
    store; [out], if given, must have the output shape and receives the
    result. *)
