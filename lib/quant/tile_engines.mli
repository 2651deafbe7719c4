(** Straight-line transformation engines of the tap-wise integer
    Winograd path — the software counterpart of the paper's flat
    shift-and-add transformation engines (Sec. IV-B1).

    The implementation is generated at build time by
    [lib/winograd/gen/gen_transforms.ml] (its [engines] output) from
    {!Twq_winograd.Transform}'s matrices, the same generator that emits
    [Kernels]' transform steps.  Each
    function keeps one whole tile in locals: no staging arrays, no
    closure call per transform step.

    - {!scatter} is exact integer arithmetic over [Transform.bt_scaled_int],
      so it equals {!Twq_winograd.Transform.input_tile_int} followed by the per-tap
      requantization, whatever the evaluation order.
    - {!gather} sums in [Ops.matmul]'s order (ascending index,
      left-associated, zero coefficients skipped) over [Transform.at_rat]
      in floats, so it equals {!Twq_winograd.Transform.output_tile} of the rescaled
      taps up to the sign of a zero. *)

val scatter :
  Twq_winograd.Transform.variant ->
  int array -> int -> int -> int array -> int -> int -> int array -> int ->
  int -> unit
(** [scatter v src soff rs dst vbase stride rq lo hi] reads the [t×t]
    input window [src.(soff + dy·rs + dx)], applies the integer Bᵀ·x·B,
    requantizes each tap and stores tap [p = i·t + j] at
    [dst.(vbase + p·stride)].  Tap [p]'s requantization, with
    [half = rq.(3p)], [rsh = rq.(3p+1)], [lsh = rq.(3p+2)], is the
    round-half-away right shift [sign(y)·((|y| + half) asr rsh)], then
    [lsl lsh], then the clamp to [\[lo, hi\]], all without a branch.
    The clamp is exact while every shifted tap [z] satisfies
    [|z| < 2^61] and [|lo|, |hi| < 2^61]. *)

val gather :
  Twq_winograd.Transform.variant ->
  int array -> int -> int -> float array -> int -> float array -> unit
(** [gather v acc aoff stride sbg soff yo] rescales the [t²]
    accumulators [acc.(aoff + p·stride)] by [sbg.(soff + p)] and writes
    the [m×m] float tile Aᵀ·y·A to [yo.(0 .. m²−1)], row-major. *)
