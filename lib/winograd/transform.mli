(** Winograd transformation matrices and single-tile transforms.

    Variants follow the paper: [F2] is F(2x2, 3x3) with root points
    {0, 1, -1}; [F4] is F(4x4, 3x3) with the Lavin root points
    {0, 1, -1, 2, -2} (the matrices printed in Sec. II of the paper).
    [F6] is the standard F(6x6, 3x3) with points {0, ±1, ±2, ±1/2} —
    implemented as the "larger tiles" extension whose numerical behaviour
    the paper's Sec. II discusses.
    All matrices are constructed exactly as rationals and exposed both in
    rational and float form.

    Conventions (Eq. 1 of the paper):
    - input transform:  [Bᵀ · x · B] with [x : t×t], [t = m+2];
    - weight transform: [G · f · Gᵀ] with [f : 3×3];
    - output transform: [Aᵀ · Y · A] with [Y : t×t], result [m×m]. *)

type variant = F2 | F4 | F6

val all_variants : variant list
val name : variant -> string

val m : variant -> int
(** Output tile size (2, 4 or 6). *)

val t : variant -> int
(** Transformed tile size [m + 2] (4 or 6). *)

val r : variant -> int
(** Kernel size (always 3). *)

val macs_reduction : variant -> float
(** Theoretical MACs reduction vs the standard algorithm:
    [m²·9 / (m+2)²] — 2.25 for F2, 4.0 for F4. *)

(** {2 Exact matrices} *)

val bt_rat : variant -> Twq_util.Rmat.t
(** [Bᵀ : t×t] *)

val g_rat : variant -> Twq_util.Rmat.t
(** [G : t×3] *)

val at_rat : variant -> Twq_util.Rmat.t
(** [Aᵀ : m×t] *)

val g_scale : variant -> int
(** Smallest positive integer [k] such that [k·G] is integral
    (2 for F2, 24 for F4, 90 for F6). *)

val bt_scale : variant -> int
(** Smallest positive integer making [Bᵀ] integral (1, 1, 4). *)

val at_scale : variant -> int
(** Smallest positive integer making [Aᵀ] integral (1, 1, 32). *)

val g_scaled_int : variant -> int array array
(** [g_scale · G] as integers. *)

val bt_scaled_int : variant -> int array array
(** [bt_scale · Bᵀ] as integers — the matrix of the integer input
    transform ({!input_tile_int}, [Twq_quant.Tile_engines.scatter]). *)

(** {2 Float matrices (as 2-D tensors)} *)

val bt : variant -> Twq_tensor.Tensor.t
val g : variant -> Twq_tensor.Tensor.t
val at : variant -> Twq_tensor.Tensor.t

(** {2 Single-tile float transforms} *)

val input_tile : variant -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** [Bᵀ x B] of a [t×t] tile. *)

val weight_tile : variant -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** [G f Gᵀ] of a [3×3] kernel. *)

val output_tile : variant -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** [Aᵀ Y A] of a [t×t] Winograd-domain tile. *)

(** {2 Single-tile integer transforms (exact)} *)

val input_tile_int : variant -> Twq_tensor.Itensor.t -> Twq_tensor.Itensor.t
(** [(bt_scale·Bᵀ) x (bt_scale·B)] — exact integer input transform scaled
    by [bt_scale²] (the scale is 1 for F2/F4, whose [Bᵀ] is integral). *)

val weight_tile_int_scaled : variant -> Twq_tensor.Itensor.t -> Twq_tensor.Itensor.t
(** [(g_scale·G) f (g_scale·G)ᵀ] — exact integer weight transform scaled by
    [g_scale²]. *)

val output_tile_int : variant -> Twq_tensor.Itensor.t -> Twq_tensor.Itensor.t
(** [(at_scale·Aᵀ) Y (at_scale·A)] — exact integer output transform scaled
    by [at_scale²]. *)

(** {2 Bit-growth bounds (Challenge I / Sec. II)} *)

val extra_bits_input : variant -> int
(** Worst-case extra bits of [Bᵀ x B] over the input bitwidth. *)

val extra_bits_weight : variant -> int
(** Worst-case extra bits of the (unscaled, real-valued) [G f Gᵀ] over the
    weight bitwidth — i.e. bits needed for a bit-true representation. *)

val extra_bits_output : variant -> int
(** Worst-case extra bits of [Aᵀ Y A] over the Winograd-domain bitwidth. *)
