(** The 1-D transform steps of {!Kernels.f32_specialized} and
    {!Kernels.i32_specialized}: straight-line code generated at build
    time by [gen/gen_transforms.ml] from {!Transform}'s exact matrices.

    The float steps sum in [Ops.matmul]'s order (ascending index,
    left-associated, zero coefficients skipped), so their sandwiches
    equal {!Transform.input_tile} and its siblings up to the sign of a
    zero.  The integer steps are CSE'd shift-add graphs of the minimally
    scaled integral matrices, so their sandwiches equal
    {!Transform.input_tile_int} and its siblings bit for bit. *)

type 'a step = 'a array -> int -> int -> 'a array -> int -> int -> unit
(** [step src soff sstride dst doff dstride] writes the product of one
    matrix and the vector [src.(soff + k·sstride)] to
    [dst.(doff + i·dstride)]. *)

val float_steps : Transform.variant -> float step * float step * float step
(** [(Bᵀ, G, Aᵀ)] in floats. *)

val int_steps : Transform.variant -> int step * int step * int step
(** [(bt_scale·Bᵀ, g_scale·G, at_scale·Aᵀ)] in exact integers. *)
