(** Integer tensors for the bit-true / int8 inference paths.

    Elements are stored in OCaml [int]s (63-bit), wide enough for every
    intermediate bitwidth the accelerator datapath produces (worst case:
    int8 × int8 products accumulated over thousands of channels fits in
    int32; the bit-true Winograd path tops out near int20). Saturation to a
    given signed bitwidth is explicit via {!clamp_bits}. *)

type t = { shape : Shape.t; data : int array }

val create : Shape.t -> int -> t
val zeros : Shape.t -> t
val of_array : Shape.t -> int array -> t
val init : Shape.t -> (int array -> int) -> t
val copy : t -> t

val numel : t -> int
val dim : t -> int -> int
val reshape : t -> Shape.t -> t

val get : t -> int array -> int
val set : t -> int array -> int -> unit
val get2 : t -> int -> int -> int
val set2 : t -> int -> int -> int -> unit
val get4 : t -> int -> int -> int -> int -> int
val set4 : t -> int -> int -> int -> int -> int -> unit

val map : (int -> int) -> t -> t
val map2 : (int -> int -> int) -> t -> t -> t
val add : t -> t -> t
val mul : t -> t -> t

val matmul : t -> t -> t
val max_abs : t -> int

val clamp_int : bits:int -> int -> int
(** Saturate a scalar to signed [bits]-bit range. *)

val clamp_bits : bits:int -> t -> t

val round_shift : int -> int -> int
(** [round_shift v k] — round-to-nearest (ties away from zero) arithmetic
    right shift by [k >= 0]; the hardware requantization primitive.
    Branch-free on the sign of [v]; exact for [|v| < 2^61] and
    [k <= 62]. *)

val of_tensor_round : Tensor.t -> t
(** Round-to-nearest conversion. *)

val to_tensor : t -> Tensor.t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
