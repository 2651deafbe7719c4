module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor

let qmax ~bits = (1 lsl (bits - 1)) - 1
let qmin ~bits = -(1 lsl (bits - 1))

let min_scale = 1e-12

let scale_for ~bits ~max_abs =
  if max_abs <= 0.0 then min_scale
  else max_abs /. float_of_int (1 lsl (bits - 1))

let pow2_round_up s =
  if s <= 0.0 then invalid_arg "Quantizer.pow2_round_up: non-positive scale";
  Float.pow 2.0 (Float.ceil (Float.log2 s))

let pow2_exponent s =
  if s <= 0.0 then invalid_arg "Quantizer.pow2_exponent: non-positive scale";
  int_of_float (Float.ceil (Float.log2 s))

(* Saturate in float before converting: [int_of_float] of a value
   outside the int range is unspecified (on amd64 +inf and 1e19 read
   back as 0 and 5e18 wraps negative).  Inside the range, truncation
   plus a test on the exact fraction [x - trunc x] rounds half away
   from zero like [Float.round], without the C call.  NaN fails both
   range tests and truncates to 0. *)
let quantize ~bits ~scale x =
  let hi = qmax ~bits and lo = qmin ~bits in
  let x = x /. scale in
  if x >= float_of_int hi +. 0.5 then hi
  else if x <= float_of_int lo -. 0.5 then lo
  else
    let i = int_of_float x in
    let f = x -. float_of_int i in
    i + Bool.to_int (f >= 0.5) - Bool.to_int (f <= -0.5)

let dequantize ~scale v = float_of_int v *. scale

let fake_quant ~bits ~scale x = dequantize ~scale (quantize ~bits ~scale x)

let quantize_tensor ~bits ~scale (t : Tensor.t) =
  Itensor.of_array (Array.copy t.Tensor.shape)
    (Array.map (quantize ~bits ~scale) t.Tensor.data)

let dequantize_tensor ~scale (t : Itensor.t) =
  Tensor.of_array (Array.copy t.Itensor.shape)
    (Array.map (dequantize ~scale) t.Itensor.data)

let fake_quant_tensor ~bits ~scale = Tensor.map (fake_quant ~bits ~scale)

(* Affine (asymmetric) quantization: x ≈ s·(q − z) with an integer
   zero-point — the general scheme of Krishnamoorthi's whitepaper; the
   paper's Fig.-4 analysis quantizes around a per-unit mean the same way. *)

type affine = { scale : float; zero_point : int; bits : int }

let affine_params ~bits ~lo ~hi =
  if not (lo <= hi) then invalid_arg "Quantizer.affine_params: lo > hi";
  let lo = Float.min lo 0.0 and hi = Float.max hi 0.0 in
  let qmin = qmin ~bits and qmax = qmax ~bits in
  let scale = Float.max min_scale ((hi -. lo) /. float_of_int (qmax - qmin)) in
  let zero_point =
    Itensor.clamp_int ~bits
      (int_of_float (Float.round (float_of_int qmin -. (lo /. scale))))
  in
  { scale; zero_point; bits }

let affine_quantize p x =
  Itensor.clamp_int ~bits:p.bits
    (p.zero_point + int_of_float (Float.round (x /. p.scale)))

let affine_dequantize p q = float_of_int (q - p.zero_point) *. p.scale
