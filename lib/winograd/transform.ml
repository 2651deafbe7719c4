open Twq_util
module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops

type variant = F2 | F4 | F6

let all_variants = [ F2; F4; F6 ]
let name = function F2 -> "F2" | F4 -> "F4" | F6 -> "F6"
let m = function F2 -> 2 | F4 -> 4 | F6 -> 6
let t v = m v + 2
let r _ = 3

let macs_reduction v =
  let m = float_of_int (m v) in
  m *. m *. 9.0 /. ((m +. 2.0) *. (m +. 2.0))

(* F(2x2, 3x3): root points {0, 1, -1}. *)
let bt_f2 = Rmat.of_ints
    [| [| 1; 0; -1; 0 |];
       [| 0; 1; 1; 0 |];
       [| 0; -1; 1; 0 |];
       [| 0; 1; 0; -1 |] |]

let g_f2 =
  let h = Rat.make 1 2 in
  let e n = Rat.mul h (Rat.of_int n) in
  [| [| e 2; e 0; e 0 |];
     [| e 1; e 1; e 1 |];
     [| e 1; e (-1); e 1 |];
     [| e 0; e 0; e 2 |] |]

let at_f2 = Rmat.of_ints
    [| [| 1; 1; 1; 0 |];
       [| 0; 1; -1; -1 |] |]

(* F(4x4, 3x3): Lavin root points {0, 1, -1, 2, -2}.  These are the B^T and
   A^T printed in Sec. II of the paper. *)
let bt_f4 = Rmat.of_ints
    [| [| 4; 0; -5; 0; 1; 0 |];
       [| 0; -4; -4; 1; 1; 0 |];
       [| 0; 4; -4; -1; 1; 0 |];
       [| 0; -2; -1; 2; 1; 0 |];
       [| 0; 2; -1; -2; 1; 0 |];
       [| 0; 4; 0; -5; 0; 1 |] |]

let g_f4 =
  let q n d = Rat.make n d in
  [| [| q 1 4; q 0 1; q 0 1 |];
     [| q (-1) 6; q (-1) 6; q (-1) 6 |];
     [| q (-1) 6; q 1 6; q (-1) 6 |];
     [| q 1 24; q 1 12; q 1 6 |];
     [| q 1 24; q (-1) 12; q 1 6 |];
     [| q 0 1; q 0 1; q 1 1 |] |]

let at_f4 = Rmat.of_ints
    [| [| 1; 1; 1; 1; 1; 0 |];
       [| 0; 1; -1; 2; -2; 0 |];
       [| 0; 1; 1; 4; 4; 0 |];
       [| 0; 1; -1; 8; -8; 1 |] |]

(* F(6x6, 3x3): root points {0, 1, -1, 2, -2, 1/2, -1/2} — the standard
   larger-tile instance (wincnn / cuDNN).  Bᵀ and Aᵀ are no longer
   integral, which is exactly the "higher sensitivity / more complex
   transforms" regime the paper's Sec. II warns about. *)
let bt_f6 =
  let q n d = Rat.make n d in
  [| [| q 1 1; q 0 1; q (-21) 4; q 0 1; q 21 4; q 0 1; q (-1) 1; q 0 1 |];
     [| q 0 1; q 1 1; q 1 1; q (-17) 4; q (-17) 4; q 1 1; q 1 1; q 0 1 |];
     [| q 0 1; q (-1) 1; q 1 1; q 17 4; q (-17) 4; q (-1) 1; q 1 1; q 0 1 |];
     [| q 0 1; q 1 2; q 1 4; q (-5) 2; q (-5) 4; q 2 1; q 1 1; q 0 1 |];
     [| q 0 1; q (-1) 2; q 1 4; q 5 2; q (-5) 4; q (-2) 1; q 1 1; q 0 1 |];
     [| q 0 1; q 2 1; q 4 1; q (-5) 2; q (-5) 1; q 1 2; q 1 1; q 0 1 |];
     [| q 0 1; q (-2) 1; q 4 1; q 5 2; q (-5) 1; q (-1) 2; q 1 1; q 0 1 |];
     [| q 0 1; q (-1) 1; q 0 1; q 21 4; q 0 1; q (-21) 4; q 0 1; q 1 1 |] |]

let g_f6 =
  let q n d = Rat.make n d in
  [| [| q 1 1; q 0 1; q 0 1 |];
     [| q (-2) 9; q (-2) 9; q (-2) 9 |];
     [| q (-2) 9; q 2 9; q (-2) 9 |];
     [| q 1 90; q 1 45; q 2 45 |];
     [| q 1 90; q (-1) 45; q 2 45 |];
     [| q 32 45; q 16 45; q 8 45 |];
     [| q 32 45; q (-16) 45; q 8 45 |];
     [| q 0 1; q 0 1; q 1 1 |] |]

let at_f6 =
  let q n d = Rat.make n d in
  [| [| q 1 1; q 1 1; q 1 1; q 1 1; q 1 1; q 1 1; q 1 1; q 0 1 |];
     [| q 0 1; q 1 1; q (-1) 1; q 2 1; q (-2) 1; q 1 2; q (-1) 2; q 0 1 |];
     [| q 0 1; q 1 1; q 1 1; q 4 1; q 4 1; q 1 4; q 1 4; q 0 1 |];
     [| q 0 1; q 1 1; q (-1) 1; q 8 1; q (-8) 1; q 1 8; q (-1) 8; q 0 1 |];
     [| q 0 1; q 1 1; q 1 1; q 16 1; q 16 1; q 1 16; q 1 16; q 0 1 |];
     [| q 0 1; q 1 1; q (-1) 1; q 32 1; q (-32) 1; q 1 32; q (-1) 32; q 1 1 |] |]

let bt_rat = function F2 -> bt_f2 | F4 -> bt_f4 | F6 -> bt_f6
let g_rat = function F2 -> g_f2 | F4 -> g_f4 | F6 -> g_f6
let at_rat = function F2 -> at_f2 | F4 -> at_f4 | F6 -> at_f6

let g_scale = function F2 -> 2 | F4 -> 24 | F6 -> 90

(* Smallest integers making Bᵀ / Aᵀ integral (1 for F2/F4). *)
let bt_scale = function F2 | F4 -> 1 | F6 -> 4
let at_scale = function F2 | F4 -> 1 | F6 -> 32

let g_scaled_int v =
  let s = Rat.of_int (g_scale v) in
  Array.map (Array.map (fun x -> Rat.to_int_exn (Rat.mul s x))) (g_rat v)

let tensor_of_rmat m =
  let rows = Rmat.rows m and cols = Rmat.cols m in
  Tensor.init [| rows; cols |] (fun idx -> Rat.to_float m.(idx.(0)).(idx.(1)))

let bt v = tensor_of_rmat (bt_rat v)
let g v = tensor_of_rmat (g_rat v)
let at v = tensor_of_rmat (at_rat v)

(* T^T-sandwich helpers.  The float matrices are computed eagerly for all
   three variants at module init — a lazily-filled Hashtbl here would be
   mutated concurrently from the domain pool (data race). *)
let precompute f =
  let f2 = f F2 and f4 = f F4 and f6 = f F6 in
  function F2 -> f2 | F4 -> f4 | F6 -> f6

let bt_m = precompute bt
let g_m = precompute g
let at_m = precompute at
let b_m = precompute (fun v -> Ops.transpose (bt v))
let gt_m = precompute (fun v -> Ops.transpose (g v))
let a_m = precompute (fun v -> Ops.transpose (at v))

let input_tile v x = Ops.matmul (Ops.matmul (bt_m v) x) (b_m v)
let weight_tile v f = Ops.matmul (Ops.matmul (g_m v) f) (gt_m v)
let output_tile v y = Ops.matmul (Ops.matmul (at_m v) y) (a_m v)

let scaled_imat scale m =
  let k = Rat.of_int scale in
  Array.map (Array.map (fun x -> Rat.to_int_exn (Rat.mul k x))) m

let int_sandwich (tm : int array array) (x : Itensor.t) =
  (* t_m · x · t_mᵀ on integer tiles. *)
  let rows = Array.length tm and inner = Array.length tm.(0) in
  let tmp = Itensor.zeros [| rows; Itensor.dim x 1 |] in
  for i = 0 to rows - 1 do
    for j = 0 to Itensor.dim x 1 - 1 do
      let acc = ref 0 in
      for k = 0 to inner - 1 do
        acc := !acc + (tm.(i).(k) * Itensor.get2 x k j)
      done;
      Itensor.set2 tmp i j !acc
    done
  done;
  let out = Itensor.zeros [| rows; rows |] in
  for i = 0 to rows - 1 do
    for j = 0 to rows - 1 do
      let acc = ref 0 in
      for k = 0 to inner - 1 do
        acc := !acc + (Itensor.get2 tmp i k * tm.(j).(k))
      done;
      Itensor.set2 out i j !acc
    done
  done;
  out

let bt_scaled_int v = scaled_imat (bt_scale v) (bt_rat v)
let input_tile_int v x = int_sandwich (bt_scaled_int v) x
let weight_tile_int_scaled v f = int_sandwich (g_scaled_int v) f
let output_tile_int v y = int_sandwich (scaled_imat (at_scale v) (at_rat v)) y

(* Worst-case bit growth of the sandwich t·x·tᵀ when every element of x is a
   signed [bits]-bit integer: tap (i,j) = Σ_{k,l} t[i][k]·t[j][l]·x[k][l];
   propagate intervals coefficient by coefficient. *)
let sandwich_bits (tm : int array array) ~bits =
  let input = Interval.of_signed_bits bits in
  let rows = Array.length tm and inner = Array.length tm.(0) in
  let worst = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to rows - 1 do
      let acc = ref (Interval.point 0) in
      for k = 0 to inner - 1 do
        for l = 0 to inner - 1 do
          let c = tm.(i).(k) * tm.(j).(l) in
          if c <> 0 then acc := Interval.add !acc (Interval.mul_const c input)
        done
      done;
      worst := Stdlib.max !worst (Interval.signed_bits !acc)
    done
  done;
  !worst

let extra_bits_input v = sandwich_bits (bt_scaled_int v) ~bits:8 - 8

let extra_bits_weight v = sandwich_bits (g_scaled_int v) ~bits:8 - 8

let extra_bits_output v =
  sandwich_bits (scaled_imat (at_scale v) (at_rat v)) ~bits:8 - 8
