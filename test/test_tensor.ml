(* Tests for the tensor substrate: shapes, float/int tensors, and the
   reference NN primitives (conv2d vs im2col cross-check, pooling, bn,
   softmax, etc.). *)

open Twq_tensor
module Rng = Twq_util.Rng

let tensor = Alcotest.testable Tensor.pp (Tensor.approx_equal ~tol:1e-9)
let tensor_loose = Alcotest.testable Tensor.pp (Tensor.approx_equal ~tol:1e-6)
let itensor = Alcotest.testable Itensor.pp Itensor.equal

(* ---------------------------------------------------------------- Shape *)

let test_shape_numel_strides () =
  Alcotest.(check int) "numel" 24 (Shape.numel [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Shape.strides [| 2; 3; 4 |]);
  Alcotest.(check int)
    "offset" 17
    (Shape.offset ~strides:(Shape.strides [| 2; 3; 4 |]) [| 1; 1; 1 |])

let test_shape_conv_out () =
  Alcotest.(check (pair int int))
    "same 3x3" (8, 8)
    (Shape.conv2d_out ~h:8 ~w:8 ~kh:3 ~kw:3 ~stride:1 ~pad:1);
  Alcotest.(check (pair int int))
    "valid 3x3" (6, 6)
    (Shape.conv2d_out ~h:8 ~w:8 ~kh:3 ~kw:3 ~stride:1 ~pad:0);
  Alcotest.(check (pair int int))
    "stride 2" (4, 4)
    (Shape.conv2d_out ~h:8 ~w:8 ~kh:3 ~kw:3 ~stride:2 ~pad:1)

let test_shape_validate () =
  Alcotest.check_raises "zero dim" (Invalid_argument "Shape.validate: non-positive dim")
    (fun () -> Shape.validate [| 2; 0 |])

(* --------------------------------------------------------------- Tensor *)

let test_tensor_create_get_set () =
  let t = Tensor.zeros [| 2; 3 |] in
  Tensor.set t [| 1; 2 |] 5.0;
  Alcotest.(check (float 0.0)) "get" 5.0 (Tensor.get t [| 1; 2 |]);
  Alcotest.(check (float 0.0)) "get2" 5.0 (Tensor.get2 t 1 2);
  Alcotest.(check (float 0.0)) "other zero" 0.0 (Tensor.get2 t 0 0)

let test_tensor_init_indices () =
  let t = Tensor.init [| 2; 3 |] (fun i -> float_of_int ((10 * i.(0)) + i.(1))) in
  Alcotest.(check (float 0.0)) "0,0" 0.0 (Tensor.get2 t 0 0);
  Alcotest.(check (float 0.0)) "1,2" 12.0 (Tensor.get2 t 1 2)

let test_tensor_reshape_shares () =
  let t = Tensor.zeros [| 2; 3 |] in
  let r = Tensor.reshape t [| 3; 2 |] in
  Tensor.set2 r 0 0 9.0;
  Alcotest.(check (float 0.0)) "shared" 9.0 (Tensor.get2 t 0 0);
  Alcotest.check_raises "bad reshape"
    (Invalid_argument "Tensor.reshape: element count mismatch") (fun () ->
      ignore (Tensor.reshape t [| 4; 2 |]))

let test_tensor_arith () =
  let a = Tensor.of_array [| 3 |] [| 1.0; 2.0; 3.0 |] in
  let b = Tensor.of_array [| 3 |] [| 4.0; 5.0; 6.0 |] in
  Alcotest.check tensor "add" (Tensor.of_array [| 3 |] [| 5.0; 7.0; 9.0 |]) (Tensor.add a b);
  Alcotest.check tensor "sub" (Tensor.of_array [| 3 |] [| -3.0; -3.0; -3.0 |]) (Tensor.sub a b);
  Alcotest.check tensor "mul" (Tensor.of_array [| 3 |] [| 4.0; 10.0; 18.0 |]) (Tensor.mul a b);
  Alcotest.check tensor "scale" (Tensor.of_array [| 3 |] [| 2.0; 4.0; 6.0 |]) (Tensor.scale 2.0 a);
  Alcotest.(check (float 1e-12)) "sum" 6.0 (Tensor.sum a);
  Alcotest.(check (float 1e-12)) "dot" 32.0 (Tensor.dot a b);
  Alcotest.(check (float 1e-12)) "sumsq" 14.0 (Tensor.sumsq a);
  Alcotest.(check (float 1e-12)) "max_abs" 3.0 (Tensor.max_abs a)

let test_tensor_of_array_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Tensor.of_array: length mismatch")
    (fun () -> ignore (Tensor.of_array [| 2 |] [| 1.0 |]))

(* -------------------------------------------------------------- Itensor *)

let test_itensor_basic () =
  let t = Itensor.zeros [| 2; 2 |] in
  Itensor.set2 t 0 1 42;
  Alcotest.(check int) "get" 42 (Itensor.get2 t 0 1);
  let m = Itensor.map (fun v -> v * 2) t in
  Alcotest.(check int) "map" 84 (Itensor.get2 m 0 1)

let test_itensor_clamp () =
  Alcotest.(check int) "hi" 127 (Itensor.clamp_int ~bits:8 300);
  Alcotest.(check int) "lo" (-128) (Itensor.clamp_int ~bits:8 (-300));
  Alcotest.(check int) "mid" 5 (Itensor.clamp_int ~bits:8 5);
  Alcotest.(check int) "4-bit hi" 7 (Itensor.clamp_int ~bits:4 100)

let test_itensor_round_shift () =
  Alcotest.(check int) "5>>1" 3 (Itensor.round_shift 5 1);
  Alcotest.(check int) "4>>1" 2 (Itensor.round_shift 4 1);
  Alcotest.(check int) "-5>>1" (-3) (Itensor.round_shift (-5) 1);
  Alcotest.(check int) "-4>>1" (-2) (Itensor.round_shift (-4) 1);
  Alcotest.(check int) "shift 0" 17 (Itensor.round_shift 17 0);
  Alcotest.(check int) "100>>3" 13 (Itensor.round_shift 100 3)

let prop_round_shift_matches_float =
  (* round_shift v k = round(v / 2^k) with ties away from zero. *)
  QCheck.Test.make ~name:"round_shift matches float rounding" ~count:1000
    QCheck.(pair (int_range (-100000) 100000) (int_range 0 10))
    (fun (v, k) ->
      let expected = int_of_float (Float.round (float_of_int v /. float_of_int (1 lsl k))) in
      Itensor.round_shift v k = expected)

(* Round-half-away shift written with a sign branch: the definition the
   sign-mask [Itensor.round_shift] must match. *)
let round_shift_branchy v k =
  if k = 0 then v
  else
    let half = 1 lsl (k - 1) in
    if v >= 0 then (v + half) asr k else -((-v + half) asr k)

let prop_round_shift_branch_free =
  (* Small values exercise ties and sign flips; wide ones the full
     |v| < 2^61 range where |v| + 2^(k-1) still fits a 63-bit int. *)
  let bound = (1 lsl 61) - 1 in
  let v_gen =
    QCheck.Gen.(
      oneof
        [ int_range (-1000) 1000; int_range (-bound) bound;
          oneofl [ bound; -bound; 0; 1; -1 ] ])
  in
  QCheck.Test.make ~name:"branch-free round_shift = branchy definition"
    ~count:2000
    (QCheck.pair (QCheck.make ~print:string_of_int v_gen) (QCheck.int_range 0 62))
    (fun (v, k) -> Itensor.round_shift v k = round_shift_branchy v k)

let test_itensor_matmul () =
  let a = Itensor.of_array [| 2; 2 |] [| 1; 2; 3; 4 |] in
  let b = Itensor.of_array [| 2; 2 |] [| 5; 6; 7; 8 |] in
  Alcotest.check itensor "matmul"
    (Itensor.of_array [| 2; 2 |] [| 19; 22; 43; 50 |])
    (Itensor.matmul a b)

(* ------------------------------------------------------------------ Ops *)

let test_matmul_known () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  Alcotest.check tensor "matmul"
    (Tensor.of_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    (Ops.matmul a b)

let test_matmul_identity () =
  let rng = Rng.create 5 in
  let a = Tensor.rand_uniform rng [| 4; 4 |] ~lo:(-1.0) ~hi:1.0 in
  let id = Tensor.init [| 4; 4 |] (fun i -> if i.(0) = i.(1) then 1.0 else 0.0) in
  Alcotest.check tensor "A*I" a (Ops.matmul a id)

let test_transpose () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Alcotest.check tensor "transpose"
    (Tensor.of_array [| 3; 2 |] [| 1.; 4.; 2.; 5.; 3.; 6. |])
    (Ops.transpose a)

let test_conv2d_known () =
  (* 1x1x3x3 input, 1x1x2x2 kernel of ones: valid conv sums 2x2 windows. *)
  let x = Tensor.of_array [| 1; 1; 3; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |] in
  let w = Tensor.ones [| 1; 1; 2; 2 |] in
  Alcotest.check tensor "2x2 sum"
    (Tensor.of_array [| 1; 1; 2; 2 |] [| 12.; 16.; 24.; 28. |])
    (Ops.conv2d ~x ~w ())

let test_conv2d_identity_kernel () =
  let rng = Rng.create 6 in
  let x = Tensor.rand_uniform rng [| 1; 1; 5; 5 |] ~lo:(-1.0) ~hi:1.0 in
  (* 3x3 kernel with centre 1: pad-1 conv is the identity. *)
  let w = Tensor.zeros [| 1; 1; 3; 3 |] in
  Tensor.set4 w 0 0 1 1 1.0;
  Alcotest.check tensor "identity" x (Ops.conv2d ~pad:1 ~x ~w ())

let test_conv2d_bias () =
  let x = Tensor.ones [| 1; 1; 3; 3 |] in
  let w = Tensor.ones [| 2; 1; 3; 3 |] in
  let b = Tensor.of_array [| 2 |] [| 10.0; 20.0 |] in
  let y = Ops.conv2d ~pad:1 ~x ~w ~b () in
  (* Centre pixel sees all 9 ones. *)
  Alcotest.(check (float 1e-9)) "chan0" 19.0 (Tensor.get4 y 0 0 1 1);
  Alcotest.(check (float 1e-9)) "chan1" 29.0 (Tensor.get4 y 0 1 1 1)

let random_conv_case seed (n, cin, cout, h, w, stride, pad) =
  let rng = Rng.create seed in
  let x = Tensor.rand_uniform rng [| n; cin; h; w |] ~lo:(-1.0) ~hi:1.0 in
  let wt = Tensor.rand_uniform rng [| cout; cin; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let b = Tensor.rand_uniform rng [| cout |] ~lo:(-1.0) ~hi:1.0 in
  let direct = Ops.conv2d ~stride ~pad ~x ~w:wt ~b () in
  let lowered = Ops.conv2d_im2col ~stride ~pad ~x ~w:wt ~b () in
  Alcotest.check tensor_loose "im2col == direct" direct lowered

let test_conv2d_im2col_cross_check () =
  random_conv_case 1 (1, 3, 4, 8, 8, 1, 1);
  random_conv_case 2 (2, 2, 3, 7, 9, 1, 0);
  random_conv_case 3 (1, 4, 2, 10, 10, 2, 1);
  random_conv_case 4 (3, 1, 1, 5, 5, 1, 1)

let prop_conv_linear_in_weights =
  (* conv(x, w1+w2) = conv(x,w1) + conv(x,w2) *)
  QCheck.Test.make ~name:"conv linear in weights" ~count:25
    (QCheck.int_range 0 10000) (fun seed ->
      let rng = Rng.create seed in
      let x = Tensor.rand_uniform rng [| 1; 2; 6; 6 |] ~lo:(-1.0) ~hi:1.0 in
      let w1 = Tensor.rand_uniform rng [| 2; 2; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
      let w2 = Tensor.rand_uniform rng [| 2; 2; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
      let lhs = Ops.conv2d ~pad:1 ~x ~w:(Tensor.add w1 w2) () in
      let rhs = Tensor.add (Ops.conv2d ~pad:1 ~x ~w:w1 ()) (Ops.conv2d ~pad:1 ~x ~w:w2 ()) in
      Tensor.approx_equal ~tol:1e-9 lhs rhs)

let test_relu () =
  let x = Tensor.of_array [| 4 |] [| -1.0; 0.0; 2.0; -3.0 |] in
  Alcotest.check tensor "relu"
    (Tensor.of_array [| 4 |] [| 0.0; 0.0; 2.0; 0.0 |])
    (Ops.relu x);
  Alcotest.check tensor "leaky"
    (Tensor.of_array [| 4 |] [| -0.1; 0.0; 2.0; -0.3 |])
    (Ops.leaky_relu 0.1 x)

let test_max_pool () =
  let x = Tensor.of_array [| 1; 1; 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  Alcotest.check tensor "maxpool"
    (Tensor.of_array [| 1; 1; 1; 1 |] [| 4.0 |])
    (Ops.max_pool2d ~k:2 ~stride:2 x);
  Alcotest.check tensor "avgpool"
    (Tensor.of_array [| 1; 1; 1; 1 |] [| 2.5 |])
    (Ops.avg_pool2d ~k:2 ~stride:2 x)

let test_global_avg_pool () =
  let x = Tensor.of_array [| 1; 2; 2; 2 |] [| 1.; 2.; 3.; 4.; 10.; 20.; 30.; 40. |] in
  Alcotest.check tensor "gap"
    (Tensor.of_array [| 1; 2 |] [| 2.5; 25.0 |])
    (Ops.global_avg_pool x)

let test_upsample () =
  let x = Tensor.of_array [| 1; 1; 1; 2 |] [| 1.0; 2.0 |] in
  Alcotest.check tensor "nearest x2"
    (Tensor.of_array [| 1; 1; 2; 4 |] [| 1.; 1.; 2.; 2.; 1.; 1.; 2.; 2. |])
    (Ops.upsample_nearest 2 x)

let test_batch_norm () =
  let x = Tensor.of_array [| 1; 1; 1; 2 |] [| 4.0; 8.0 |] in
  let gamma = Tensor.of_array [| 1 |] [| 2.0 |] in
  let beta = Tensor.of_array [| 1 |] [| 1.0 |] in
  let mean = Tensor.of_array [| 1 |] [| 6.0 |] in
  let var = Tensor.of_array [| 1 |] [| 4.0 |] in
  let y = Ops.batch_norm ~x ~gamma ~beta ~mean ~var ~eps:0.0 in
  Alcotest.check tensor "bn"
    (Tensor.of_array [| 1; 1; 1; 2 |] [| -1.0; 3.0 |])
    y

let test_linear () =
  let x = Tensor.of_array [| 1; 2 |] [| 1.0; 2.0 |] in
  let w = Tensor.of_array [| 3; 2 |] [| 1.; 0.; 0.; 1.; 1.; 1. |] in
  let b = Tensor.of_array [| 3 |] [| 0.5; 0.5; 0.5 |] in
  Alcotest.check tensor "linear"
    (Tensor.of_array [| 1; 3 |] [| 1.5; 2.5; 3.5 |])
    (Ops.linear ~x ~w ~b ())

let test_softmax () =
  let x = Tensor.of_array [| 1; 3 |] [| 1.0; 1.0; 1.0 |] in
  let y = Ops.softmax x in
  Alcotest.(check (float 1e-9)) "uniform" (1.0 /. 3.0) (Tensor.get2 y 0 0);
  (* softmax rows sum to 1 even with large logits (stability). *)
  let x2 = Tensor.of_array [| 1; 3 |] [| 1000.0; 1001.0; 999.0 |] in
  let y2 = Ops.softmax x2 in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Tensor.sum y2)

let test_log_softmax_consistent () =
  let x = Tensor.of_array [| 2; 3 |] [| 0.1; 0.5; -0.2; 2.0; 0.0; 1.0 |] in
  let s = Ops.softmax x and ls = Ops.log_softmax x in
  Alcotest.check tensor_loose "log softmax = log(softmax)" (Tensor.map log s) ls

let test_concat_channels () =
  let a = Tensor.ones [| 1; 1; 2; 2 |] in
  let b = Tensor.scale 2.0 (Tensor.ones [| 1; 2; 2; 2 |]) in
  let c = Ops.concat_channels a b in
  Alcotest.(check int) "channels" 3 (Tensor.dim c 1);
  Alcotest.(check (float 0.0)) "from a" 1.0 (Tensor.get4 c 0 0 0 0);
  Alcotest.(check (float 0.0)) "from b" 2.0 (Tensor.get4 c 0 2 1 1)

let test_argmax_topk () =
  let t = Tensor.of_array [| 1; 4 |] [| 0.1; 0.9; 0.4; 0.2 |] in
  Alcotest.(check int) "argmax" 1 (Ops.argmax_row t 0);
  Alcotest.(check (list int)) "top2" [ 1; 2 ] (Ops.top_k_row t 0 2)

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) in
  Alcotest.run "twq_tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "numel/strides" `Quick test_shape_numel_strides;
          Alcotest.test_case "conv out" `Quick test_shape_conv_out;
          Alcotest.test_case "validate" `Quick test_shape_validate;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "create/get/set" `Quick test_tensor_create_get_set;
          Alcotest.test_case "init indices" `Quick test_tensor_init_indices;
          Alcotest.test_case "reshape shares" `Quick test_tensor_reshape_shares;
          Alcotest.test_case "arith" `Quick test_tensor_arith;
          Alcotest.test_case "of_array mismatch" `Quick test_tensor_of_array_mismatch;
        ] );
      ( "itensor",
        [
          Alcotest.test_case "basic" `Quick test_itensor_basic;
          Alcotest.test_case "clamp" `Quick test_itensor_clamp;
          Alcotest.test_case "round shift" `Quick test_itensor_round_shift;
          Alcotest.test_case "matmul" `Quick test_itensor_matmul;
          qt prop_round_shift_matches_float;
          qt prop_round_shift_branch_free;
        ] );
      ( "ops",
        [
          Alcotest.test_case "matmul known" `Quick test_matmul_known;
          Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "conv2d known" `Quick test_conv2d_known;
          Alcotest.test_case "conv2d identity kernel" `Quick test_conv2d_identity_kernel;
          Alcotest.test_case "conv2d bias" `Quick test_conv2d_bias;
          Alcotest.test_case "im2col cross-check" `Quick test_conv2d_im2col_cross_check;
          qt prop_conv_linear_in_weights;
          Alcotest.test_case "relu" `Quick test_relu;
          Alcotest.test_case "pooling" `Quick test_max_pool;
          Alcotest.test_case "global avg pool" `Quick test_global_avg_pool;
          Alcotest.test_case "upsample" `Quick test_upsample;
          Alcotest.test_case "batch norm" `Quick test_batch_norm;
          Alcotest.test_case "linear" `Quick test_linear;
          Alcotest.test_case "softmax" `Quick test_softmax;
          Alcotest.test_case "log softmax" `Quick test_log_softmax_consistent;
          Alcotest.test_case "concat channels" `Quick test_concat_channels;
          Alcotest.test_case "argmax/topk" `Quick test_argmax_topk;
        ] );
    ]
