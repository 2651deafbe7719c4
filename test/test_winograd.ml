(* Tests for the Winograd substrate: exactness of the transformation
   matrices, the Winograd convolution identity vs the direct algorithm
   (float and bit-true integer), bit-growth bounds, pseudo-inverse. *)

open Twq_util
open Twq_tensor
open Twq_winograd
module Generator = Twq_winograd.Generator

let tensor_loose = Alcotest.testable Tensor.pp (Tensor.approx_equal ~tol:1e-6)
let itensor = Alcotest.testable Itensor.pp Itensor.equal

(* ------------------------------------------------------- matrix algebra *)

(* The defining property of the Winograd matrices: for polynomial inputs the
   transform computes a valid convolution.  We check the end-to-end tile
   identity: A^T [(G f G^T) .* (B^T x B)] A = conv_valid(x, f). *)

let direct_valid_tile x f m =
  (* x : (m+2)x(m+2), f : 3x3 -> m x m valid convolution (correlation). *)
  Tensor.init [| m; m |] (fun idx ->
      let acc = ref 0.0 in
      for ki = 0 to 2 do
        for kj = 0 to 2 do
          acc := !acc +. (Tensor.get2 x (idx.(0) + ki) (idx.(1) + kj) *. Tensor.get2 f ki kj)
        done
      done;
      !acc)

let check_tile_identity variant seed =
  let rng = Rng.create seed in
  let t = Transform.t variant and m = Transform.m variant in
  let x = Tensor.rand_uniform rng [| t; t |] ~lo:(-1.0) ~hi:1.0 in
  let f = Tensor.rand_uniform rng [| 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let y =
    Transform.output_tile variant
      (Tensor.mul (Transform.weight_tile variant f) (Transform.input_tile variant x))
  in
  Alcotest.check tensor_loose
    (Printf.sprintf "%s tile identity" (Transform.name variant))
    (direct_valid_tile x f m) y

let test_tile_identity_f2 () = List.iter (check_tile_identity Transform.F2) [ 1; 2; 3; 4; 5 ]
let test_tile_identity_f4 () = List.iter (check_tile_identity Transform.F4) [ 1; 2; 3; 4; 5 ]

let prop_tile_identity =
  QCheck.Test.make ~name:"winograd tile identity (both variants)" ~count:100
    QCheck.(pair (int_range 0 100000) (oneofl Transform.all_variants))
    (fun (seed, variant) ->
      let rng = Rng.create seed in
      let t = Transform.t variant and m = Transform.m variant in
      let x = Tensor.rand_uniform rng [| t; t |] ~lo:(-2.0) ~hi:2.0 in
      let f = Tensor.rand_uniform rng [| 3; 3 |] ~lo:(-2.0) ~hi:2.0 in
      let y =
        Transform.output_tile variant
          (Tensor.mul (Transform.weight_tile variant f) (Transform.input_tile variant x))
      in
      Tensor.approx_equal ~tol:1e-6 (direct_valid_tile x f m) y)

let test_matrix_shapes () =
  List.iter
    (fun v ->
      let t = Transform.t v and m = Transform.m v in
      Alcotest.(check int) "bt rows" t (Rmat.rows (Transform.bt_rat v));
      Alcotest.(check int) "bt cols" t (Rmat.cols (Transform.bt_rat v));
      Alcotest.(check int) "g rows" t (Rmat.rows (Transform.g_rat v));
      Alcotest.(check int) "g cols" 3 (Rmat.cols (Transform.g_rat v));
      Alcotest.(check int) "at rows" m (Rmat.rows (Transform.at_rat v));
      Alcotest.(check int) "at cols" t (Rmat.cols (Transform.at_rat v)))
    Transform.all_variants

let test_g_scale_integral () =
  List.iter
    (fun v ->
      let gi = Transform.g_scaled_int v in
      Alcotest.(check int) "rows" (Transform.t v) (Array.length gi);
      (* Converting back: gi / scale must equal G exactly. *)
      let s = Rat.of_int (Transform.g_scale v) in
      let g = Transform.g_rat v in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j x ->
              Alcotest.(check bool)
                "scaled entry" true
                (Rat.equal (Rat.div (Rat.of_int x) s) g.(i).(j)))
            row)
        gi)
    Transform.all_variants

let test_macs_reduction () =
  Alcotest.(check (float 1e-9)) "F2" 2.25 (Transform.macs_reduction Transform.F2);
  Alcotest.(check (float 1e-9)) "F4" 4.0 (Transform.macs_reduction Transform.F4)

(* ------------------------------------------------------------ bit growth *)

let test_bit_growth_f2 () =
  (* Paper Sec. II: B^T x B needs 2 extra bits, G f G^T needs 3 extra bits
     (the latter counted on the bit-true scaled transform: 2G is integral,
     rows have L1 at most 3-ish). *)
  Alcotest.(check int) "input +2" 2 (Transform.extra_bits_input Transform.F2)

let test_bit_growth_f6 () =
  (* Larger tiles need markedly more bits — the Sec.-II escalation. *)
  Alcotest.(check bool) "F6 input > F4 input" true
    (Transform.extra_bits_input Transform.F6 > Transform.extra_bits_input Transform.F4);
  Alcotest.(check bool) "F6 weights > F4 weights" true
    (Transform.extra_bits_weight Transform.F6 > Transform.extra_bits_weight Transform.F4)

let test_bit_growth_f4 () =
  (* Paper Challenge I: bit-true F4 needs 10 extra bits for the weights. *)
  Alcotest.(check int) "weights +10" 10 (Transform.extra_bits_weight Transform.F4);
  (* Input/output transformations: the paper reports 8 extra bits; our exact
     interval analysis gives the tight bound, which must not exceed 8. *)
  Alcotest.(check bool)
    "input extra in [6;8]" true
    (let b = Transform.extra_bits_input Transform.F4 in
     b >= 6 && b <= 8);
  Alcotest.(check bool)
    "output extra in [7;9]" true
    (let b = Transform.extra_bits_output Transform.F4 in
     b >= 7 && b <= 9)

(* ------------------------------------------------------------- full conv *)

let check_conv_matches variant ~seed ~n ~cin ~cout ~h ~w ~pad =
  let rng = Rng.create seed in
  let x = Tensor.rand_uniform rng [| n; cin; h; w |] ~lo:(-1.0) ~hi:1.0 in
  let wt = Tensor.rand_uniform rng [| cout; cin; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let direct = Ops.conv2d ~stride:1 ~pad ~x ~w:wt () in
  let wino = Conv.conv2d ~variant ~pad ~x ~w:wt () in
  Alcotest.check tensor_loose "winograd == direct" direct wino

let test_conv_f6_same () =
  check_conv_matches Transform.F6 ~seed:16 ~n:1 ~cin:2 ~cout:2 ~h:12 ~w:12 ~pad:1

let test_conv_f2_same () =
  check_conv_matches Transform.F2 ~seed:10 ~n:1 ~cin:3 ~cout:4 ~h:8 ~w:8 ~pad:1

let test_conv_f4_same () =
  check_conv_matches Transform.F4 ~seed:11 ~n:1 ~cin:3 ~cout:4 ~h:8 ~w:8 ~pad:1

let test_conv_f4_odd_sizes () =
  (* Output extent not a multiple of the tile: edge tiles are cropped. *)
  check_conv_matches Transform.F4 ~seed:12 ~n:1 ~cin:2 ~cout:2 ~h:7 ~w:9 ~pad:1;
  check_conv_matches Transform.F2 ~seed:13 ~n:1 ~cin:2 ~cout:2 ~h:5 ~w:7 ~pad:1

let test_conv_f4_valid () =
  check_conv_matches Transform.F4 ~seed:14 ~n:2 ~cin:2 ~cout:3 ~h:10 ~w:10 ~pad:0

let test_conv_bias () =
  let rng = Rng.create 15 in
  let x = Tensor.rand_uniform rng [| 1; 2; 8; 8 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.rand_uniform rng [| 3; 2; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let b = Tensor.rand_uniform rng [| 3 |] ~lo:(-1.0) ~hi:1.0 in
  let direct = Ops.conv2d ~stride:1 ~pad:1 ~x ~w ~b () in
  let wino = Conv.conv2d ~variant:Transform.F4 ~pad:1 ~x ~w ~b () in
  Alcotest.check tensor_loose "bias" direct wino

let prop_conv_winograd_equals_direct =
  QCheck.Test.make ~name:"winograd conv == direct conv (random shapes)" ~count:30
    QCheck.(
      quad (int_range 0 100000) (oneofl Transform.all_variants) (int_range 4 12)
        (int_range 4 12))
    (fun (seed, variant, h, w) ->
      let rng = Rng.create seed in
      let cin = 1 + Rng.int rng 3 and cout = 1 + Rng.int rng 3 in
      let x = Tensor.rand_uniform rng [| 1; cin; h; w |] ~lo:(-1.0) ~hi:1.0 in
      let wt = Tensor.rand_uniform rng [| cout; cin; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
      let direct = Ops.conv2d ~stride:1 ~pad:1 ~x ~w:wt () in
      let wino = Conv.conv2d ~variant ~pad:1 ~x ~w:wt () in
      Tensor.approx_equal ~tol:1e-6 direct wino)

(* ------------------------------------------------------ bit-true integer *)

let check_int_conv variant seed =
  let rng = Rng.create seed in
  let x = Itensor.init [| 1; 2; 8; 8 |] (fun _ -> Rng.int rng 255 - 128) in
  let w = Itensor.init [| 2; 2; 3; 3 |] (fun _ -> Rng.int rng 255 - 128) in
  let direct = Oracle.direct_int ~pad:1 ~x ~w () in
  let wino = Conv.conv2d_int_bit_true ~variant ~pad:1 ~x ~w () in
  Alcotest.check itensor
    (Printf.sprintf "%s bit-true == direct" (Transform.name variant))
    direct wino

let test_int_conv_f2 () = List.iter (check_int_conv Transform.F2) [ 20; 21; 22 ]
let test_int_conv_f4 () = List.iter (check_int_conv Transform.F4) [ 23; 24; 25 ]

let prop_int_conv_bit_true =
  QCheck.Test.make ~name:"bit-true integer winograd == integer direct" ~count:20
    QCheck.(pair (int_range 0 100000) (oneofl Transform.all_variants))
    (fun (seed, variant) ->
      let rng = Rng.create seed in
      let h = 4 + Rng.int rng 8 and w = 4 + Rng.int rng 8 in
      let x = Itensor.init [| 1; 2; h; w |] (fun _ -> Rng.int rng 255 - 128) in
      let wt = Itensor.init [| 2; 2; 3; 3 |] (fun _ -> Rng.int rng 255 - 128) in
      Itensor.equal (Oracle.direct_int ~pad:1 ~x ~w:wt ())
        (Conv.conv2d_int_bit_true ~variant ~pad:1 ~x ~w:wt ()))

(* ------------------------------------------------------------- generator *)

let test_generator_reproduces_f4_exactly () =
  let t = Generator.make ~points:(List.map Rat.of_int [ 0; 1; -1; 2; -2 ]) ~m:4 ~r:3 in
  Alcotest.(check bool) "bt" true (Rmat.equal t.Generator.bt (Transform.bt_rat Transform.F4));
  Alcotest.(check bool) "g" true (Rmat.equal t.Generator.g (Transform.g_rat Transform.F4));
  Alcotest.(check bool) "at" true (Rmat.equal t.Generator.at (Transform.at_rat Transform.F4))

let test_generator_identity_various_fm () =
  List.iter
    (fun (m, r, pts) ->
      let t = Generator.make ~points:(Generator.lavin_points pts) ~m ~r in
      let err = Generator.fp_error_probe t ~seed:5 ~trials:100 in
      Alcotest.(check bool)
        (Printf.sprintf "F(%d,%d) err %.1e" m r err)
        true (err < 1e-10))
    [ (2, 3, 3); (4, 3, 5); (6, 3, 7); (2, 5, 5); (4, 5, 7); (8, 3, 9); (4, 7, 9) ]

let prop_generator_identity_random_points =
  QCheck.Test.make ~name:"generator identity for random distinct points" ~count:30
    (QCheck.int_range 0 100000) (fun seed ->
      let rng = Rng.create seed in
      (* 4 distinct small rationals + 0. *)
      let rec draw acc =
        if List.length acc >= 5 then acc
        else begin
          let v = Rat.make (Rng.int rng 9 - 4) (1 + Rng.int rng 3) in
          if List.exists (Rat.equal v) acc then draw acc else draw (v :: acc)
        end
      in
      let points = draw [ Rat.zero ] in
      let t = Generator.make ~points ~m:4 ~r:3 in
      Generator.fp_error_probe t ~seed ~trials:20 < 1e-8)

(* The `lavin_points` coverage gap: the identity was only probed at a few
   fixed (m, r) pairs, never property-tested across the point-progression
   prefixes the generator actually serves.  Exercise every k up to 8
   (F(2,3)..F(7,3), i.e. half-integer points included) against the direct
   1-D convolution. *)
let prop_lavin_points_conv1d_identity =
  QCheck.Test.make ~count:40
    ~name:"lavin-point conv1d identity for every prefix k <= 8"
    QCheck.(pair (int_range 0 100000) (int_range 3 8))
    (fun (seed, k) ->
      let r = 3 in
      let m = k + 2 - r in
      let t = Generator.make ~points:(Generator.lavin_points k) ~m ~r in
      let rng = Rng.create seed in
      let d = Array.init (m + r - 1) (fun _ -> Rng.float rng 2.0 -. 1.0) in
      let g = Array.init r (fun _ -> Rng.float rng 2.0 -. 1.0) in
      let direct = Generator.conv1d_reference t d g in
      let wino = Generator.conv1d t d g in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) direct wino)

let test_generator_rejects_even_r () =
  Alcotest.check_raises "even r"
    (Invalid_argument "Generator.make: even kernel sizes are not supported")
    (fun () ->
      ignore
        (Generator.make ~points:(Generator.lavin_points 4) ~m:4 ~r:2))

let test_generator_rejects_bad_input () =
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Generator.make: F(4,3) needs 5 finite points") (fun () ->
      ignore (Generator.make ~points:[ Rat.zero ] ~m:4 ~r:3));
  Alcotest.check_raises "duplicate points"
    (Invalid_argument "Generator.make: points must be pairwise distinct") (fun () ->
      ignore
        (Generator.make
           ~points:[ Rat.zero; Rat.one; Rat.one; Rat.of_int 2; Rat.of_int (-2) ]
           ~m:4 ~r:3))

let test_lavin_points () =
  let pts = Generator.lavin_points 5 in
  Alcotest.(check int) "count" 5 (List.length pts);
  Alcotest.(check bool) "starts at 0" true (Rat.equal (List.hd pts) Rat.zero);
  (* Pairwise distinct. *)
  let arr = Array.of_list pts in
  Array.iteri
    (fun i a ->
      Array.iteri (fun j b -> if i < j then Alcotest.(check bool) "distinct" false (Rat.equal a b)) arr)
    arr

(* ----------------------------------------------------------------- gconv *)

let test_gconv_matches_direct () =
  List.iter
    (fun (m, r) ->
      let c = Gconv.create ~m ~r () in
      let rng = Rng.create (200 + m + r) in
      let x = Tensor.rand_uniform rng [| 1; 2; 14; 14 |] ~lo:(-1.0) ~hi:1.0 in
      let w = Tensor.rand_uniform rng [| 2; 2; r; r |] ~lo:(-0.5) ~hi:0.5 in
      let pad = r / 2 in
      let direct = Ops.conv2d ~stride:1 ~pad ~x ~w () in
      let wino = Gconv.conv2d c ~pad ~x ~w () in
      Alcotest.(check bool)
        (Printf.sprintf "F(%dx%d,%dx%d)" m m r r)
        true
        (Tensor.approx_equal ~tol:1e-5 direct wino))
    [ (2, 3); (4, 3); (2, 5); (4, 5); (2, 7) ]

let test_gconv_macs_reduction () =
  let c = Gconv.create ~m:4 ~r:5 () in
  (* (4·5/8)² = 6.25 — large kernels save even more multiplications. *)
  Alcotest.(check (float 1e-9)) "F(4,5)" 6.25 (Gconv.macs_reduction c);
  Alcotest.(check bool) "bigger than F(4,3)" true
    (Gconv.macs_reduction c > Transform.macs_reduction Transform.F4)

let prop_gconv_f45_identity =
  QCheck.Test.make ~name:"gconv F(4,5) == direct" ~count:10
    (QCheck.int_range 0 10000) (fun seed ->
      let c = Gconv.create ~m:4 ~r:5 () in
      let rng = Rng.create seed in
      let h = 8 + Rng.int rng 8 and w = 8 + Rng.int rng 8 in
      let x = Tensor.rand_uniform rng [| 1; 2; h; w |] ~lo:(-1.0) ~hi:1.0 in
      let wt = Tensor.rand_uniform rng [| 2; 2; 5; 5 |] ~lo:(-0.5) ~hi:0.5 in
      Tensor.approx_equal ~tol:1e-5
        (Ops.conv2d ~stride:1 ~pad:2 ~x ~w:wt ())
        (Gconv.conv2d c ~pad:2 ~x ~w:wt ()))

(* ---------------------------------------------------------------- conv1d *)

let test_conv1d_matches_reference () =
  List.iter
    (fun (m, r) ->
      let c = Conv1d.create ~m ~r () in
      let rng = Rng.create (100 + m + r) in
      let signal = Array.init 37 (fun _ -> Rng.float rng 2.0 -. 1.0) in
      let kernel = Array.init r (fun _ -> Rng.float rng 2.0 -. 1.0) in
      let y = Conv1d.conv c ~signal ~kernel in
      let y_ref = Conv1d.conv_reference ~signal ~kernel in
      Alcotest.(check int) "length" (Array.length y_ref) (Array.length y);
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "F(%d,%d)[%d]" m r i)
            true
            (Float.abs (v -. y_ref.(i)) < 1e-9))
        y)
    [ (2, 3); (4, 3); (6, 3); (4, 5); (2, 7) ]

let prop_conv1d_identity =
  QCheck.Test.make ~name:"conv1d winograd == direct" ~count:50
    (QCheck.pair (QCheck.int_range 0 10000) (QCheck.int_range 8 40))
    (fun (seed, n) ->
      let c = Conv1d.create ~m:4 ~r:3 () in
      let rng = Rng.create seed in
      let signal = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
      let kernel = Array.init 3 (fun _ -> Rng.float rng 2.0 -. 1.0) in
      let y = Conv1d.conv c ~signal ~kernel in
      let y_ref = Conv1d.conv_reference ~signal ~kernel in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) y y_ref)

let test_conv1d_macs_reduction () =
  let c = Conv1d.create ~m:4 ~r:3 () in
  Alcotest.(check (float 1e-9)) "12/6" 2.0 (Conv1d.macs_reduction c)

(* --------------------------------------------------------------- strided *)

let test_strided_decomposition_matches_direct () =
  List.iter
    (fun (seed, chans, h, w) ->
      let rng = Rng.create seed in
      let x = Tensor.rand_uniform rng [| 1; chans; h; w |] ~lo:(-1.0) ~hi:1.0 in
      let wt = Tensor.rand_uniform rng [| chans; chans; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
      let direct = Ops.conv2d ~stride:2 ~pad:0 ~x ~w:wt () in
      let dec = Strided.conv2d_stride2 ~x ~w:wt in
      Alcotest.check tensor_loose "polyphase == direct" direct dec)
    [ (50, 1, 8, 8); (51, 3, 10, 12); (52, 2, 16, 16) ]

let prop_strided_decomposition =
  QCheck.Test.make ~name:"stride-2 polyphase decomposition" ~count:20
    (QCheck.int_range 0 10000) (fun seed ->
      let rng = Rng.create seed in
      let h = 2 * (3 + Rng.int rng 5) and w = 2 * (3 + Rng.int rng 5) in
      let chans = 1 + Rng.int rng 3 in
      let x = Tensor.rand_uniform rng [| 1; chans; h; w |] ~lo:(-1.0) ~hi:1.0 in
      let wt = Tensor.rand_uniform rng [| 2; chans; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
      Tensor.approx_equal ~tol:1e-6
        (Ops.conv2d ~stride:2 ~pad:0 ~x ~w:wt ())
        (Strided.conv2d_stride2 ~x ~w:wt))

let test_strided_macs_reduction_1_8 () =
  (* The paper's Sec.-III figure. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.2f near 1.8" Strided.macs_reduction)
    true
    (Float.abs (Strided.macs_reduction -. 1.8) < 0.05)

let test_strided_rejects_bad_input () =
  let x = Tensor.zeros [| 1; 1; 7; 8 |] in
  let w = Tensor.zeros [| 1; 1; 3; 3 |] in
  Alcotest.check_raises "odd dims"
    (Invalid_argument "Strided.conv2d_stride2: even input dims required")
    (fun () -> ignore (Strided.conv2d_stride2 ~x ~w))

(* ------------------------------------------------------------------ pinv *)

let test_pinv_left_inverse () =
  List.iter
    (fun v ->
      let p = Pinv.g_pinv_rat v in
      Alcotest.(check bool)
        "G+ G = I" true
        (Rmat.equal (Rmat.mul p (Transform.g_rat v)) (Rmat.identity 3)))
    Transform.all_variants

let test_pinv_roundtrip () =
  (* Back-transforming an unquantized Winograd-domain weight tile recovers
     the spatial kernel exactly (up to FP rounding). *)
  List.iter
    (fun v ->
      let rng = Rng.create 33 in
      let f = Tensor.rand_uniform rng [| 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
      let q = Transform.weight_tile v f in
      let f' = Pinv.weight_back_transform v q in
      Alcotest.check tensor_loose "roundtrip" f f')
    Transform.all_variants

let test_numerical_error_f4_small () =
  let rng = Rng.create 44 in
  let x = Tensor.rand_uniform rng [| 1; 4; 16; 16 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.rand_uniform rng [| 4; 4; 3; 3 |] ~lo:(-0.5) ~hi:0.5 in
  let err = Conv.max_abs_error ~variant:Transform.F4 ~x ~w in
  Alcotest.(check bool) "fp32 error small" true (err < 1e-5)

let test_tiles_along () =
  Alcotest.(check int) "F4, 16" 4 (Conv.tiles_along ~variant:Transform.F4 16);
  Alcotest.(check int) "F4, 17" 5 (Conv.tiles_along ~variant:Transform.F4 17);
  Alcotest.(check int) "F2, 5" 3 (Conv.tiles_along ~variant:Transform.F2 5)

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) in
  Alcotest.run "twq_winograd"
    [
      ( "transform",
        [
          Alcotest.test_case "tile identity F2" `Quick test_tile_identity_f2;
          Alcotest.test_case "tile identity F4" `Quick test_tile_identity_f4;
          qt prop_tile_identity;
          Alcotest.test_case "matrix shapes" `Quick test_matrix_shapes;
          Alcotest.test_case "g_scale integral" `Quick test_g_scale_integral;
          Alcotest.test_case "macs reduction" `Quick test_macs_reduction;
        ] );
      ( "bit growth",
        [
          Alcotest.test_case "F2 bounds" `Quick test_bit_growth_f2;
          Alcotest.test_case "F4 bounds" `Quick test_bit_growth_f4;
          Alcotest.test_case "F6 bounds" `Quick test_bit_growth_f6;
        ] );
      ( "conv",
        [
          Alcotest.test_case "F2 same-pad" `Quick test_conv_f2_same;
          Alcotest.test_case "F4 same-pad" `Quick test_conv_f4_same;
          Alcotest.test_case "F6 same-pad" `Quick test_conv_f6_same;
          Alcotest.test_case "odd sizes" `Quick test_conv_f4_odd_sizes;
          Alcotest.test_case "valid-pad" `Quick test_conv_f4_valid;
          Alcotest.test_case "bias" `Quick test_conv_bias;
          qt prop_conv_winograd_equals_direct;
          Alcotest.test_case "tiles along" `Quick test_tiles_along;
          Alcotest.test_case "fp32 error small" `Quick test_numerical_error_f4_small;
        ] );
      ( "int conv",
        [
          Alcotest.test_case "F2 bit-true" `Quick test_int_conv_f2;
          Alcotest.test_case "F4 bit-true" `Quick test_int_conv_f4;
          qt prop_int_conv_bit_true;
        ] );
      ( "generator",
        [
          Alcotest.test_case "reproduces paper F4" `Quick test_generator_reproduces_f4_exactly;
          Alcotest.test_case "identity across F(m,r)" `Quick test_generator_identity_various_fm;
          qt prop_generator_identity_random_points;
          qt prop_lavin_points_conv1d_identity;
          Alcotest.test_case "rejects bad input" `Quick test_generator_rejects_bad_input;
          Alcotest.test_case "rejects even r" `Quick test_generator_rejects_even_r;
          Alcotest.test_case "lavin points" `Quick test_lavin_points;
        ] );
      ( "gconv",
        [
          Alcotest.test_case "matches direct" `Quick test_gconv_matches_direct;
          Alcotest.test_case "macs reduction" `Quick test_gconv_macs_reduction;
          qt prop_gconv_f45_identity;
        ] );
      ( "conv1d",
        [
          Alcotest.test_case "matches reference" `Quick test_conv1d_matches_reference;
          qt prop_conv1d_identity;
          Alcotest.test_case "macs reduction" `Quick test_conv1d_macs_reduction;
        ] );
      ( "strided",
        [
          Alcotest.test_case "matches direct" `Quick test_strided_decomposition_matches_direct;
          qt prop_strided_decomposition;
          Alcotest.test_case "1.8x reduction" `Quick test_strided_macs_reduction_1_8;
          Alcotest.test_case "rejects odd dims" `Quick test_strided_rejects_bad_input;
        ] );
      ( "pinv",
        [
          Alcotest.test_case "left inverse" `Quick test_pinv_left_inverse;
          Alcotest.test_case "roundtrip" `Quick test_pinv_roundtrip;
        ] );
    ]
