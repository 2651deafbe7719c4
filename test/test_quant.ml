(* Tests for the quantization substrate: scalar quantizer, calibration,
   the integer tap-wise Winograd pipeline (the paper's core algorithm), the
   int8 im2col baseline and the Fig.-4 error analysis. *)

open Twq_tensor
open Twq_quant
module Rng = Twq_util.Rng
module Transform = Twq_winograd.Transform

let tensor_loose = Alcotest.testable Tensor.pp (Tensor.approx_equal ~tol:1e-6)

(* ------------------------------------------------------------ quantizer *)

let test_qrange () =
  Alcotest.(check int) "qmax8" 127 (Quantizer.qmax ~bits:8);
  Alcotest.(check int) "qmin8" (-128) (Quantizer.qmin ~bits:8);
  Alcotest.(check int) "qmax10" 511 (Quantizer.qmax ~bits:10)

let test_scale_for () =
  Alcotest.(check (float 1e-12)) "128/128" 1.0 (Quantizer.scale_for ~bits:8 ~max_abs:128.0);
  Alcotest.(check bool) "zero max gives positive" true (Quantizer.scale_for ~bits:8 ~max_abs:0.0 > 0.0)

let test_quantize_clamp () =
  Alcotest.(check int) "clamps hi" 127 (Quantizer.quantize ~bits:8 ~scale:1.0 300.0);
  Alcotest.(check int) "clamps lo" (-128) (Quantizer.quantize ~bits:8 ~scale:1.0 (-300.0));
  Alcotest.(check int) "rounds" 3 (Quantizer.quantize ~bits:8 ~scale:1.0 2.5);
  Alcotest.(check int) "scaled" 25 (Quantizer.quantize ~bits:8 ~scale:0.1 2.51)

(* Saturation must happen in float: [int_of_float] of an out-of-range
   value is unspecified (on amd64 +inf and 1e19 read back as 0, and 5e18
   wraps negative). *)
let test_quantize_saturates () =
  let q = Quantizer.quantize ~bits:8 ~scale:1.0 in
  List.iter
    (fun (x, want) -> Alcotest.(check int) (Printf.sprintf "%h" x) want (q x))
    [
      (Float.infinity, 127); (5e18, 127); (1e19, 127); (Float.max_float, 127);
      (Float.neg_infinity, -128); (-5e18, -128); (-1e19, -128);
      (-.Float.max_float, -128); (Float.nan, 0); (127.49, 127); (127.5, 127);
      (-128.49, -128); (-128.5, -128);
    ]

(* [Quantizer.quantize] truncates and tests the fraction instead of
   calling [Float.round]; the reference rounds with [Float.round] and
   clamps in float (NaN to 0).  Cases: exact halves n + 0.5, their
   neighbours [Float.pred]/[Float.succ], random floats around the int8
   range, and out-of-range magnitudes up to infinity and NaN. *)
let prop_quantize_matches_round_clamp =
  let gen =
    QCheck.Gen.(
      let half = map (fun n -> float_of_int n +. 0.5) (int_range (-300) 300) in
      pair (int_range 2 16)
        (oneof
           [
             half;
             map Float.pred half;
             map Float.succ half;
             float_range (-300.0) 300.0;
             map (fun e -> Float.ldexp 1.0 e) (int_range 0 1023);
             map (fun e -> -.Float.ldexp 1.0 e) (int_range 0 1023);
             oneofl [ Float.infinity; Float.neg_infinity; Float.nan; 5e18; -5e18 ];
           ]))
  in
  let print (bits, x) = Printf.sprintf "bits=%d x=%h" bits x in
  QCheck.Test.make ~name:"quantize = Float.round then clamp" ~count:3000
    (QCheck.make ~print gen) (fun (bits, x) ->
      let hi = float_of_int (Quantizer.qmax ~bits)
      and lo = float_of_int (Quantizer.qmin ~bits) in
      let want =
        if Float.is_nan x then 0
        else int_of_float (Float.max lo (Float.min hi (Float.round x)))
      in
      Quantizer.quantize ~bits ~scale:1.0 x = want)

let test_pow2_round_up () =
  Alcotest.(check (float 1e-12)) "0.3 -> 0.5" 0.5 (Quantizer.pow2_round_up 0.3);
  Alcotest.(check (float 1e-12)) "exact stays" 0.25 (Quantizer.pow2_round_up 0.25);
  Alcotest.(check (float 1e-12)) "3 -> 4" 4.0 (Quantizer.pow2_round_up 3.0);
  Alcotest.(check int) "exp of 0.3" (-1) (Quantizer.pow2_exponent 0.3)

let prop_fake_quant_idempotent =
  QCheck.Test.make ~name:"fake_quant idempotent" ~count:500
    QCheck.(pair (float_range (-10.0) 10.0) (int_range 2 10))
    (fun (x, bits) ->
      let scale = 0.05 in
      let q = Quantizer.fake_quant ~bits ~scale x in
      Float.abs (Quantizer.fake_quant ~bits ~scale q -. q) < 1e-12)

let prop_quant_error_bounded =
  QCheck.Test.make ~name:"quantization error <= scale/2 inside range" ~count:500
    (QCheck.float_range (-0.9) 0.9) (fun x ->
      let scale = Quantizer.scale_for ~bits:8 ~max_abs:1.0 in
      let q = Quantizer.fake_quant ~bits:8 ~scale x in
      Float.abs (q -. x) <= (scale /. 2.0) +. 1e-12)

let test_affine_quantizer () =
  let p = Quantizer.affine_params ~bits:8 ~lo:0.0 ~hi:6.0 in
  (* Zero exactly representable. *)
  Alcotest.(check (float 1e-12)) "zero" 0.0
    (Quantizer.affine_dequantize p (Quantizer.affine_quantize p 0.0));
  (* Error bounded by scale/2 inside range. *)
  List.iter
    (fun x ->
      let q = Quantizer.affine_dequantize p (Quantizer.affine_quantize p x) in
      Alcotest.(check bool)
        (Printf.sprintf "err at %.2f" x)
        true
        (Float.abs (q -. x) <= (p.Quantizer.scale /. 2.0) +. 1e-12))
    [ 0.1; 1.7; 3.0; 5.99 ];
  (* One-sided range beats symmetric quantization on post-ReLU data. *)
  let sym_scale = Quantizer.scale_for ~bits:8 ~max_abs:6.0 in
  Alcotest.(check bool) "finer grid than symmetric" true
    (p.Quantizer.scale < sym_scale +. 1e-12);
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Quantizer.affine_params: lo > hi") (fun () ->
      ignore (Quantizer.affine_params ~bits:8 ~lo:2.0 ~hi:1.0))

(* ---------------------------------------------------------- calibration *)

let test_calibration_first_observation () =
  let o = Calibration.create () in
  Alcotest.(check bool) "not calibrated" false (Calibration.is_calibrated o);
  Calibration.observe o 5.0;
  Alcotest.(check (float 1e-12)) "first sets value" 5.0 (Calibration.value o)

let test_calibration_ema () =
  let o = Calibration.create ~momentum:0.9 () in
  Calibration.observe o 10.0;
  Calibration.observe o 20.0;
  Alcotest.(check (float 1e-9)) "ema" 11.0 (Calibration.value o)

let test_calibration_abs () =
  let o = Calibration.create () in
  Calibration.observe o (-7.0);
  Alcotest.(check (float 1e-12)) "abs" 7.0 (Calibration.value o)

let test_calibration_taps () =
  let taps = Calibration.create_taps ~t:4 () in
  let tile = Tensor.init [| 4; 4 |] (fun i -> float_of_int ((i.(0) * 4) + i.(1))) in
  Calibration.observe_tile taps tile;
  Calibration.observe_tile taps (Tensor.scale 0.5 tile);
  let values = Calibration.tap_values taps in
  (* Within one batch the max is kept, so tap (3,3) sees 15. *)
  Alcotest.(check (float 1e-12)) "tap max" 15.0 values.(3).(3);
  Alcotest.(check (float 1e-12)) "tap 0" 0.0 values.(0).(0)

let test_percentile_calibration () =
  (* Outlier-robust: one huge value barely moves the 99th percentile. *)
  let xs = Array.init 1000 (fun i -> float_of_int i /. 1000.0) in
  xs.(999) <- 1000.0;
  let p99 = Calibration.percentile_max ~percentile:99.0 xs in
  Alcotest.(check bool) (Printf.sprintf "p99 %.2f < 2" p99) true (p99 < 2.0);
  let p100 = Calibration.percentile_max ~percentile:100.0 xs in
  Alcotest.(check (float 1e-9)) "p100 is max" 1000.0 p100;
  Alcotest.check_raises "invalid percentile"
    (Invalid_argument "Calibration.percentile_max: percentile out of (0, 100]")
    (fun () -> ignore (Calibration.percentile_max ~percentile:0.0 xs))

(* -------------------------------------------------------------- tapwise *)

let make_case ~seed ~cin ~cout ~h ~w =
  let rng = Rng.create seed in
  let x = Tensor.rand_gaussian rng [| 1; cin; h; w |] ~mu:0.0 ~sigma:1.0 in
  let wt = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.3 in
  (x, wt)

let calibrated config ~seed ~cin ~cout ~h ~w =
  let x, wt = make_case ~seed ~cin ~cout ~h ~w in
  let layer = Tapwise.calibrate ~config ~w:wt ~sample_inputs:[ x ] ~pad:1 () in
  (layer, x, wt)

let test_tapwise_f4_low_noise () =
  let config = Tapwise.default_config Transform.F4 in
  let layer, x, wt = calibrated config ~seed:1 ~cin:4 ~cout:4 ~h:16 ~w:16 in
  let noise = Tapwise.quantization_noise layer x ~w:wt in
  Alcotest.(check bool)
    (Printf.sprintf "tap-wise F4 rms noise %.4f < 0.12" noise)
    true (noise < 0.15)

let test_tapwise_beats_single_scale_f4 () =
  (* The core claim: per-tap scales recover most of the accuracy that a
     single Winograd-domain scale destroys for F4. *)
  let tap = Tapwise.default_config Transform.F4 in
  let single = { tap with Tapwise.granularity = Tapwise.Single_scale } in
  let layer_t, x, wt = calibrated tap ~seed:2 ~cin:4 ~cout:4 ~h:16 ~w:16 in
  let layer_s, _, _ = calibrated single ~seed:2 ~cin:4 ~cout:4 ~h:16 ~w:16 in
  let n_t = Tapwise.quantization_noise layer_t x ~w:wt in
  let n_s = Tapwise.quantization_noise layer_s x ~w:wt in
  Alcotest.(check bool)
    (Printf.sprintf "tap %.4f < single %.4f" n_t n_s)
    true
    (n_t < n_s)

let test_tapwise_f2_low_noise () =
  let config = Tapwise.default_config Transform.F2 in
  let layer, x, wt = calibrated config ~seed:3 ~cin:3 ~cout:3 ~h:12 ~w:12 in
  let noise = Tapwise.quantization_noise layer x ~w:wt in
  Alcotest.(check bool) "F2 noise small" true (noise < 0.15)

let test_tapwise_more_wino_bits_help () =
  let c8 = Tapwise.default_config Transform.F4 in
  let c10 = { c8 with Tapwise.wino_bits = 10 } in
  let l8, x, wt = calibrated c8 ~seed:4 ~cin:4 ~cout:4 ~h:16 ~w:16 in
  let l10, _, _ = calibrated c10 ~seed:4 ~cin:4 ~cout:4 ~h:16 ~w:16 in
  let n8 = Tapwise.quantization_noise l8 x ~w:wt in
  let n10 = Tapwise.quantization_noise l10 x ~w:wt in
  Alcotest.(check bool)
    (Printf.sprintf "int8/10 (%.4f) <= int8 (%.4f)" n10 n8)
    true (n10 <= n8)

let test_tapwise_int_matches_float_ref () =
  let config = Tapwise.default_config Transform.F4 in
  let layer, x, _ = calibrated config ~seed:5 ~cin:3 ~cout:3 ~h:8 ~w:8 in
  let yi = Tapwise.forward layer x in
  let yf = Tapwise.forward_float_ref layer x in
  let max_diff = Tensor.max_abs (Tensor.sub yi yf) in
  Alcotest.(check bool)
    (Printf.sprintf "max diff %.6f <= 4 LSB (%.6f)" max_diff (4.0 *. layer.Tapwise.s_y))
    true
    (max_diff <= 4.0 *. layer.Tapwise.s_y)

let test_tapwise_shifts_sane () =
  let config = Tapwise.default_config Transform.F4 in
  let layer, _, _ = calibrated config ~seed:6 ~cin:8 ~cout:8 ~h:16 ~w:16 in
  let t = Transform.t Transform.F4 in
  for i = 0 to t - 1 do
    for j = 0 to t - 1 do
      let si = Tapwise.input_shift layer i j in
      let sw = Tapwise.weight_shift layer i j in
      (* Paper: feature maps shifted right 1..5 bits, weights 2..10; allow a
         margin since our weight ensembles are synthetic. *)
      Alcotest.(check bool) (Printf.sprintf "ifm shift %d in [-2;7]" si) true (si >= -2 && si <= 7);
      Alcotest.(check bool) (Printf.sprintf "wt shift %d in [-9;12]" sw) true (sw >= -9 && sw <= 12)
    done
  done

let test_tapwise_shift_spread_f4 () =
  (* Fig. 1's point: the per-tap dynamic ranges differ widely, so the
     learned shifts must differ across taps. *)
  let config = Tapwise.default_config Transform.F4 in
  let layer, _, _ = calibrated config ~seed:7 ~cin:8 ~cout:8 ~h:16 ~w:16 in
  let t = Transform.t Transform.F4 in
  let shifts = ref [] in
  for i = 0 to t - 1 do
    for j = 0 to t - 1 do
      shifts := Tapwise.weight_shift layer i j :: !shifts
    done
  done;
  let mn = List.fold_left min max_int !shifts in
  let mx = List.fold_left max min_int !shifts in
  Alcotest.(check bool)
    (Printf.sprintf "spread %d..%d >= 2 bits" mn mx)
    true
    (mx - mn >= 2)

let test_tapwise_pow2_scales_are_pow2_multiples () =
  let config = Tapwise.default_config Transform.F4 in
  let layer, _, _ = calibrated config ~seed:8 ~cin:2 ~cout:2 ~h:8 ~w:8 in
  let t = Transform.t Transform.F4 in
  for i = 0 to t - 1 do
    for j = 0 to t - 1 do
      let r = layer.Tapwise.s_b.(i).(j) /. layer.Tapwise.s_x in
      let k = Float.log2 r in
      Alcotest.(check bool) "ratio is 2^k" true (Float.abs (k -. Float.round k) < 1e-9)
    done
  done

(* [pack] folds s_b·s_g into one gather scale, exact only for a
   power-of-two s_g; it checks rather than assumes it. *)
let test_tapwise_pack_rejects_non_pow2_weight_scale () =
  let rejects what l =
    match Tapwise.pack l with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: non-pow2 s_g packed" what
  in
  let config = Tapwise.default_config Transform.F4 in
  let layer, _, _ = calibrated config ~seed:8 ~cin:2 ~cout:2 ~h:8 ~w:8 in
  ignore (Tapwise.pack layer);
  let s_g = Array.map Array.copy layer.Tapwise.s_g in
  s_g.(1).(2) <- 3.0 *. s_g.(1).(2);
  rejects "tap-wise" { layer with Tapwise.s_g };
  let config = { config with Tapwise.granularity = Tapwise.Channel_tap_wise } in
  let layer, _, _ = calibrated config ~seed:8 ~cin:2 ~cout:2 ~h:8 ~w:8 in
  ignore (Tapwise.pack layer);
  let grids = Option.get layer.Tapwise.s_g_channel in
  let grids = Array.map (Array.map Array.copy) grids in
  grids.(1).(0).(3) <- 1.5 *. grids.(1).(0).(3);
  rejects "channel-tap" { layer with Tapwise.s_g_channel = Some grids }

let prop_tapwise_noise_bounded =
  QCheck.Test.make ~name:"tap-wise F4 noise bounded over random layers" ~count:8
    (QCheck.int_range 0 10000) (fun seed ->
      let config = Tapwise.default_config Transform.F4 in
      let layer, x, wt = calibrated config ~seed ~cin:3 ~cout:3 ~h:12 ~w:12 in
      Tapwise.quantization_noise layer x ~w:wt < 0.2)

(* ---------------------------------------------------------------- qconv *)

let test_qconv_close_to_fp32 () =
  let x, wt = make_case ~seed:9 ~cin:4 ~cout:4 ~h:10 ~w:10 in
  let layer = Qconv.calibrate ~w:wt ~sample_inputs:[ x ] ~stride:1 ~pad:1 () in
  let y = Qconv.forward layer x in
  let ref_y = Ops.conv2d ~stride:1 ~pad:1 ~x ~w:wt () in
  let noise = sqrt (Tensor.sumsq (Tensor.sub y ref_y) /. Tensor.sumsq ref_y) in
  Alcotest.(check bool) (Printf.sprintf "noise %.4f < 0.05" noise) true (noise < 0.05)

let test_qconv_stride2 () =
  let x, wt = make_case ~seed:10 ~cin:2 ~cout:3 ~h:9 ~w:9 in
  let layer = Qconv.calibrate ~w:wt ~sample_inputs:[ x ] ~stride:2 ~pad:1 () in
  let y = Qconv.forward layer x in
  Alcotest.(check int) "out h" 5 (Tensor.dim y 2);
  let ref_y = Ops.conv2d ~stride:2 ~pad:1 ~x ~w:wt () in
  let noise = sqrt (Tensor.sumsq (Tensor.sub y ref_y) /. Tensor.sumsq ref_y) in
  Alcotest.(check bool) "stride-2 noise" true (noise < 0.05)

let test_qconv_int_float_consistent () =
  let x, wt = make_case ~seed:11 ~cin:2 ~cout:2 ~h:8 ~w:8 in
  let layer = Qconv.calibrate ~w:wt ~sample_inputs:[ x ] ~stride:1 ~pad:1 () in
  let x_int = Quantizer.quantize_tensor ~bits:8 ~scale:layer.Qconv.s_x x in
  let y_int = Qconv.forward_int layer x_int in
  let y = Qconv.forward layer x in
  Alcotest.check tensor_loose "int path == float wrapper"
    (Quantizer.dequantize_tensor ~scale:layer.Qconv.s_y y_int)
    y

let test_tapwise_channel_tap_granularity () =
  let base = Tapwise.default_config Transform.F4 in
  let ct = { base with Tapwise.granularity = Tapwise.Channel_tap_wise } in
  let layer_t, x, wt = calibrated base ~seed:40 ~cin:4 ~cout:8 ~h:12 ~w:12 in
  let layer_ct, _, _ = calibrated ct ~seed:40 ~cin:4 ~cout:8 ~h:12 ~w:12 in
  Alcotest.(check bool) "per-channel scales present" true
    (layer_ct.Tapwise.s_g_channel <> None);
  Alcotest.(check bool) "tap-wise has none" true (layer_t.Tapwise.s_g_channel = None);
  let n_t = Tapwise.quantization_noise layer_t x ~w:wt in
  let n_ct = Tapwise.quantization_noise layer_ct x ~w:wt in
  (* Sec. V-A4: the combined strategy is a refinement — never much worse. *)
  Alcotest.(check bool)
    (Printf.sprintf "chan+tap %.4f <= 1.1 * tap %.4f" n_ct n_t)
    true
    (n_ct <= (1.1 *. n_t) +. 1e-9);
  (* weight_scale dispatches per channel. *)
  let s0 = Tapwise.weight_scale layer_ct 0 5 5 in
  Alcotest.(check bool) "scale positive" true (s0 > 0.0)

(* -------------------------------------------------------------- pruning *)

let test_pruning_density_exact () =
  let rng = Rng.create 21 in
  let w = Itensor.init [| 4; 4; 6; 6 |] (fun _ -> Rng.int rng 255 - 127) in
  List.iter
    (fun d ->
      let pruned = Pruning.prune_quantized ~density:d w in
      let expected = Float.round (d *. float_of_int (Itensor.numel w)) in
      let kept =
        Array.fold_left (fun a v -> if v <> 0 then a + 1 else a) 0 pruned.Itensor.data
      in
      (* Pre-existing zeros only reduce the count further. *)
      Alcotest.(check bool)
        (Printf.sprintf "density %.2f: kept %d <= %.0f" d kept expected)
        true
        (float_of_int kept <= expected +. 0.5))
    [ 0.75; 0.5; 0.25; 0.1 ]

let test_pruning_keeps_largest () =
  let w = Itensor.of_array [| 6 |] [| 1; -9; 3; 7; -2; 5 |] in
  let pruned = Pruning.prune_quantized ~density:0.5 w in
  Alcotest.(check (array int)) "largest survive" [| 0; -9; 0; 7; 0; 5 |] pruned.Itensor.data

let test_pruning_full_density_identity () =
  let w = Itensor.of_array [| 3 |] [| 1; 0; -2 |] in
  let pruned = Pruning.prune_quantized ~density:1.0 w in
  Alcotest.(check (array int)) "unchanged" w.Itensor.data pruned.Itensor.data

let test_pruning_invalid_density () =
  let w = Itensor.of_array [| 2 |] [| 1; 2 |] in
  let invalid =
    Invalid_argument "Pruning.prune_quantized: density must be in (0, 1]"
  in
  Alcotest.check_raises "zero" invalid (fun () ->
      ignore (Pruning.prune_quantized ~density:0.0 w));
  Alcotest.check_raises "negative" invalid (fun () ->
      ignore (Pruning.prune_quantized ~density:(-0.5) w));
  Alcotest.check_raises "above one" invalid (fun () ->
      ignore (Pruning.prune_quantized ~density:1.5 w))

let test_pruning_tie_budget_exact () =
  (* Every magnitude identical: the threshold is a pure tie, and the
     tie budget must land the kept count exactly on round(d·n), chosen
     in index order. *)
  let n = 10 in
  let w = Itensor.init [| n |] (fun _ -> 5) in
  List.iter
    (fun d ->
      let pruned = Pruning.prune_quantized ~density:d w in
      let kept =
        Array.fold_left
          (fun a v -> if v <> 0 then a + 1 else a)
          0 pruned.Itensor.data
      in
      let expected = int_of_float (Float.round (d *. float_of_int n)) in
      Alcotest.(check int) (Printf.sprintf "density %.2f" d) expected kept;
      (* Index-order tie resolution: the survivors are a prefix. *)
      Array.iteri
        (fun i v ->
          Alcotest.(check int)
            (Printf.sprintf "slot %d" i)
            (if i < expected then 5 else 0)
            v)
        pruned.Itensor.data)
    [ 0.3; 0.5; 0.75 ]

let test_pruning_idempotent () =
  let rng = Rng.create 22 in
  let w = Itensor.init [| 3; 5; 6; 6 |] (fun _ -> Rng.int rng 255 - 127) in
  List.iter
    (fun d ->
      let once = Pruning.prune_quantized ~density:d w in
      let twice = Pruning.prune_quantized ~density:d once in
      Alcotest.(check (array int))
        (Printf.sprintf "density %.2f" d)
        once.Itensor.data twice.Itensor.data)
    [ 0.8; 0.5; 0.2 ]

let test_pruning_density_macs_consistent () =
  let config = Tapwise.default_config Transform.F4 in
  let layer, _, _ = calibrated config ~seed:31 ~cin:4 ~cout:4 ~h:12 ~w:12 in
  List.iter
    (fun d ->
      let pl = Pruning.prune_layer layer ~density:d in
      let measured = Pruning.density pl.Tapwise.wq in
      let macs = Pruning.effective_macs_fraction pl in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "macs fraction = density at %.2f" d)
        measured macs;
      (* The realized density can exceed the request only by the
         rounding of the kept count (half an element); pre-existing
         quantization zeros can push it arbitrarily lower. *)
      let slack = 0.5 /. float_of_int (Itensor.numel pl.Tapwise.wq) in
      Alcotest.(check bool)
        (Printf.sprintf "measured %.4f <= requested %.2f (+rounding)" measured d)
        true
        (measured <= d +. slack +. 1e-9))
    [ 1.0; 0.5; 0.3 ]

let test_pruning_layer_noise_monotone () =
  let config = Tapwise.default_config Transform.F4 in
  let layer, x, wt = calibrated config ~seed:30 ~cin:4 ~cout:4 ~h:12 ~w:12 in
  let noise d =
    Tapwise.quantization_noise (Pruning.prune_layer layer ~density:d) x ~w:wt
  in
  (* More pruning, more noise (weakly). *)
  Alcotest.(check bool) "1.0 <= 0.5" true (noise 1.0 <= noise 0.5 +. 1e-9);
  Alcotest.(check bool) "0.5 <= 0.2" true (noise 0.5 <= noise 0.2 +. 1e-9)

let test_qconv_per_channel_better () =
  (* Weights with strongly different per-channel magnitudes: channel-wise
     scales recover accuracy (Sec. V-A4: 1.7x in the paper). *)
  let rng = Rng.create 71 in
  let x = Tensor.rand_gaussian rng [| 1; 4; 10; 10 |] ~mu:0.0 ~sigma:1.0 in
  let wt =
    Tensor.init [| 6; 4; 3; 3 |] (fun idx ->
        let sigma = 0.02 +. (0.3 *. float_of_int idx.(0) /. 5.0) in
        Rng.gaussian rng ~mu:0.0 ~sigma)
  in
  let noise per_channel =
    let l = Qconv.calibrate ~per_channel ~w:wt ~sample_inputs:[ x ] ~stride:1 ~pad:1 () in
    let y = Qconv.forward l x in
    let r = Ops.conv2d ~stride:1 ~pad:1 ~x ~w:wt () in
    sqrt (Tensor.sumsq (Tensor.sub y r) /. Tensor.sumsq r)
  in
  let n_layer = noise false and n_chan = noise true in
  Alcotest.(check bool)
    (Printf.sprintf "per-channel %.4f <= layer %.4f" n_chan n_layer)
    true (n_chan <= n_layer +. 1e-9)

let test_qconv_per_channel_serialization () =
  let rng = Rng.create 72 in
  let x = Tensor.rand_gaussian rng [| 1; 2; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
  let wt = Tensor.rand_gaussian rng [| 3; 2; 3; 3 |] ~mu:0.0 ~sigma:0.3 in
  let l = Qconv.calibrate ~per_channel:true ~w:wt ~sample_inputs:[ x ] ~stride:1 ~pad:1 () in
  let reloaded = Serialize.qconv_of_string (Serialize.qconv_to_string l) in
  Alcotest.(check bool) "per-channel present" true (reloaded.Qconv.s_w_channel <> None);
  let xi = Quantizer.quantize_tensor ~bits:8 ~scale:l.Qconv.s_x x in
  Alcotest.(check bool) "same int outputs" true
    (Itensor.equal (Qconv.forward_int l xi) (Qconv.forward_int reloaded xi))

(* ------------------------------------------------------------ serialize *)

let test_serialize_roundtrip_exact () =
  let config = Tapwise.default_config Transform.F4 in
  let layer, x, _ = calibrated config ~seed:60 ~cin:3 ~cout:4 ~h:10 ~w:10 in
  let reloaded = Serialize.layer_of_string (Serialize.layer_to_string layer) in
  (* Scales round-trip bit-exactly (hex float encoding). *)
  Alcotest.(check (float 0.0)) "s_x" layer.Tapwise.s_x reloaded.Tapwise.s_x;
  Alcotest.(check (float 0.0)) "s_y" layer.Tapwise.s_y reloaded.Tapwise.s_y;
  Alcotest.(check bool) "weights equal" true
    (Itensor.equal layer.Tapwise.wq reloaded.Tapwise.wq);
  (* Bit-identical integer inference after reload. *)
  let x_int = Quantizer.quantize_tensor ~bits:8 ~scale:layer.Tapwise.s_x x in
  Alcotest.(check bool) "same int outputs" true
    (Itensor.equal (Tapwise.forward_int layer x_int) (Tapwise.forward_int reloaded x_int))

let test_serialize_channel_tap_and_bias () =
  let rng = Rng.create 61 in
  let x = Tensor.rand_gaussian rng [| 1; 2; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
  let wt = Tensor.rand_gaussian rng [| 3; 2; 3; 3 |] ~mu:0.0 ~sigma:0.3 in
  let bias = Tensor.rand_gaussian rng [| 3 |] ~mu:0.0 ~sigma:0.1 in
  let config =
    { (Tapwise.default_config Transform.F4) with
      Tapwise.granularity = Tapwise.Channel_tap_wise }
  in
  let layer = Tapwise.calibrate ~config ~w:wt ~bias ~sample_inputs:[ x ] ~pad:1 () in
  let reloaded = Serialize.layer_of_string (Serialize.layer_to_string layer) in
  Alcotest.(check bool) "per-channel present" true
    (reloaded.Tapwise.s_g_channel <> None);
  Alcotest.(check bool) "bias present" true (reloaded.Tapwise.bias <> None);
  let x_int = Quantizer.quantize_tensor ~bits:8 ~scale:layer.Tapwise.s_x x in
  Alcotest.(check bool) "same outputs" true
    (Itensor.equal (Tapwise.forward_int layer x_int) (Tapwise.forward_int reloaded x_int))

let test_serialize_file_io () =
  let config = Tapwise.default_config Transform.F2 in
  let layer, _, _ = calibrated config ~seed:62 ~cin:2 ~cout:2 ~h:8 ~w:8 in
  let path = Filename.temp_file "twq" ".layer" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_layer path layer;
      let reloaded = Serialize.load_layer path in
      Alcotest.(check bool) "weights equal" true
        (Itensor.equal layer.Tapwise.wq reloaded.Tapwise.wq))

let test_serialize_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Serialize.layer_of_string "not a layer");
       false
     with Scanf.Scan_failure _ | Failure _ | End_of_file -> true)

(* ------------------------------------------------------- error analysis *)

let resnet_like_weights seed cout cin =
  (* Mixture of Gaussians with per-channel spread, mimicking trained conv
     filters. *)
  let rng = Rng.create seed in
  Tensor.init [| cout; cin; 3; 3 |] (fun idx ->
      let channel_sigma = 0.1 +. (0.4 *. float_of_int (idx.(0) mod 5) /. 5.0) in
      Rng.gaussian rng ~mu:0.0 ~sigma:channel_sigma)

let test_relative_error_basics () =
  Alcotest.(check (float 1e-12))
    "zero for exact" 0.0
    (Error_analysis.relative_error ~original:[| 1.0; -2.0 |] ~quantized:[| 1.0; -2.0 |]);
  Alcotest.(check (float 1e-12))
    "simple" 0.5
    (Error_analysis.relative_error ~original:[| 2.0 |] ~quantized:[| 1.0 |])

let test_quantize_unit_beats_naive_max () =
  let rng = Rng.create 12 in
  let values = Array.init 2000 (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let q, _gamma = Error_analysis.quantize_unit ~bits:8 values in
  let err_opt = Error_analysis.relative_error ~original:values ~quantized:q in
  (* Naive max-scaling for comparison. *)
  let s = Quantizer.scale_for ~bits:8 ~max_abs:(Twq_util.Stats.abs_max values) in
  let q_naive = Array.map (Quantizer.fake_quant ~bits:8 ~scale:s) values in
  let err_naive = Error_analysis.relative_error ~original:values ~quantized:q_naive in
  Alcotest.(check bool)
    (Printf.sprintf "optimized %.5f <= naive %.5f" err_opt err_naive)
    true (err_opt <= err_naive)

let test_spatial_channel_beats_layer () =
  let w = resnet_like_weights 13 20 16 in
  let e_layer = Error_analysis.spatial_error ~bits:8 ~strategy:Error_analysis.S_layer w in
  let e_chan = Error_analysis.spatial_error ~bits:8 ~strategy:Error_analysis.S_channel w in
  Alcotest.(check bool)
    (Printf.sprintf "channel %.5f <= layer %.5f" e_chan e_layer)
    true (e_chan <= e_layer)

let test_winograd_tap_beats_layer_and_channel () =
  (* Fig. 4b: in the Winograd domain, tap-wise wins by a large margin while
     channel-wise barely helps. *)
  let w = resnet_like_weights 14 12 8 in
  let f4 = Transform.F4 in
  let e_layer = Error_analysis.winograd_error ~bits:8 ~variant:f4 ~strategy:Error_analysis.W_layer w in
  let e_chan = Error_analysis.winograd_error ~bits:8 ~variant:f4 ~strategy:Error_analysis.W_channel w in
  let e_tap = Error_analysis.winograd_error ~bits:8 ~variant:f4 ~strategy:Error_analysis.W_tap w in
  Alcotest.(check bool)
    (Printf.sprintf "tap %.5f < layer %.5f" e_tap e_layer)
    true (e_tap < e_layer);
  Alcotest.(check bool)
    (Printf.sprintf "tap %.5f < channel %.5f" e_tap e_chan)
    true (e_tap < e_chan)

let test_winograd_channel_tap_at_least_as_good () =
  let w = resnet_like_weights 15 10 8 in
  let f4 = Transform.F4 in
  let e_tap = Error_analysis.winograd_error ~bits:8 ~variant:f4 ~strategy:Error_analysis.W_tap w in
  let e_ct = Error_analysis.winograd_error ~bits:8 ~variant:f4 ~strategy:Error_analysis.W_channel_tap w in
  (* Finer granularity cannot be much worse; paper reports a further 1.06x
     improvement. *)
  Alcotest.(check bool)
    (Printf.sprintf "chan+tap %.5f <= 1.1 * tap %.5f" e_ct e_tap)
    true
    (e_ct <= 1.1 *. e_tap)

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) in
  Alcotest.run "twq_quant"
    [
      ( "quantizer",
        [
          Alcotest.test_case "ranges" `Quick test_qrange;
          Alcotest.test_case "scale_for" `Quick test_scale_for;
          Alcotest.test_case "quantize clamp" `Quick test_quantize_clamp;
          Alcotest.test_case "quantize saturates" `Quick test_quantize_saturates;
          qt prop_quantize_matches_round_clamp;
          Alcotest.test_case "pow2 round up" `Quick test_pow2_round_up;
          qt prop_fake_quant_idempotent;
          qt prop_quant_error_bounded;
          Alcotest.test_case "affine" `Quick test_affine_quantizer;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "first observation" `Quick test_calibration_first_observation;
          Alcotest.test_case "ema" `Quick test_calibration_ema;
          Alcotest.test_case "abs" `Quick test_calibration_abs;
          Alcotest.test_case "taps" `Quick test_calibration_taps;
          Alcotest.test_case "percentile" `Quick test_percentile_calibration;
        ] );
      ( "tapwise",
        [
          Alcotest.test_case "F4 low noise" `Quick test_tapwise_f4_low_noise;
          Alcotest.test_case "tap-wise beats single-scale" `Quick test_tapwise_beats_single_scale_f4;
          Alcotest.test_case "F2 low noise" `Quick test_tapwise_f2_low_noise;
          Alcotest.test_case "more wino bits help" `Quick test_tapwise_more_wino_bits_help;
          Alcotest.test_case "int matches float ref" `Quick test_tapwise_int_matches_float_ref;
          Alcotest.test_case "shifts sane" `Quick test_tapwise_shifts_sane;
          Alcotest.test_case "shift spread" `Quick test_tapwise_shift_spread_f4;
          Alcotest.test_case "pow2 ratios" `Quick test_tapwise_pow2_scales_are_pow2_multiples;
          Alcotest.test_case "pack rejects non-pow2 s_g" `Quick
            test_tapwise_pack_rejects_non_pow2_weight_scale;
          Alcotest.test_case "channel+tap granularity" `Quick test_tapwise_channel_tap_granularity;
          qt prop_tapwise_noise_bounded;
        ] );
      ( "qconv",
        [
          Alcotest.test_case "close to fp32" `Quick test_qconv_close_to_fp32;
          Alcotest.test_case "stride 2" `Quick test_qconv_stride2;
          Alcotest.test_case "int/float consistent" `Quick test_qconv_int_float_consistent;
          Alcotest.test_case "per-channel scales" `Quick test_qconv_per_channel_better;
          Alcotest.test_case "per-channel serialization" `Quick test_qconv_per_channel_serialization;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "density exact" `Quick test_pruning_density_exact;
          Alcotest.test_case "keeps largest" `Quick test_pruning_keeps_largest;
          Alcotest.test_case "full density" `Quick test_pruning_full_density_identity;
          Alcotest.test_case "invalid density" `Quick test_pruning_invalid_density;
          Alcotest.test_case "tie budget exact" `Quick test_pruning_tie_budget_exact;
          Alcotest.test_case "idempotent" `Quick test_pruning_idempotent;
          Alcotest.test_case "density = macs fraction" `Quick
            test_pruning_density_macs_consistent;
          Alcotest.test_case "noise monotone" `Quick test_pruning_layer_noise_monotone;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip exact" `Quick test_serialize_roundtrip_exact;
          Alcotest.test_case "channel-tap + bias" `Quick test_serialize_channel_tap_and_bias;
          Alcotest.test_case "file io" `Quick test_serialize_file_io;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
        ] );
      ( "error analysis",
        [
          Alcotest.test_case "relative error" `Quick test_relative_error_basics;
          Alcotest.test_case "optimal gamma beats naive" `Quick test_quantize_unit_beats_naive_max;
          Alcotest.test_case "spatial: channel <= layer" `Quick test_spatial_channel_beats_layer;
          Alcotest.test_case "winograd: tap wins" `Quick test_winograd_tap_beats_layer_and_channel;
          Alcotest.test_case "winograd: chan+tap" `Quick test_winograd_channel_tap_at_least_as_good;
        ] );
    ]
