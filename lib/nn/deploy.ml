module Tensor = Twq_tensor.Tensor
module Ops = Twq_tensor.Ops
module Transform = Twq_winograd.Transform
module Tapwise = Twq_quant.Tapwise

(* Fold batch-norm statistics (from the calibration activations) into the
   conv weights and bias: y = γ(conv(x) − μ)/σ + β. *)
let fold_bn ~w ~gamma ~beta ~y_cal =
  let cout = Tensor.dim w 0 in
  let n = Tensor.dim y_cal 0 and h = Tensor.dim y_cal 2 and wd = Tensor.dim y_cal 3 in
  let count = float_of_int (n * h * wd) in
  let max_scale = ref 0.0 in
  let w' = Tensor.copy w and bias = Tensor.zeros [| cout |] in
  for co = 0 to cout - 1 do
    let sum = ref 0.0 and sq = ref 0.0 in
    for ni = 0 to n - 1 do
      for hi = 0 to h - 1 do
        for wi = 0 to wd - 1 do
          let v = Tensor.get4 y_cal ni co hi wi in
          sum := !sum +. v;
          sq := !sq +. (v *. v)
        done
      done
    done;
    let mu = !sum /. count in
    let var = Float.max 0.0 ((!sq /. count) -. (mu *. mu)) in
    let scale = gamma.Tensor.data.(co) /. sqrt (var +. 1e-5) in
    max_scale := Float.max !max_scale (Float.abs scale);
    let cin = Tensor.dim w 1 in
    for ci = 0 to cin - 1 do
      for ki = 0 to 2 do
        for kj = 0 to 2 do
          Tensor.set4 w' co ci ki kj (Tensor.get4 w co ci ki kj *. scale)
        done
      done
    done;
    bias.Tensor.data.(co) <- beta.Tensor.data.(co) -. (mu *. scale)
  done;
  (w', bias, !max_scale)

let float_avg_pool2 = Ops.avg_pool2d ~k:2 ~stride:2

let export model ~calibration ?(variant = Transform.F4) ?(wino_bits = 8) () =
  let cfg = Qat_model.config model in
  let stages =
    match cfg.Qat_model.arch with
    | Qat_model.Vgg_mini stages -> stages
    | Qat_model.Resnet_mini _ ->
        invalid_arg "Deploy.export: only Vgg_mini architectures are exportable"
  in
  let conv_params = Array.of_list (Qat_model.conv_bn_params model) in
  let scale_grids = Array.of_list (Qat_model.learned_scale_grids model) in
  let config =
    { (Tapwise.default_config variant) with Tapwise.wino_bits }
  in
  let x_cal = ref calibration in
  let prev_scale = ref None in
  let links = ref [] in
  let input_scale = ref 0.0 in
  List.iteri
    (fun stage_idx _ ->
      for k = 0 to 1 do
        let w, gamma, beta = conv_params.((2 * stage_idx) + k) in
        let y = Ops.conv2d ~stride:1 ~pad:1 ~x:!x_cal ~w () in
        let w', bias, bn_gain = fold_bn ~w ~gamma ~beta ~y_cal:y in
        (* BN folding rescales each output channel, which rescales the
           Winograd weight taps per channel; widen the learned weight-tap
           scales by the largest folded gain so no channel clips. *)
        let grids =
          Option.map
            (fun (sb, sg) ->
              (sb, Array.map (Array.map (fun s -> s *. Float.max 1.0 bn_gain)) sg))
            scale_grids.((2 * stage_idx) + k)
        in
        let layer =
          Tapwise.calibrate ~config ~w:w' ~bias ?input_scale:!prev_scale
            ?scale_grids:grids ~sample_inputs:[ !x_cal ] ~pad:1 ()
        in
        if !prev_scale = None then input_scale := layer.Tapwise.s_x;
        prev_scale := Some layer.Tapwise.s_y;
        links := Int_graph.Relu :: Int_graph.Wino layer :: !links;
        x_cal := Ops.relu (Ops.conv2d ~stride:1 ~pad:1 ~x:!x_cal ~w:w' ~b:bias ())
      done;
      links := Int_graph.Avg_pool2 :: !links;
      x_cal := float_avg_pool2 !x_cal)
    stages;
  let fc_w, fc_b = Qat_model.head_params model in
  Int_graph.chain ~input_scale:!input_scale (List.rev !links)
    ~w:(Tensor.copy fc_w) ~bias:(Some (Tensor.copy fc_b))

(* ------------------------------------------------ legacy net artifacts *)

module Serialize = Twq_quant.Serialize

(* The retired [twq-int8-net v1] format: scales, the float head, then
   the op chain (conv = an embedded tap-wise layer, relu, avg-pool2). *)
let of_string s =
  let r = Serialize.reader_of_string s in
  try
    Serialize.expect r "twq-int8-net";
    Serialize.expect r "v1";
    Serialize.expect r "scales";
    let input_scale = Serialize.read_float r in
    let output_scale = Serialize.read_float r in
    let fc_w = Serialize.read_tensor r in
    let fc_b = Serialize.read_tensor r in
    Serialize.expect r "ops";
    let n_ops = Serialize.read_int r in
    if n_ops < 0 || n_ops > String.length s then
      Serialize.parse_fail r "invalid op count";
    let links =
      List.init n_ops (fun _ ->
          match Serialize.read_word r with
          | "relu" -> Int_graph.Relu
          | "avg-pool2" -> Int_graph.Avg_pool2
          | "conv" ->
              Serialize.expect r "tapwise-layer";
              Serialize.expect r "v1";
              Int_graph.Wino (Serialize.read_layer_body r)
          | tag -> Serialize.parse_fail r ("unknown op " ^ tag))
    in
    (* The writer stored the last conv's s_y as the head's scale;
       [Int_graph.chain] derives it from the links. *)
    let chained =
      List.fold_left
        (fun s -> function Int_graph.Wino l -> l.Tapwise.s_y | _ -> s)
        input_scale links
    in
    if output_scale <> chained then
      Serialize.parse_fail r
        (Printf.sprintf "output scale %h is not the last conv's s_y %h"
           output_scale chained);
    Int_graph.chain ~input_scale links ~w:fc_w ~bias:(Some fc_b)
  with Serialize.Parse_failure e ->
    failwith ("Deploy.of_string: " ^ Serialize.error_to_string e)

