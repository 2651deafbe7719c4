(* Tests for the dataset, the QAT models, the trainer, and the model-zoo
   layer inventories. *)

open Twq_nn
module Synth = Twq_dataset.Synth_images
module Tensor = Twq_tensor.Tensor
module Rng = Twq_util.Rng
module Transform = Twq_winograd.Transform

(* ---------------------------------------------------------------- dataset *)

let small_spec =
  { Synth.default_spec with Synth.n_train = 64; n_valid = 32; n_test = 32 }

let test_dataset_shapes () =
  let d = Synth.generate ~spec:small_spec ~seed:1 () in
  Alcotest.(check int) "train size" 64 (Array.length d.Synth.train);
  Alcotest.(check int) "valid size" 32 (Array.length d.Synth.valid);
  Alcotest.(check int) "test size" 32 (Array.length d.Synth.test);
  let s = d.Synth.train.(0) in
  Alcotest.(check (array int)) "image shape" [| 3; 12; 12 |] s.Synth.image.Tensor.shape;
  Alcotest.(check bool) "label in range" true (s.Synth.label >= 0 && s.Synth.label < 4)

let test_dataset_deterministic () =
  let a = Synth.generate ~spec:small_spec ~seed:5 () in
  let b = Synth.generate ~spec:small_spec ~seed:5 () in
  Alcotest.(check bool)
    "same data" true
    (Tensor.approx_equal a.Synth.train.(0).Synth.image b.Synth.train.(0).Synth.image);
  let c = Synth.generate ~spec:small_spec ~seed:6 () in
  Alcotest.(check bool)
    "different seed differs" false
    (Tensor.approx_equal a.Synth.train.(0).Synth.image c.Synth.train.(0).Synth.image)

let test_dataset_label_balance () =
  let d = Synth.generate ~spec:small_spec ~seed:2 () in
  let counts = Array.make 4 0 in
  Array.iter (fun s -> counts.(s.Synth.label) <- counts.(s.Synth.label) + 1) d.Synth.train;
  Array.iter (fun c -> Alcotest.(check int) "balanced" 16 c) counts

let test_batches () =
  let d = Synth.generate ~spec:small_spec ~seed:3 () in
  let rng = Rng.create 1 in
  let batches = Synth.shuffled_batches ~rng ~batch_size:16 d.Synth.train in
  Alcotest.(check int) "n batches" 4 (List.length batches);
  let x, labels = List.hd batches in
  Alcotest.(check (array int)) "batch shape" [| 16; 3; 12; 12 |] x.Tensor.shape;
  Alcotest.(check int) "labels" 16 (Array.length labels)

(* ----------------------------------------------------------------- model *)

let test_model_forward_shapes () =
  let cfg = Qat_model.default_config Qat_model.Fp32 in
  let model = Qat_model.create cfg ~seed:1 in
  let x = Tensor.zeros [| 2; 3; 12; 12 |] in
  let logits = Trainer.logits model x in
  Alcotest.(check (array int)) "logits shape" [| 2; 4 |] logits.Tensor.shape

let test_model_param_count_positive () =
  let model = Qat_model.create (Qat_model.default_config Qat_model.Fp32) ~seed:1 in
  Alcotest.(check bool) "has params" true (Qat_model.num_parameters model > 1000)

let test_model_resnet_arch () =
  let cfg =
    { (Qat_model.default_config Qat_model.Fp32) with
      Qat_model.arch = Qat_model.Resnet_mini { width = 8; blocks = 2 } }
  in
  let model = Qat_model.create cfg ~seed:1 in
  let logits = Trainer.logits model (Tensor.zeros [| 1; 3; 12; 12 |]) in
  Alcotest.(check (array int)) "resnet logits" [| 1; 4 |] logits.Tensor.shape

let test_scale_params_only_for_learned () =
  let wa learned =
    Qat_model.Wa
      { Qat_model.variant = Transform.F4; wino_bits = 8; tapwise = true;
        pow2 = true; learned }
  in
  let m_static = Qat_model.create (Qat_model.default_config (wa false)) ~seed:1 in
  let m_learned = Qat_model.create (Qat_model.default_config (wa true)) ~seed:1 in
  Alcotest.(check int) "static has none" 0 (List.length (Qat_model.scale_params m_static));
  Alcotest.(check bool)
    "learned has some" true
    (List.length (Qat_model.scale_params m_learned) > 0)

let quick_opts = { Trainer.default_options with Trainer.epochs = 3; batch_size = 16 }

let accuracy_of mode =
  let d = Synth.generate ~spec:small_spec ~seed:11 () in
  let model = Qat_model.create (Qat_model.default_config mode) ~seed:2 in
  let h = Trainer.train model d quick_opts in
  Alcotest.(check bool)
    "loss finite" true
    (Array.for_all Float.is_finite h.Trainer.train_loss);
  Trainer.evaluate model d.Synth.test

let test_topk_at_least_top1 () =
  let d = Synth.generate ~spec:small_spec ~seed:13 () in
  let model = Qat_model.create (Qat_model.default_config Qat_model.Fp32) ~seed:2 in
  let _ = Trainer.train model d { quick_opts with Trainer.epochs = 1 } in
  let top1 = Trainer.evaluate model d.Synth.test in
  let top3 = Trainer.evaluate_topk ~k:3 model d.Synth.test in
  Alcotest.(check bool) (Printf.sprintf "top3 %.2f >= top1 %.2f" top3 top1) true
    (top3 >= top1);
  let top_all = Trainer.evaluate_topk ~k:4 model d.Synth.test in
  Alcotest.(check (float 1e-9)) "top-#classes is 1" 1.0 top_all

let test_train_fp32_learns () =
  let acc = accuracy_of Qat_model.Fp32 in
  Alcotest.(check bool) (Printf.sprintf "fp32 acc %.2f > 0.5" acc) true (acc > 0.5)

let test_train_int8_learns () =
  let acc = accuracy_of Qat_model.Int8_spatial in
  Alcotest.(check bool) (Printf.sprintf "int8 acc %.2f > 0.5" acc) true (acc > 0.5)

let test_train_wa_f4_tapwise_learns () =
  let acc =
    accuracy_of
      (Qat_model.Wa
         { Qat_model.variant = Transform.F4; wino_bits = 8; tapwise = true;
           pow2 = true; learned = false })
  in
  Alcotest.(check bool) (Printf.sprintf "wa acc %.2f > 0.5" acc) true (acc > 0.5)

let test_train_wa_learned_scales_runs () =
  let acc =
    accuracy_of
      (Qat_model.Wa
         { Qat_model.variant = Transform.F4; wino_bits = 8; tapwise = true;
           pow2 = true; learned = true })
  in
  Alcotest.(check bool) (Printf.sprintf "learned acc %.2f > 0.4" acc) true (acc > 0.4)

let test_train_with_kd_runs () =
  let d = Synth.generate ~spec:small_spec ~seed:12 () in
  let teacher = Qat_model.create (Qat_model.default_config Qat_model.Fp32) ~seed:3 in
  let _ = Trainer.train teacher d quick_opts in
  let student_cfg =
    Qat_model.default_config
      (Qat_model.Wa
         { Qat_model.variant = Transform.F4; wino_bits = 8; tapwise = true;
           pow2 = true; learned = false })
  in
  let student = Qat_model.create student_cfg ~seed:4 in
  let opts =
    { quick_opts with
      Trainer.kd = Some { Trainer.teacher; temperature = 4.0; alpha = 0.5 } }
  in
  let h = Trainer.train student d opts in
  Alcotest.(check bool)
    "kd loss finite" true
    (Array.for_all Float.is_finite h.Trainer.train_loss);
  let acc = Trainer.evaluate student d.Synth.test in
  Alcotest.(check bool) (Printf.sprintf "kd acc %.2f > 0.4" acc) true (acc > 0.4)

(* ---------------------------------------------------------------- deploy *)

let test_deploy_int8_close_to_fake_quant () =
  let d = Synth.generate ~spec:small_spec ~seed:77 () in
  let mode =
    Qat_model.Wa
      { Qat_model.variant = Transform.F4; wino_bits = 8; tapwise = true;
        pow2 = true; learned = false }
  in
  let model = Qat_model.create (Qat_model.default_config mode) ~seed:8 in
  let _ = Trainer.train model d quick_opts in
  let fq = Trainer.evaluate model d.Synth.test in
  let cal, _ = Synth.batch d d.Synth.train (Array.init 16 Fun.id) in
  let net = Deploy.export model ~calibration:cal () in
  let int_acc = Int_graph.accuracy net d.Synth.test in
  Alcotest.(check int) "4 conv layers" 4 (Int_graph.winograd_layer_count net);
  Alcotest.(check bool)
    (Printf.sprintf "int8 %.2f within 0.15 of fake-quant %.2f" int_acc fq)
    true
    (Float.abs (int_acc -. fq) <= 0.15)

let test_deploy_scales_chain () =
  let d = Synth.generate ~spec:small_spec ~seed:78 () in
  let model = Qat_model.create (Qat_model.default_config Qat_model.Fp32) ~seed:9 in
  let _ = Trainer.train model d { quick_opts with Trainer.epochs = 1 } in
  let cal, _ = Synth.batch d d.Synth.train (Array.init 8 Fun.id) in
  let net = Deploy.export model ~calibration:cal () in
  (* Consecutive conv layers must agree on the inter-layer scale. *)
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check (float 1e-12))
          "s_y(n) = s_x(n+1)" a.Twq_quant.Tapwise.s_y b.Twq_quant.Tapwise.s_x;
        check rest
    | _ -> ()
  in
  check (Int_graph.wino_layers net)

let test_deploy_rejects_resnet () =
  let cfg =
    { (Qat_model.default_config Qat_model.Fp32) with
      Qat_model.arch = Qat_model.Resnet_mini { width = 8; blocks = 1 } }
  in
  let model = Qat_model.create cfg ~seed:1 in
  Alcotest.check_raises "resnet rejected"
    (Invalid_argument "Deploy.export: only Vgg_mini architectures are exportable")
    (fun () -> ignore (Deploy.export model ~calibration:(Tensor.zeros [| 1; 3; 12; 12 |]) ()))

let test_deploy_save_load_roundtrip () =
  let d = Synth.generate ~spec:small_spec ~seed:79 () in
  let model = Qat_model.create (Qat_model.default_config Qat_model.Fp32) ~seed:10 in
  let _ = Trainer.train model d { quick_opts with Trainer.epochs = 1 } in
  let cal, _ = Synth.batch d d.Synth.train (Array.init 8 Fun.id) in
  let net = Deploy.export model ~calibration:cal () in
  let reloaded = Int_graph.of_string (Int_graph.to_string net) in
  (* Bit-identical logits after round-trip. *)
  let x, _ = Synth.batch d d.Synth.test (Array.init 4 Fun.id) in
  Alcotest.(check bool) "same logits" true
    (Tensor.approx_equal ~tol:0.0 (Int_graph.run net x) (Int_graph.run reloaded x));
  let path = Filename.temp_file "twq" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Int_graph.save net path;
      let from_file = Int_graph.load path in
      Alcotest.(check bool) "file round-trip" true
        (Tensor.approx_equal ~tol:0.0 (Int_graph.run net x) (Int_graph.run from_file x)))

(* ------------------------------------------------------------------- zoo *)

let test_zoo_nonempty_and_sane () =
  List.iter
    (fun (name, build) ->
      let n = build ?resolution:None () in
      Alcotest.(check bool) (name ^ " has layers") true (List.length n.Zoo.layers > 0);
      List.iter
        (fun l ->
          Alcotest.(check bool) (name ^ " dims positive") true
            (l.Zoo.cin > 0 && l.Zoo.cout > 0 && l.Zoo.out_h > 0 && l.Zoo.out_w > 0
            && l.Zoo.repeat > 0))
        n.Zoo.layers)
    Zoo.all

let test_zoo_macs_resnet50_about_4g () =
  (* Torchvision ResNet-50 @224 is ≈ 4.1 GMACs. *)
  let n = Zoo.resnet50 () in
  let g = Zoo.total_macs ~batch:1 n /. 1e9 in
  Alcotest.(check bool) (Printf.sprintf "resnet50 %.2f GMACs in [3.5;4.5]" g) true
    (g > 3.5 && g < 4.5)

let test_zoo_macs_resnet34_about_3_6g () =
  let n = Zoo.resnet34 () in
  let g = Zoo.total_macs ~batch:1 n /. 1e9 in
  Alcotest.(check bool) (Printf.sprintf "resnet34 %.2f GMACs in [3.0;4.2]" g) true
    (g > 3.0 && g < 4.2)

let test_zoo_winograd_fraction_ordering () =
  (* The paper: UNet/YOLO/SSD are 3×3-dominated; ResNet-50 is 1×1-heavy. *)
  let frac net = Zoo.winograd_macs_fraction ~batch:1 net in
  let unet = frac (Zoo.unet ()) in
  let r50 = frac (Zoo.resnet50 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "unet %.2f > resnet50 %.2f" unet r50)
    true (unet > r50);
  Alcotest.(check bool) "unet mostly 3x3" true (unet > 0.9);
  Alcotest.(check bool) "resnet50 below 60%" true (r50 < 0.6)

let test_zoo_resolution_scales () =
  let a = Zoo.yolov3 ~resolution:256 () in
  let b = Zoo.yolov3 ~resolution:416 () in
  Alcotest.(check bool)
    "macs grow with resolution" true
    (Zoo.total_macs ~batch:1 b > Zoo.total_macs ~batch:1 a)

let test_zoo_eligibility () =
  Alcotest.(check bool) "3x3 s1" true
    (Zoo.winograd_eligible
       { Zoo.name = "x"; cin = 1; cout = 1; out_h = 8; out_w = 8; k = 3; stride = 1; repeat = 1 });
  Alcotest.(check bool) "1x1 not" false
    (Zoo.winograd_eligible
       { Zoo.name = "x"; cin = 1; cout = 1; out_h = 8; out_w = 8; k = 1; stride = 1; repeat = 1 });
  Alcotest.(check bool) "3x3 s2 not" false
    (Zoo.winograd_eligible
       { Zoo.name = "x"; cin = 1; cout = 1; out_h = 8; out_w = 8; k = 3; stride = 2; repeat = 1 })

let () =
  Alcotest.run "twq_nn"
    [
      ( "dataset",
        [
          Alcotest.test_case "shapes" `Quick test_dataset_shapes;
          Alcotest.test_case "deterministic" `Quick test_dataset_deterministic;
          Alcotest.test_case "label balance" `Quick test_dataset_label_balance;
          Alcotest.test_case "batches" `Quick test_batches;
        ] );
      ( "model",
        [
          Alcotest.test_case "forward shapes" `Quick test_model_forward_shapes;
          Alcotest.test_case "param count" `Quick test_model_param_count_positive;
          Alcotest.test_case "resnet arch" `Quick test_model_resnet_arch;
          Alcotest.test_case "scale params" `Quick test_scale_params_only_for_learned;
        ] );
      ( "training",
        [
          Alcotest.test_case "topk" `Slow test_topk_at_least_top1;
          Alcotest.test_case "fp32 learns" `Slow test_train_fp32_learns;
          Alcotest.test_case "int8 learns" `Slow test_train_int8_learns;
          Alcotest.test_case "wa-f4 learns" `Slow test_train_wa_f4_tapwise_learns;
          Alcotest.test_case "learned scales run" `Slow test_train_wa_learned_scales_runs;
          Alcotest.test_case "kd runs" `Slow test_train_with_kd_runs;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "int8 close to fake-quant" `Slow test_deploy_int8_close_to_fake_quant;
          Alcotest.test_case "scales chain" `Slow test_deploy_scales_chain;
          Alcotest.test_case "rejects resnet" `Quick test_deploy_rejects_resnet;
          Alcotest.test_case "save/load roundtrip" `Slow test_deploy_save_load_roundtrip;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "sane" `Quick test_zoo_nonempty_and_sane;
          Alcotest.test_case "resnet50 macs" `Quick test_zoo_macs_resnet50_about_4g;
          Alcotest.test_case "resnet34 macs" `Quick test_zoo_macs_resnet34_about_3_6g;
          Alcotest.test_case "winograd fraction" `Quick test_zoo_winograd_fraction_ordering;
          Alcotest.test_case "resolution scaling" `Quick test_zoo_resolution_scales;
          Alcotest.test_case "eligibility" `Quick test_zoo_eligibility;
        ] );
    ]
