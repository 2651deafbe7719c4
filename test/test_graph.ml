(* Tests for the graph IR, the compiler passes (BN folding, shape
   inference, operator selection) and the integer-graph quantizer with
   residual connections. *)

open Twq_nn
module Tensor = Twq_tensor.Tensor
module Shape = Twq_tensor.Shape
module Ops = Twq_tensor.Ops
module Rng = Twq_util.Rng
module Transform = Twq_winograd.Transform
module Sim = Twq_sim

let tensor_loose = Alcotest.testable Tensor.pp (Tensor.approx_equal ~tol:1e-6)

let rng () = Rng.create 2027

(* ------------------------------------------------------------------ ir *)

let tiny_graph () =
  let rng = rng () in
  let g = Graph.create () in
  let x = Graph.input g in
  let c =
    Graph.add g
      (Graph.Conv
         { w = Tensor.rand_gaussian rng [| 4; 3; 3; 3 |] ~mu:0.0 ~sigma:0.3;
           bias = None; stride = 1; pad = 1 })
      [ x ]
  in
  let r = Graph.add g Graph.Relu [ c ] in
  let gap = Graph.add g Graph.Global_avg_pool [ r ] in
  let fc =
    Graph.add g
      (Graph.Linear
         { w = Tensor.rand_gaussian rng [| 2; 4 |] ~mu:0.0 ~sigma:0.5;
           bias = Some (Tensor.zeros [| 2 |]) })
      [ gap ]
  in
  Graph.set_output g fc;
  g

let test_graph_run_shapes () =
  let g = tiny_graph () in
  let x = Tensor.rand_gaussian (rng ()) [| 2; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
  let y = Graph.run g x in
  Alcotest.(check (array int)) "logits" [| 2; 2 |] y.Tensor.shape;
  Alcotest.(check int) "conv count" 1 (Graph.conv_count g)

let test_graph_infer_shapes_match_run () =
  let g = Gmodels.resnet20 ~rng:(rng ()) ~width_div:4 () in
  let x = Tensor.rand_gaussian (rng ()) [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  let shapes = Graph.infer_shapes g ~input:x.Tensor.shape in
  let values = Graph.run_all g x in
  List.iter
    (fun ((id : Graph.id), s) ->
      Alcotest.(check (array int))
        "inferred = actual" s
        values.((id :> int)).Tensor.shape)
    shapes

let test_graph_arity_checks () =
  let g = Graph.create () in
  let x = Graph.input g in
  Alcotest.check_raises "add needs 2" (Invalid_argument "Graph.add: arity mismatch")
    (fun () -> ignore (Graph.add g Graph.Add [ x ]));
  Alcotest.check_raises "second input rejected"
    (Invalid_argument "Graph.input: input already defined") (fun () ->
      ignore (Graph.input g))

let test_graph_residual_add () =
  let g = Graph.create () in
  let x = Graph.input g in
  let r = Graph.add g Graph.Relu [ x ] in
  let s = Graph.add g Graph.Add [ r; x ] in
  Graph.set_output g s;
  let t = Tensor.of_array [| 1; 1; 1; 2 |] [| -1.0; 2.0 |] in
  Alcotest.check tensor_loose "relu(x)+x"
    (Tensor.of_array [| 1; 1; 1; 2 |] [| -1.0; 4.0 |])
    (Graph.run g t)

(* -------------------------------------------------------------- models *)

let test_models_run () =
  let x = Tensor.rand_gaussian (rng ()) [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  let r = Gmodels.resnet20 ~rng:(rng ()) ~classes:10 ~width_div:4 () in
  Alcotest.(check (array int)) "resnet20 logits" [| 1; 10 |] (Graph.run r x).Tensor.shape;
  Alcotest.(check int) "resnet20 convs" 21 (Graph.conv_count r);
  let v = Gmodels.vgg_nagadomi ~rng:(rng ()) ~classes:10 ~width_div:8 () in
  Alcotest.(check (array int)) "vgg logits" [| 1; 10 |] (Graph.run v x).Tensor.shape;
  Alcotest.(check int) "vgg convs" 8 (Graph.conv_count v)

let test_unet_mini_runs_and_quantizes () =
  let g = Gmodels.unet_mini ~rng:(rng ()) ~classes:2 () in
  let x = Tensor.rand_gaussian (rng ()) [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  Alcotest.(check (array int)) "logits" [| 1; 2 |] (Graph.run g x).Tensor.shape;
  let folded = Passes.fold_bn g in
  Alcotest.(check int) "bn folded" 0 (Passes.bn_count folded);
  let iq = Int_graph.quantize folded ~calibration:x () in
  (* All 10 convs are 3x3 stride-1 → all Winograd. *)
  Alcotest.(check int) "all wino" 10 (Int_graph.winograd_layer_count iq);
  let noise = Int_graph.noise_vs_float iq folded x in
  Alcotest.(check bool) (Printf.sprintf "noise %.3f < 0.5" noise) true (noise < 0.5)

let test_concat_shape_checks () =
  let g = Graph.create () in
  let x = Graph.input g in
  let p = Graph.add g (Graph.Max_pool { k = 2; stride = 2 }) [ x ] in
  let c = Graph.add g Graph.Concat [ x; p ] in
  Graph.set_output g c;
  Alcotest.(check bool) "mismatched concat rejected" true
    (try
       ignore (Graph.infer_shapes g ~input:[| 1; 2; 8; 8 |]);
       false
     with Invalid_argument _ -> true)

let test_yolo_mini_runs_and_quantizes () =
  let g = Gmodels.yolo_mini ~rng:(rng ()) ~classes:10 () in
  let x = Tensor.rand_gaussian (rng ()) [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  Alcotest.(check (array int)) "logits" [| 1; 10 |] (Graph.run g x).Tensor.shape;
  let folded = Passes.fold_bn g in
  let iq = Int_graph.quantize folded ~calibration:x () in
  (* 3x3s1 convs -> Winograd; 1x1 bottlenecks and stride-2 convs spatial. *)
  Alcotest.(check bool) "has wino layers" true (Int_graph.winograd_layer_count iq >= 4);
  Alcotest.(check bool) "has spatial layers" true (Int_graph.spatial_layer_count iq >= 4);
  let noise = Int_graph.noise_vs_float iq folded x in
  Alcotest.(check bool) (Printf.sprintf "noise %.3f < 0.6" noise) true (noise < 0.6);
  (* Serialization covers the leaky op. *)
  let reloaded = Int_graph.of_string (Int_graph.to_string iq) in
  Alcotest.(check bool) "leaky round-trip" true
    (Tensor.approx_equal ~tol:0.0 (Int_graph.run iq x) (Int_graph.run reloaded x))

let test_leaky_relu_semantics () =
  let g = Graph.create () in
  let x = Graph.input g in
  let l = Graph.add g (Graph.Leaky_relu 3) [ x ] in
  Graph.set_output g l;
  let t = Tensor.of_array [| 1; 1; 1; 2 |] [| -8.0; 4.0 |] in
  Alcotest.check tensor_loose "slope 1/8"
    (Tensor.of_array [| 1; 1; 1; 2 |] [| -1.0; 4.0 |])
    (Graph.run g t)

(* ------------------------------------------------------------- passes *)

let test_fold_bn_exact () =
  List.iter
    (fun g ->
      let x = Tensor.rand_gaussian (rng ()) [| 2; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
      let y = Graph.run g x in
      let folded = Passes.fold_bn g in
      Alcotest.(check int) "no bn left" 0 (Passes.bn_count folded);
      Alcotest.(check bool) "same conv count" true
        (Graph.conv_count folded = Graph.conv_count g);
      Alcotest.check tensor_loose "numerically identical" y (Graph.run folded x))
    [
      Gmodels.resnet20 ~rng:(rng ()) ~width_div:4 ();
      Gmodels.vgg_nagadomi ~rng:(rng ()) ~width_div:8 ();
    ]

(* ----------------------------------------------------------- int graph *)

let test_int_graph_resnet () =
  let g = Passes.fold_bn (Gmodels.resnet20 ~rng:(rng ()) ~width_div:4 ()) in
  let x = Tensor.rand_gaussian (rng ()) [| 2; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  let iq = Int_graph.quantize g ~calibration:x () in
  (* 17 three-by-three stride-1 convs map to Winograd; 2 stride-2 convs and
     2 1x1 projections stay spatial. *)
  Alcotest.(check int) "wino layers" 17 (Int_graph.winograd_layer_count iq);
  Alcotest.(check int) "spatial layers" 4 (Int_graph.spatial_layer_count iq);
  let noise = Int_graph.noise_vs_float iq g x in
  Alcotest.(check bool) (Printf.sprintf "noise %.3f < 0.5" noise) true (noise < 0.5);
  Alcotest.(check (array int)) "logit shape" [| 2; 10 |]
    (Int_graph.run iq x).Tensor.shape

let test_int_graph_rejects_bn () =
  let g = Gmodels.resnet20 ~rng:(rng ()) ~width_div:4 () in
  let x = Tensor.zeros [| 1; 3; 16; 16 |] in
  Alcotest.check_raises "bn rejected"
    (Invalid_argument "Int_graph.quantize: run Passes.fold_bn first") (fun () ->
      ignore (Int_graph.quantize g ~calibration:x ()))

(* Node inputs as [to_string] writes them ("node <arity> <scale> <ids>"),
   with the output id from the "meta" line. *)
let node_inputs iq =
  let lines = String.split_on_char '\n' (Int_graph.to_string iq) in
  let fields l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let out =
    match fields (List.find (String.starts_with ~prefix:"meta ") lines) with
    | [ _; _; out ] -> int_of_string out
    | _ -> Alcotest.fail "meta line"
  in
  let inputs =
    List.filter_map
      (fun l ->
        match fields l with
        | "node" :: _ :: _ :: ids -> Some (List.map int_of_string ids)
        | _ -> None)
      lines
  in
  (Array.of_list inputs, out)

(* [quantize] keeps only the nodes the head reaches (the GAP it absorbs
   is gone), and the plan still matches the oracle bit for bit. *)
let test_int_graph_only_live_nodes () =
  let x = Tensor.rand_gaussian (rng ()) [| 2; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  List.iter
    (fun (name, g) ->
      let iq = Int_graph.quantize (Passes.fold_bn g) ~calibration:x () in
      let inputs, out = node_inputs iq in
      let reach = Array.make (Array.length inputs) false in
      let rec mark i =
        if not reach.(i) then begin
          reach.(i) <- true;
          List.iter mark inputs.(i)
        end
      in
      mark out;
      Array.iteri
        (fun i r ->
          if not r then Alcotest.failf "%s: node %d is not reachable from %d" name i out)
        reach;
      Alcotest.(check bool) (name ^ ": run = run_ref") true
        (Tensor.approx_equal ~tol:0.0 (Int_graph.run iq x) (Int_graph.run_ref iq x)))
    [
      ("resnet20", Gmodels.resnet20 ~rng:(rng ()) ~width_div:4 ());
      ("vgg", Gmodels.vgg_nagadomi ~rng:(rng ()) ~width_div:8 ());
      ("unet-mini", Gmodels.unet_mini ~rng:(rng ()) ~classes:2 ());
      ("yolo-mini", Gmodels.yolo_mini ~rng:(rng ()) ~classes:10 ());
    ]

let test_int_graph_deterministic () =
  let g = Passes.fold_bn (Gmodels.vgg_nagadomi ~rng:(rng ()) ~width_div:8 ()) in
  let x = Tensor.rand_gaussian (rng ()) [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  let iq = Int_graph.quantize g ~calibration:x () in
  Alcotest.check tensor_loose "repeatable" (Int_graph.run iq x) (Int_graph.run iq x)

let test_int_graph_wino_bits_help () =
  let g = Passes.fold_bn (Gmodels.vgg_nagadomi ~rng:(rng ()) ~width_div:8 ()) in
  let x = Tensor.rand_gaussian (rng ()) [| 2; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  let n8 = Int_graph.noise_vs_float (Int_graph.quantize g ~calibration:x ()) g x in
  let n12 =
    Int_graph.noise_vs_float (Int_graph.quantize g ~calibration:x ~wino_bits:12 ()) g x
  in
  Alcotest.(check bool) (Printf.sprintf "12 bits (%.3f) <= 8 bits (%.3f)" n12 n8) true
    (n12 <= n8)

let test_int_graph_learned_scales_deploy () =
  (* Deploy of a WA-trained model uses its scale grids (smoke check via
     Deploy.export, which passes them to Tapwise.calibrate's override). *)
  let d =
    Twq_dataset.Synth_images.generate
      ~spec:{ Twq_dataset.Synth_images.default_spec with
              Twq_dataset.Synth_images.n_train = 64; n_valid = 16; n_test = 32 }
      ~seed:91 ()
  in
  let mode =
    Qat_model.Wa
      { Qat_model.variant = Transform.F4; wino_bits = 8; tapwise = true;
        pow2 = true; learned = true }
  in
  let model = Qat_model.create (Qat_model.default_config mode) ~seed:5 in
  let _ =
    Trainer.train model d { Trainer.default_options with Trainer.epochs = 2 }
  in
  (* Learned grids exist for every conv. *)
  List.iter
    (fun g -> Alcotest.(check bool) "grid present" true (g <> None))
    (Qat_model.learned_scale_grids model);
  let cal, _ =
    Twq_dataset.Synth_images.batch d d.Twq_dataset.Synth_images.train
      (Array.init 8 Fun.id)
  in
  let net = Deploy.export model ~calibration:cal () in
  let acc = Int_graph.accuracy net d.Twq_dataset.Synth_images.test in
  Alcotest.(check bool) (Printf.sprintf "acc %.2f sane" acc) true
    (acc >= 0.0 && acc <= 1.0)

let test_int_graph_serialization_roundtrip () =
  let g = Passes.fold_bn (Gmodels.resnet20 ~rng:(rng ()) ~width_div:4 ()) in
  let x = Tensor.rand_gaussian (rng ()) [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  let iq = Int_graph.quantize g ~calibration:x () in
  let reloaded = Int_graph.of_string (Int_graph.to_string iq) in
  Alcotest.(check bool) "bit-identical logits" true
    (Tensor.approx_equal ~tol:0.0 (Int_graph.run iq x) (Int_graph.run reloaded x));
  Alcotest.(check int) "wino count survives" (Int_graph.winograd_layer_count iq)
    (Int_graph.winograd_layer_count reloaded);
  let path = Filename.temp_file "twq" ".igraph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Int_graph.save iq path;
      let from_file = Int_graph.load path in
      Alcotest.(check bool) "file round-trip" true
        (Tensor.approx_equal ~tol:0.0 (Int_graph.run iq x) (Int_graph.run from_file x)))

let test_int_graph_unet_serialization () =
  (* Covers the Concat / Upsample / Max_pool encodings. *)
  let g = Passes.fold_bn (Gmodels.unet_mini ~rng:(rng ()) ()) in
  let x = Tensor.rand_gaussian (rng ()) [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
  let iq = Int_graph.quantize g ~calibration:x () in
  let reloaded = Int_graph.of_string (Int_graph.to_string iq) in
  Alcotest.(check bool) "unet round-trip" true
    (Tensor.approx_equal ~tol:0.0 (Int_graph.run iq x) (Int_graph.run reloaded x))

let test_qat_to_graph_bridge () =
  let d =
    Twq_dataset.Synth_images.generate
      ~spec:{ Twq_dataset.Synth_images.default_spec with
              Twq_dataset.Synth_images.n_train = 64; n_valid = 16; n_test = 32 }
      ~seed:93 ()
  in
  let model = Qat_model.create (Qat_model.default_config Qat_model.Fp32) ~seed:6 in
  let _ =
    Trainer.train model d
      { Trainer.default_options with Trainer.epochs = 1 }
  in
  let cal, _ =
    Twq_dataset.Synth_images.batch d d.Twq_dataset.Synth_images.train
      (Array.init 16 Fun.id)
  in
  let g = Qat_model.to_graph model ~calibration:cal in
  (* Same calibration batch -> identical BN statistics -> identical logits. *)
  let from_model = Trainer.logits model cal in
  let from_graph = Graph.run g cal in
  Alcotest.(check bool) "model == graph on the calibration batch" true
    (Tensor.approx_equal ~tol:1e-4 from_model from_graph);
  (* And the whole compiler pipeline applies to the trained model. *)
  let iq = Int_graph.quantize (Passes.fold_bn g) ~calibration:cal () in
  Alcotest.(check int) "4 wino layers" 4 (Int_graph.winograd_layer_count iq)

(* ----------------------------------------------------- operator select *)

let test_graph_compiler_selection () =
  let g = Passes.fold_bn (Gmodels.resnet20 ~rng:(rng ()) ()) in
  let choices =
    Sim.Graph_compiler.select Sim.Arch.default g ~input:[| 1; 3; 32; 32 |] ()
  in
  Alcotest.(check int) "one choice per conv" (Graph.conv_count g)
    (List.length choices);
  (* 1x1 projections cannot be Winograd. *)
  List.iter
    (fun c ->
      if c.Sim.Graph_compiler.spec.Zoo.k = 1 then
        Alcotest.(check bool) "1x1 on im2col" true
          (c.Sim.Graph_compiler.kind = Sim.Operator.Im2col);
      (* Chosen kernel never loses to im2col. *)
      Alcotest.(check bool) "never slower" true
        (c.Sim.Graph_compiler.cycles <= c.Sim.Graph_compiler.im2col_cycles +. 1e-9))
    choices;
  let su = Sim.Graph_compiler.speedup_vs_im2col choices in
  Alcotest.(check bool) (Printf.sprintf "net speedup %.2f >= 1" su) true (su >= 1.0)

(* --------------------------------------------------------------- fuzz *)

let random_graph seed =
  (* Random sequential CNN with occasional residual blocks; always valid. *)
  let rng = Rng.create seed in
  let g = Graph.create () in
  let x = Graph.input g in
  let chans = ref 3 in
  let node = ref x in
  let n_blocks = 1 + Rng.int rng 3 in
  for _ = 1 to n_blocks do
    let cout = 2 + Rng.int rng 6 in
    let c =
      Graph.add g
        (Graph.Conv { w = Tensor.rand_gaussian rng [| cout; !chans; 3; 3 |] ~mu:0.0 ~sigma:0.3;
                      bias = None; stride = 1; pad = 1 })
        [ !node ]
    in
    let b =
      Graph.add g
        (Graph.Bn
           { gamma = Tensor.rand_uniform rng [| cout |] ~lo:0.8 ~hi:1.2;
             beta = Tensor.rand_uniform rng [| cout |] ~lo:(-0.1) ~hi:0.1;
             mean = Tensor.rand_uniform rng [| cout |] ~lo:(-0.05) ~hi:0.05;
             var = Tensor.rand_uniform rng [| cout |] ~lo:0.9 ~hi:1.1 })
        [ c ]
    in
    let r = Graph.add g Graph.Relu [ b ] in
    chans := cout;
    node :=
      (* Sometimes add a same-shape residual conv block. *)
      if Rng.bool rng then begin
        let c2 =
          Graph.add g
            (Graph.Conv { w = Tensor.rand_gaussian rng [| cout; cout; 3; 3 |] ~mu:0.0 ~sigma:0.3;
                          bias = None; stride = 1; pad = 1 })
            [ r ]
        in
        Graph.add g Graph.Add [ c2; r ]
      end
      else r
  done;
  let gap = Graph.add g Graph.Global_avg_pool [ !node ] in
  let fc =
    Graph.add g
      (Graph.Linear
         { w = Tensor.rand_gaussian rng [| 3; !chans |] ~mu:0.0 ~sigma:0.5;
           bias = Some (Tensor.zeros [| 3 |]) })
      [ gap ]
  in
  Graph.set_output g fc;
  g

let prop_random_graph_pipeline =
  QCheck.Test.make ~name:"random graphs: fold-bn exact, int path runs" ~count:15
    (QCheck.int_range 0 100000) (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 1) in
      let x = Tensor.rand_gaussian rng [| 1; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
      let y = Graph.run g x in
      let folded = Passes.fold_bn g in
      let fold_exact = Tensor.approx_equal ~tol:1e-6 y (Graph.run folded x) in
      let iq = Int_graph.quantize folded ~calibration:x () in
      let y_int = Int_graph.run iq x in
      fold_exact
      && Twq_tensor.Shape.equal y.Tensor.shape y_int.Tensor.shape
      && Array.for_all Float.is_finite y_int.Tensor.data)

let () =
  Alcotest.run "twq_graph"
    [
      ( "ir",
        [
          Alcotest.test_case "run + shapes" `Quick test_graph_run_shapes;
          Alcotest.test_case "shape inference" `Quick test_graph_infer_shapes_match_run;
          Alcotest.test_case "arity checks" `Quick test_graph_arity_checks;
          Alcotest.test_case "residual add" `Quick test_graph_residual_add;
        ] );
      ( "models",
        [
          Alcotest.test_case "run" `Quick test_models_run;
          Alcotest.test_case "unet-mini concat/upsample" `Quick test_unet_mini_runs_and_quantizes;
          Alcotest.test_case "concat shape check" `Quick test_concat_shape_checks;
          Alcotest.test_case "yolo-mini leaky/residual" `Quick test_yolo_mini_runs_and_quantizes;
          Alcotest.test_case "leaky relu semantics" `Quick test_leaky_relu_semantics;
        ] );
      ("passes", [ Alcotest.test_case "fold bn exact" `Quick test_fold_bn_exact ]);
      ( "int graph",
        [
          Alcotest.test_case "resnet20" `Quick test_int_graph_resnet;
          Alcotest.test_case "rejects bn" `Quick test_int_graph_rejects_bn;
          Alcotest.test_case "deterministic" `Quick test_int_graph_deterministic;
          Alcotest.test_case "only live nodes" `Quick test_int_graph_only_live_nodes;
          Alcotest.test_case "wino bits help" `Quick test_int_graph_wino_bits_help;
        ] );
      ( "qat bridge",
        [ Alcotest.test_case "to_graph equivalence" `Slow test_qat_to_graph_bridge ] );
      ( "serialization",
        [
          Alcotest.test_case "resnet round-trip" `Quick test_int_graph_serialization_roundtrip;
          Alcotest.test_case "unet round-trip" `Quick test_int_graph_unet_serialization;
        ] );
      ( "deploy-learned",
        [ Alcotest.test_case "learned scales survive" `Slow test_int_graph_learned_scales_deploy ] );
      ( "compiler",
        [ Alcotest.test_case "operator selection" `Quick test_graph_compiler_selection ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20260705 |])
            prop_random_graph_pipeline ] );
    ]
