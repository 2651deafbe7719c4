(* Tests for the compiled execution planner: bit-identity of planned
   execution against the reference interpreters over random graphs
   (sequentially and with a worker pool), buffer-aliasing safety of the
   liveness-based arena assignment, epilogue fusion on real models, and
   the shape-keyed plan cache. *)

open Twq_nn
module Tensor = Twq_tensor.Tensor
module Shape = Twq_tensor.Shape
module Rng = Twq_util.Rng
module Parallel = Twq_util.Parallel
module Synth = Twq_dataset.Synth_images

let tensor_exact = Alcotest.testable Tensor.pp (Tensor.approx_equal ~tol:0.0)

(* ------------------------------------------------------ random graphs *)

(* Random CNN exercising every planner primitive: Winograd and spatial
   convs, residual adds, leaky ReLU, max/avg pooling, upsampling and
   channel concatenation, ending in the GAP→Linear head. *)
let random_graph seed =
  let rng = Rng.create seed in
  let g = Graph.create () in
  let x = Graph.input g in
  let node = ref x and chans = ref 3 and size = ref 8 in
  let conv ?cout ?(k = 3) ?(pad = 1) src cin =
    let cout = match cout with Some c -> c | None -> cin in
    Graph.add g
      (Graph.Conv
         { w = Tensor.rand_gaussian rng [| cout; cin; k; k |] ~mu:0.0 ~sigma:0.3;
           bias = None; stride = 1; pad })
      [ src ]
  in
  let n_ops = 3 + Rng.int rng 5 in
  for _ = 1 to n_ops do
    match Rng.int rng 8 with
    | 0 ->
        (* Winograd conv + ReLU — should fuse. *)
        let cout = 2 + Rng.int rng 6 in
        let c = conv ~cout !node !chans in
        chans := cout;
        node := Graph.add g Graph.Relu [ c ]
    | 1 ->
        (* 1x1 conv: the spatial int8 path. *)
        let cout = 2 + Rng.int rng 6 in
        node := conv ~cout ~k:1 ~pad:0 !node !chans;
        chans := cout
    | 2 ->
        (* Two-branch residual block + ReLU — add should fuse. *)
        let c1 = conv !node !chans in
        let c2 = conv !node !chans in
        let a = Graph.add g Graph.Add [ c1; c2 ] in
        node := Graph.add g Graph.Relu [ a ]
    | 3 -> node := Graph.add g (Graph.Leaky_relu (1 + Rng.int rng 3)) [ !node ]
    | 4 when !size >= 8 ->
        node := Graph.add g (Graph.Max_pool { k = 2; stride = 2 }) [ !node ];
        size := !size / 2
    | 5 when !size >= 8 ->
        node := Graph.add g (Graph.Avg_pool { k = 2; stride = 2 }) [ !node ];
        size := !size / 2
    | 6 when !size <= 8 ->
        node := Graph.add g (Graph.Upsample 2) [ !node ];
        size := !size * 2
    | 7 ->
        (* Concat of a Winograd and a spatial branch. *)
        let ca = 2 + Rng.int rng 3 and cb = 2 + Rng.int rng 3 in
        let c1 = conv ~cout:ca !node !chans in
        let c2 = conv ~cout:cb ~k:1 ~pad:0 !node !chans in
        node := Graph.add g Graph.Concat [ c1; c2 ];
        chans := ca + cb
    | _ -> node := Graph.add g Graph.Relu [ !node ]
  done;
  let gap = Graph.add g Graph.Global_avg_pool [ !node ] in
  let fc =
    Graph.add g
      (Graph.Linear
         { w = Tensor.rand_gaussian rng [| 3; !chans |] ~mu:0.0 ~sigma:0.5;
           bias = Some (Tensor.rand_gaussian rng [| 3 |] ~mu:0.0 ~sigma:0.1) })
      [ gap ]
  in
  Graph.set_output g fc;
  g

(* No two overlapping liveness intervals may share an arena buffer —
   otherwise a later node would scribble over a still-live activation. *)
let check_no_live_aliasing plan =
  let a = Array.of_list (Plan.assignments plan) in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y ->
          if i < j && x.Plan.slot = y.Plan.slot then
            Alcotest.(check bool)
              (Printf.sprintf
                 "buffer %d reused while live (nodes %d [%d,%d] / %d [%d,%d])"
                 x.Plan.slot x.Plan.node x.Plan.birth x.Plan.death y.Plan.node
                 y.Plan.birth y.Plan.death)
              true
              (x.Plan.death < y.Plan.birth || y.Plan.death < x.Plan.birth))
        a)
    a

let prop_planned_matches_interpreter =
  QCheck.Test.make ~name:"planned run == run_ref (random graphs)" ~count:25
    (QCheck.int_range 0 100000) (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 1) in
      let n = 1 + Rng.int rng 2 in
      let x = Tensor.rand_gaussian rng [| n; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
      let iq = Int_graph.quantize (Passes.fold_bn g) ~calibration:x () in
      let reference = Int_graph.run_ref iq x in
      let planned = Int_graph.run iq x in
      let planned_seq = Parallel.sequential (fun () -> Int_graph.run iq x) in
      Parallel.set_num_domains 4;
      let planned_par = Int_graph.run iq x in
      Parallel.clear_num_domains_override ();
      (match Int_graph.plans iq with
      | None -> Alcotest.fail "quantized graph has no plan cache"
      | Some c ->
          check_no_live_aliasing (Plan.plan c ~input_shape:x.Tensor.shape));
      Tensor.approx_equal ~tol:0.0 reference planned
      && Tensor.approx_equal ~tol:0.0 reference planned_seq
      && Tensor.approx_equal ~tol:0.0 reference planned_par)

(* ----------------------------------------------------------- resnet20 *)

let resnet20_graph ?(width_div = 4) ~seed () =
  let rng = Rng.create seed in
  let g = Passes.fold_bn (Gmodels.resnet20 ~rng ~width_div ()) in
  let cal = Tensor.rand_gaussian rng [| 2; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
  (Int_graph.quantize g ~calibration:cal (), cal)

let test_resnet20_bit_identical () =
  let iq, x = resnet20_graph ~seed:11 () in
  Alcotest.check tensor_exact "planned == run_ref"
    (Int_graph.run_ref iq x) (Int_graph.run iq x);
  Parallel.set_num_domains 4;
  let par = Int_graph.run iq x in
  Parallel.clear_num_domains_override ();
  Alcotest.check tensor_exact "planned (4 domains) == run_ref"
    (Int_graph.run_ref iq x) par

(* Full-width ResNet-20 (16/32/64 channels): the stride-2 3×3 convs and
   1×1 projections run the packed im2col GEMM, and the 32→64 3×3 one
   has K = 32·9 = 288, across the KC = 256 seam.  Batch 3 leaves output
   pixel counts that are not multiples of the GEMM row block. *)
let test_resnet20_full_width () =
  let iq, _ = resnet20_graph ~width_div:1 ~seed:15 () in
  List.iter
    (fun n ->
      let x =
        Tensor.rand_gaussian (Rng.create (200 + n)) [| n; 3; 8; 8 |] ~mu:0.0
          ~sigma:1.0
      in
      let reference = Int_graph.run_ref iq x in
      Alcotest.check tensor_exact
        (Printf.sprintf "batch %d planned == run_ref" n)
        reference (Int_graph.run iq x);
      Parallel.set_num_domains 4;
      let par = Int_graph.run iq x in
      Parallel.clear_num_domains_override ();
      Alcotest.check tensor_exact
        (Printf.sprintf "batch %d planned (4 domains) == run_ref" n)
        reference par)
    [ 1; 3; 8 ]

let test_resnet20_plan_shape () =
  let iq, x = resnet20_graph ~seed:12 () in
  let c = Option.get (Int_graph.plans iq) in
  ignore (Int_graph.run iq x);
  let p = Plan.plan c ~input_shape:x.Tensor.shape in
  check_no_live_aliasing p;
  (* ResNet fuses every conv+ReLU and residual add+ReLU pair. *)
  Alcotest.(check bool)
    (Printf.sprintf "fused epilogues %d > 10" (Plan.fused_epilogues p))
    true
    (Plan.fused_epilogues p > 10);
  (* Liveness reuse: the arena is far below the sum of all activations,
     with a handful of buffers covering the whole schedule. *)
  Alcotest.(check bool)
    (Printf.sprintf "arena %d < naive/2 (%d)" (Plan.arena_words p)
       (Plan.naive_words p))
    true
    (Plan.arena_words p * 2 < Plan.naive_words p);
  Alcotest.(check bool)
    (Printf.sprintf "buffers %d < steps %d" (Plan.num_buffers p)
       (Plan.num_steps p))
    true
    (Plan.num_buffers p < Plan.num_steps p)

let test_plan_cache_per_shape () =
  let iq, x = resnet20_graph ~seed:13 () in
  let c = Option.get (Int_graph.plans iq) in
  ignore (Int_graph.run iq x);
  ignore (Int_graph.run iq x);
  Alcotest.(check int) "one shape cached" 1 (List.length (Plan.cached_shapes c));
  let rng = Rng.create 99 in
  let x5 = Tensor.rand_gaussian rng [| 5; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
  Alcotest.check tensor_exact "batch-5 planned == run_ref"
    (Int_graph.run_ref iq x5) (Int_graph.run iq x5);
  Alcotest.(check int) "two shapes cached" 2 (List.length (Plan.cached_shapes c))

let test_serialized_graph_plans () =
  let iq, x = resnet20_graph ~seed:14 () in
  let reloaded = Int_graph.of_string (Int_graph.to_string iq) in
  Alcotest.(check bool) "reloaded graph has plans" true
    (Int_graph.plans reloaded <> None);
  Alcotest.check tensor_exact "reloaded planned == original run_ref"
    (Int_graph.run_ref iq x) (Int_graph.run reloaded x)

(* -------------------------------------------------------------- deploy *)

let test_deploy_planned_matches_ref () =
  let model =
    Qat_model.create (Qat_model.default_config Qat_model.Fp32) ~seed:21
  in
  let rng = Rng.create 22 in
  let cal = Tensor.rand_gaussian rng [| 2; 3; 12; 12 |] ~mu:0.0 ~sigma:1.0 in
  let net = Deploy.export model ~calibration:cal () in
  let x = Tensor.rand_gaussian rng [| 3; 3; 12; 12 |] ~mu:0.0 ~sigma:1.0 in
  Alcotest.check tensor_exact "planned forward == forward_ref"
    (Deploy.forward_ref net x) (Deploy.forward net x);
  Parallel.set_num_domains 4;
  let par = Deploy.forward net x in
  Parallel.clear_num_domains_override ();
  Alcotest.check tensor_exact "planned forward (4 domains) == forward_ref"
    (Deploy.forward_ref net x) par;
  let p = Plan.plan (Deploy.plans net) ~input_shape:x.Tensor.shape in
  check_no_live_aliasing p;
  Alcotest.(check bool)
    (Printf.sprintf "vgg fuses its relus (%d)" (Plan.fused_epilogues p))
    true
    (Plan.fused_epilogues p >= 4)

let () =
  Alcotest.run "twq_plan"
    [
      ( "bit-identity",
        [
          QCheck_alcotest.to_alcotest prop_planned_matches_interpreter;
          Alcotest.test_case "resnet20 planned == run_ref" `Quick
            test_resnet20_bit_identical;
          Alcotest.test_case "full-width resnet20 planned == run_ref" `Quick
            test_resnet20_full_width;
          Alcotest.test_case "deploy planned == forward_ref" `Quick
            test_deploy_planned_matches_ref;
        ] );
      ( "planner",
        [
          Alcotest.test_case "aliasing safety + fusion + reuse" `Quick
            test_resnet20_plan_shape;
          Alcotest.test_case "plan cache keyed by shape" `Quick
            test_plan_cache_per_shape;
          Alcotest.test_case "serialized graphs get plans" `Quick
            test_serialized_graph_plans;
        ] );
    ]
