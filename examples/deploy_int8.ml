(* End-to-end deployment: QAT training → integer-only inference.

   Trains a Winograd-aware tap-wise quantized CNN, folds its batch norms,
   exports it to a chain of integer Tapwise layers (int8 activations, all
   Winograd-domain rescaling by shifts) and compares the integer network's
   accuracy to the fake-quant training-time model — the complete flow a
   user of the paper's accelerator would run.  Finally, prunes the deployed
   graph's Winograd-domain weights to show the compression hook.

   Run with: dune exec examples/deploy_int8.exe *)

open Twq
module Synth = Dataset.Synth_images
module Qat = Nn.Qat_model
module Trainer = Nn.Trainer
module Deploy = Nn.Deploy
module Int_graph = Nn.Int_graph

let () =
  let spec =
    { Synth.default_spec with Synth.classes = 8; noise = 0.8; n_train = 256;
      n_valid = 48; n_test = 128 }
  in
  let data = Synth.generate ~spec ~seed:515 () in
  print_endline "== QAT -> integer-only deployment ==\n";
  Printf.printf "training Winograd-aware tap-wise int8 model (F4)...\n%!";
  let mode =
    Qat.Wa { Qat.variant = Winograd.Transform.F4; wino_bits = 8; tapwise = true;
             pow2 = true; learned = false }
  in
  let model = Qat.create { (Qat.default_config mode) with Qat.classes = 8 } ~seed:2 in
  let _ = Trainer.train model data { Trainer.default_options with Trainer.epochs = 5 } in
  let fq_acc = Trainer.evaluate model data.Synth.test in
  Printf.printf "  fake-quant (training graph) test accuracy: %.1f%%\n\n" (100.0 *. fq_acc);

  Printf.printf "folding batch norms and exporting to integer layers...\n%!";
  let calibration, _ = Synth.batch data data.Synth.train (Array.init 32 Fun.id) in
  let net = Deploy.export model ~calibration () in
  let int_acc = Int_graph.accuracy net data.Synth.test in
  Printf.printf "  integer-only network: %d Tapwise conv layers\n"
    (Int_graph.winograd_layer_count net);
  Printf.printf "  integer-only test accuracy: %.1f%% (gap %.1f%%)\n\n"
    (100.0 *. int_acc)
    (100.0 *. (fq_acc -. int_acc));

  (* The chained scales mean every inter-layer tensor is a plain int8 map. *)
  List.iteri
    (fun i l ->
      Printf.printf "  layer %d: s_x = %.5f, s_y = %.5f, %d winograd weights\n" i
        l.Quant.Tapwise.s_x l.Quant.Tapwise.s_y
        (Itensor.numel l.Quant.Tapwise.wq))
    (Int_graph.wino_layers net);

  print_endline "\npruning the deployed Winograd-domain weights (density 60%):";
  let pruned = Int_graph.prune net ~density:0.6 in
  List.iteri
    (fun i l ->
      Printf.printf "  layer %d: %.0f%% of winograd MACs remain\n" i
        (100.0 *. Pruning.effective_macs_fraction l))
    (Int_graph.wino_layers pruned);
  Printf.printf "  pruned integer-only test accuracy: %.1f%%\n"
    (100.0 *. Int_graph.accuracy pruned data.Synth.test);
  print_endline "\nDone."
