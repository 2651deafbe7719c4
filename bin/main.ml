(* twq — command-line driver for the paper-reproduction experiments.

   Usage:
     twq list                 # show available experiments
     twq run tab4 fig5        # regenerate specific tables/figures
     twq run --fast all       # quick pass over everything *)

open Cmdliner
module Registry = Twq_experiments.Registry

let list_cmd =
  let doc = "List the available experiments (one per paper table/figure)." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-6s %s\n" e.Registry.name e.Registry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments and print their tables." in
  let fast =
    Arg.(value & flag & info [ "fast" ] ~doc:"Use reduced problem sizes.")
  in
  let names =
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT")
  in
  let run fast names =
    let selected =
      if List.mem "all" names then Registry.all
      else
        List.map
          (fun n ->
            match Registry.find n with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; try `twq list`\n" n;
                exit 2)
          names
    in
    List.iter
      (fun e ->
        Printf.printf "==== %s — %s ====\n%!" e.Registry.name e.Registry.description;
        print_string (e.Registry.run ~fast ());
        print_newline ())
      selected
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ fast $ names)

let trace_cmd =
  let doc =
    "Simulate one Conv2D layer and dump its execution trace (Chrome \
     trace-event JSON, loadable in chrome://tracing or Perfetto)."
  in
  let kind =
    Arg.(value & opt string "f4" & info [ "kernel" ] ~doc:"im2col, f2 or f4.")
  in
  let batch = Arg.(value & opt int 1 & info [ "batch" ] ~doc:"Batch size.") in
  let cin = Arg.(value & opt int 256 & info [ "cin" ] ~doc:"Input channels.") in
  let cout = Arg.(value & opt int 256 & info [ "cout" ] ~doc:"Output channels.") in
  let hw = Arg.(value & opt int 32 & info [ "hw" ] ~doc:"Output H = W.") in
  let out =
    Arg.(value & opt string "trace.json" & info [ "o" ] ~doc:"Output path.")
  in
  let run kind batch cin cout hw out =
    let module Sim = Twq_sim in
    let module T = Twq_winograd.Transform in
    let k =
      match String.lowercase_ascii kind with
      | "im2col" -> Sim.Operator.Im2col
      | "f2" -> Sim.Operator.Winograd T.F2
      | "f4" -> Sim.Operator.Winograd T.F4
      | s ->
          Printf.eprintf "unknown kernel %S (im2col | f2 | f4)\n" s;
          exit 2
    in
    let layer =
      { Twq_nn.Zoo.name = "trace"; cin; cout; out_h = hw; out_w = hw; k = 3;
        stride = 1; repeat = 1 }
    in
    let r = Sim.Operator.run Sim.Arch.default k layer ~batch in
    Sim.Trace.save_chrome_json r out;
    Printf.printf "%s: %.0f cycles; trace with %d resources written to %s\n"
      (Sim.Operator.kind_name k) r.Sim.Operator.cycles
      (List.length r.Sim.Operator.trace)
      out;
    print_string (Sim.Trace.to_text ~max_events:20 r)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ kind $ batch $ cin $ cout $ hw $ out)

let layers_cmd =
  let doc =
    "Per-layer simulation of a zoo network: chosen kernel, cycles, energy."
  in
  let network =
    Arg.(value & pos 0 string "resnet34" & info [] ~docv:"NETWORK")
  in
  let batch = Arg.(value & opt int 1 & info [ "batch" ] ~doc:"Batch size.") in
  let resolution =
    Arg.(value & opt (some int) None & info [ "res" ] ~doc:"Input resolution.")
  in
  let run network batch resolution =
    let module Sim = Twq_sim in
    let module Zoo = Twq_nn.Zoo in
    match List.assoc_opt network Zoo.all with
    | None ->
        Printf.eprintf "unknown network %S; options: %s\n" network
          (String.concat ", " (List.map fst Zoo.all));
        exit 2
    | Some build ->
        let net = build ?resolution () in
        let r =
          Sim.Network_runner.run Sim.Arch.default
            (Sim.Network_runner.P_winograd Twq_winograd.Transform.F4)
            net ~batch
        in
        Printf.printf
          "%s @%d batch %d — %.1f imgs/s, %.2f mJ/inference under the F4 policy\n\n"
          net.Zoo.net_name net.Zoo.resolution batch
          r.Sim.Network_runner.throughput_imgs_per_s
          (r.Sim.Network_runner.energy_pj /. 1e9 /. float_of_int batch);
        Printf.printf "%-16s %-22s %-12s %12s %10s\n" "layer" "shape" "kernel"
          "cycles" "uJ";
        List.iter
          (fun c ->
            let l = c.Sim.Network_runner.layer in
            Printf.printf "%-16s %-22s %-12s %12.0f %10.1f\n" l.Zoo.name
              (Printf.sprintf "%dx%d %d->%d k%d s%d (x%d)" l.Zoo.out_h
                 l.Zoo.out_w l.Zoo.cin l.Zoo.cout l.Zoo.k l.Zoo.stride
                 l.Zoo.repeat)
              (Sim.Operator.kind_name c.Sim.Network_runner.chosen)
              c.Sim.Network_runner.result.Sim.Operator.cycles
              (c.Sim.Network_runner.result.Sim.Operator.energy.Sim.Operator.e_total
              /. 1e6))
          r.Sim.Network_runner.layers
  in
  Cmd.v (Cmd.info "layers" ~doc) Term.(const run $ network $ batch $ resolution)

let train_cmd =
  let doc =
    "Train a small QAT model on the synthetic dataset, with optional \
     crash-safe checkpointing.  History lines print losses/accuracies in \
     hexadecimal float notation so that an interrupted-and-resumed run can \
     be diffed bit-exactly against an uninterrupted one."
  in
  let epochs = Arg.(value & opt int 4 & info [ "epochs" ] ~doc:"Epochs.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let mode =
    Arg.(value & opt string "int8" & info [ "mode" ] ~doc:"fp32, int8 or wa.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:"Snapshot training state to $(docv) (atomically, rotated).")
  in
  let every =
    Arg.(
      value & opt int 4
      & info [ "every" ]
          ~doc:"Snapshot every N batches (besides epoch ends); 0 disables \
                the mid-epoch cadence.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Resume from the newest valid snapshot at --checkpoint.")
  in
  let data_parallel =
    Arg.(
      value & flag
      & info [ "data-parallel" ]
          ~doc:"Split batches across the domain pool (TWQ_NUM_DOMAINS).")
  in
  let run epochs seed mode checkpoint every resume data_parallel =
    let module Synth = Twq_dataset.Synth_images in
    let module Qat = Twq_nn.Qat_model in
    let module Trainer = Twq_nn.Trainer in
    let conv_mode =
      match String.lowercase_ascii mode with
      | "fp32" -> Qat.Fp32
      | "int8" -> Qat.Int8_spatial
      | "wa" ->
          Qat.Wa
            {
              variant = Twq_winograd.Transform.F4;
              wino_bits = 8;
              tapwise = true;
              pow2 = false;
              learned = true;
            }
      | s ->
          Printf.eprintf "unknown mode %S (fp32 | int8 | wa)\n" s;
          exit 2
    in
    if resume && checkpoint = None then begin
      Printf.eprintf "--resume requires --checkpoint PATH\n";
      exit 2
    end;
    let spec =
      { Synth.default_spec with n_train = 96; n_valid = 32; n_test = 32 }
    in
    let dataset = Synth.generate ~spec ~seed:11 () in
    let model =
      Qat.create { (Qat.default_config conv_mode) with arch = Qat.Vgg_mini [ 4; 8 ] } ~seed
    in
    let options =
      {
        Trainer.default_options with
        epochs;
        seed;
        data_parallel;
        checkpoint =
          Option.map
            (fun p -> { Trainer.ckpt_path = p; ckpt_every = every })
            checkpoint;
      }
    in
    let history =
      if resume then Trainer.train_resume model dataset options
      else Trainer.train model dataset options
    in
    Array.iteri
      (fun e loss ->
        Printf.printf "epoch %d loss %h acc %h\n" e loss
          history.Trainer.valid_acc.(e))
      history.Trainer.train_loss;
    Printf.printf "test %h\n" (Trainer.evaluate model dataset.Synth.test)
  in
  Cmd.v (Cmd.info "train" ~doc)
    Term.(
      const run $ epochs $ seed $ mode $ checkpoint $ every $ resume
      $ data_parallel)

(* ----------------------------------------------------------- serving *)

module Serve = Twq_serve
module STensor = Twq_tensor.Tensor

let registry_dir_arg =
  Arg.(
    value & opt string "zoo"
    & info [ "dir" ] ~docv:"DIR" ~doc:"Model registry directory.")

let or_die ~what = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "%s: %s\n" what (Serve.Registry.error_to_string e);
      exit 1

let open_registry dir =
  let reg = or_die ~what:"registry" (Serve.Registry.open_dir dir) in
  List.iter
    (fun f -> Printf.eprintf "registry: removed orphan tmp %s\n" f)
    (Serve.Registry.orphans_removed reg);
  List.iter
    (fun (f, e) ->
      Printf.eprintf "registry: skipped %s (%s)\n" f
        (Serve.Registry.error_to_string e))
    (Serve.Registry.skipped reg);
  reg

(* Daemon foreground loop: SIGTERM/SIGINT (or [until] turning true, e.g.
   a remote Drain) requests a graceful stop.  The handler only flips a
   flag — the main thread does the actual teardown, because stopping
   joins threads and signal-handler context is the wrong place for
   that. *)
let wait_for_stop ?(until = fun () -> false) () =
  let stop = ref false in
  let h = Sys.Signal_handle (fun _ -> stop := true) in
  (try Sys.set_signal Sys.sigterm h with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint h with Invalid_argument _ | Sys_error _ -> ());
  while not (!stop || until ()) do
    Thread.delay 0.2
  done

let build_graph_model ~arch ~res ~width_div ~classes ~seed =
  let module Rng = Twq_util.Rng in
  let rng = Rng.create seed in
  let g =
    match String.lowercase_ascii arch with
    | "resnet20" -> Twq_nn.Gmodels.resnet20 ~rng ~classes ~width_div ()
    | "vgg" -> Twq_nn.Gmodels.vgg_nagadomi ~rng ~classes ~width_div ()
    | s ->
        Printf.eprintf "unknown arch %S (resnet20 | vgg)\n" s;
        exit 2
  in
  let g = Twq_nn.Passes.fold_bn g in
  let cal = STensor.rand_gaussian rng [| 2; 3; res; res |] ~mu:0.0 ~sigma:1.0 in
  Twq_nn.Int_graph.quantize g ~calibration:cal ()

(* The per-layer range-proof roll-up: Winograd layers whose per-tap
   accumulators provably fit 31 bits run two int8 products per word. *)
let print_pairing ig =
  let paired, layers, bits = Twq_nn.Int_graph.wino_pairing ig in
  Printf.printf
    "paired-lane GEMM: %d/%d winograd layers (max accumulator %d bits, \
     pairing needs <= %d)\n"
    paired layers bits Twq_winograd.Microkernel.pair_acc_bits

let publish_cmd =
  let doc =
    "Build a small quantized model (integer graph over the tap-wise \
     Winograd kernels) and publish it into a registry directory as a \
     CRC-framed, atomically-written artifact — or, with --fleet, stage it \
     on every listed shard daemon and atomically flip the fleet's active \
     version (rolling back on partial failure)."
  in
  let name_arg =
    Arg.(value & opt string "tiny" & info [ "name" ] ~doc:"Model name.")
  in
  let version =
    Arg.(value & opt int 1 & info [ "model-version" ] ~doc:"Model version.")
  in
  let arch =
    Arg.(value & opt string "resnet20" & info [ "arch" ] ~doc:"resnet20 or vgg.")
  in
  let res =
    Arg.(value & opt int 8 & info [ "res" ] ~doc:"Input resolution (H = W).")
  in
  let width_div =
    Arg.(value & opt int 2 & info [ "width-div" ] ~doc:"Channel width divisor.")
  in
  let classes = Arg.(value & opt int 10 & info [ "classes" ] ~doc:"Classes.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Weight RNG seed.") in
  let fleet =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "fleet" ] ~docv:"SOCK,..."
          ~doc:
            "Comma-separated shard daemon sockets: stage the artifact on \
             every shard, then flip all their active versions (two-phase; \
             rolls back on partial failure).  Exits non-zero if the fleet \
             did not commit.")
  in
  let run dir name version arch res width_div classes seed fleet =
    let ig = build_graph_model ~arch ~res ~width_div ~classes ~seed in
    let model = Serve.Model.Graph ig in
    let input_dims = [| 3; res; res |] in
    print_pairing ig;
    match fleet with
    | None ->
        let reg = open_registry dir in
        let entry =
          or_die ~what:"publish"
            (Serve.Registry.publish reg ~name ~version ~input_dims model)
        in
        Printf.printf
          "published %s v%d to %s: %s %dx%dx%d, %d winograd / %d spatial \
           layers, crc %08x\n"
          entry.Serve.Registry.name entry.Serve.Registry.version dir
          (Serve.Model.kind model) 3 res res
          (Twq_nn.Int_graph.winograd_layer_count ig)
          (Twq_nn.Int_graph.spatial_layer_count ig)
          entry.Serve.Registry.crc
    | Some endpoints ->
        let outcome =
          or_die ~what:"fleet publish"
            (Serve.Registry.publish_fleet ~endpoints ~name ~version
               ~input_dims model)
        in
        List.iter
          (fun r ->
            Printf.printf "  %-30s staged=%b active=%b rolled_back=%b  %s\n"
              r.Serve.Registry.endpoint r.Serve.Registry.prepared
              r.Serve.Registry.activated r.Serve.Registry.rolled_back
              r.Serve.Registry.detail)
          outcome.Serve.Registry.reports;
        if outcome.Serve.Registry.committed then
          Printf.printf "fleet publish committed: %s v%d on %d shard(s)\n"
            name version
            (List.length outcome.Serve.Registry.reports)
        else begin
          Printf.eprintf "fleet publish did NOT commit (rolled back)\n";
          exit 1
        end
  in
  Cmd.v (Cmd.info "publish" ~doc)
    Term.(
      const run $ registry_dir_arg $ name_arg $ version $ arch $ res $ width_div
      $ classes $ seed $ fleet)

let prune_cmd =
  let doc =
    "Magnitude-prune a quantized model's Winograd-domain weights to a \
     target density (Pruning.prune_quantized per tap-wise layer) and \
     publish the pruned artifact — into a registry directory, or with \
     --fleet onto every listed shard daemon.  The source model is an \
     existing registry artifact (--from) or a freshly built one (same \
     flags as publish).  Re-packing the pruned graph takes the per-tap \
     sparse/dense execution decision against the density cutoff \
     (Microkernel.sparse_threshold, 0.5), so anything serving the \
     artifact runs the compressed-panel GEMMs on the taps that earned \
     them."
  in
  let name_arg =
    Arg.(value & opt string "tiny-pruned" & info [ "name" ] ~doc:"Published model name.")
  in
  let version =
    Arg.(value & opt int 1 & info [ "model-version" ] ~doc:"Published model version.")
  in
  let arch =
    Arg.(value & opt string "resnet20" & info [ "arch" ] ~doc:"resnet20 or vgg.")
  in
  let res =
    Arg.(value & opt int 8 & info [ "res" ] ~doc:"Input resolution (H = W).")
  in
  let width_div =
    Arg.(value & opt int 2 & info [ "width-div" ] ~doc:"Channel width divisor.")
  in
  let classes = Arg.(value & opt int 10 & info [ "classes" ] ~doc:"Classes.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Weight RNG seed.") in
  let density =
    Arg.(
      value & opt float 0.3
      & info [ "density" ] ~docv:"D"
          ~doc:"Nonzero fraction to keep in the Winograd domain, in (0, 1].")
  in
  let from =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"NAME"
          ~doc:"Prune an existing registry artifact instead of building one.")
  in
  let from_version =
    Arg.(
      value
      & opt (some int) None
      & info [ "from-version" ] ~doc:"Source artifact version (default: latest).")
  in
  let fleet =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "fleet" ] ~docv:"SOCK,..."
          ~doc:
            "Comma-separated shard daemon sockets: stage the pruned \
             artifact on every shard, then flip all their active versions \
             (two-phase; rolls back on partial failure).")
  in
  let check =
    Arg.(
      value & opt int 0
      & info [ "check" ] ~docv:"N"
          ~doc:
            "After publishing, serve the pruned artifact from a \
             throwaway daemon and assert N random wire inferences are \
             bit-identical to dense in-process execution of the same \
             pruned weights (exit 1 on any mismatch).")
  in
  let run dir name version arch res width_div classes seed density from
      from_version fleet check =
    let ig, input_dims =
      match from with
      | Some src -> (
          let reg = open_registry dir in
          let entry =
            or_die ~what:"lookup"
              (Serve.Registry.lookup ?version:from_version reg src)
          in
          match entry.Serve.Registry.model with
          | Serve.Model.Graph ig | Serve.Model.Net ig ->
              (ig, entry.Serve.Registry.input_dims))
      | None ->
          ( build_graph_model ~arch ~res ~width_div ~classes ~seed,
            [| 3; res; res |] )
    in
    let before = Twq_nn.Int_graph.winograd_density ig in
    let pruned =
      try Twq_nn.Int_graph.prune ig ~density
      with Invalid_argument m ->
        Printf.eprintf "prune: %s\n" m;
        exit 2
    in
    let after = Twq_nn.Int_graph.winograd_density pruned in
    let sparse, total = Twq_nn.Int_graph.wino_sparsity pruned in
    let model = Serve.Model.Graph pruned in
    (match fleet with
    | None ->
        let reg = open_registry dir in
        let entry =
          or_die ~what:"publish"
            (Serve.Registry.publish reg ~name ~version ~input_dims model)
        in
        Printf.printf "published %s v%d to %s, crc %08x\n"
          entry.Serve.Registry.name entry.Serve.Registry.version dir
          entry.Serve.Registry.crc
    | Some endpoints ->
        let outcome =
          or_die ~what:"fleet publish"
            (Serve.Registry.publish_fleet ~endpoints ~name ~version
               ~input_dims model)
        in
        List.iter
          (fun r ->
            Printf.printf "  %-30s staged=%b active=%b rolled_back=%b  %s\n"
              r.Serve.Registry.endpoint r.Serve.Registry.prepared
              r.Serve.Registry.activated r.Serve.Registry.rolled_back
              r.Serve.Registry.detail)
          outcome.Serve.Registry.reports;
        if not outcome.Serve.Registry.committed then begin
          Printf.eprintf "fleet publish did NOT commit (rolled back)\n";
          exit 1
        end);
    Printf.printf
      "winograd density %.3f -> %.3f (requested %.2f), sparse taps %d/%d \
       at threshold %.2f\n"
      before after density sparse total
      (Twq_winograd.Microkernel.sparse_threshold ());
    print_pairing pruned;
    if check > 0 then begin
      (* Dense oracle: the same deterministic prune re-packed with the
         compressed-panel driver disabled. *)
      let t0 = Twq_winograd.Microkernel.sparse_threshold () in
      Twq_winograd.Microkernel.set_sparse_threshold 0.0;
      let dense =
        Fun.protect
          ~finally:(fun () -> Twq_winograd.Microkernel.set_sparse_threshold t0)
          (fun () -> Serve.Model.Graph (Twq_nn.Int_graph.prune ig ~density))
      in
      let tmp = Filename.temp_file "twq_prune_check" "" in
      Sys.remove tmp;
      Unix.mkdir tmp 0o700;
      let sock = Filename.temp_file "twq_prune_check" ".sock" in
      Sys.remove sock;
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists sock then Sys.remove sock;
          if Sys.file_exists tmp then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat tmp f))
              (Sys.readdir tmp);
            Unix.rmdir tmp
          end)
        (fun () ->
          let creg = or_die ~what:"check registry" (Serve.Registry.open_dir tmp) in
          ignore
            (or_die ~what:"check publish"
               (Serve.Registry.publish creg ~name ~version ~input_dims model));
          match Serve.Server.listen ~registry:creg ~path:sock () with
          | Error e ->
              Printf.eprintf "check: listen: %s\n" e;
              exit 1
          | Ok d ->
              Fun.protect
                ~finally:(fun () -> Serve.Server.stop_daemon d)
                (fun () ->
                  let c =
                    match Serve.Shard_client.connect sock with
                    | Ok c -> c
                    | Error e ->
                        Printf.eprintf "check: connect: %s\n"
                          (Serve.Shard_client.error_to_string e);
                        exit 1
                  in
                  Fun.protect
                    ~finally:(fun () -> Serve.Shard_client.close c)
                    (fun () ->
                      let rng = Twq_util.Rng.create 99 in
                      let nchw = Array.append [| 1 |] input_dims in
                      for i = 1 to check do
                        let x =
                          STensor.rand_gaussian rng input_dims ~mu:0.0
                            ~sigma:1.0
                        in
                        let x1 = STensor.zeros nchw in
                        Array.blit x.STensor.data 0 x1.STensor.data 0
                          (Array.length x.STensor.data);
                        let y = Serve.Model.run_batch dense x1 in
                        let classes = STensor.dim y 1 in
                        let expect = Array.sub y.STensor.data 0 classes in
                        match Serve.Shard_client.infer c x with
                        | Ok { outcome = Serve.Wire.Logits { data; _ }; _ } ->
                            if data <> expect then begin
                              Printf.eprintf
                                "check: inference %d/%d differs from dense \
                                 execution\n"
                                i check;
                              exit 1
                            end
                        | Ok _ ->
                            Printf.eprintf
                              "check: inference %d/%d got a non-logits reply\n"
                              i check;
                            exit 1
                        | Error e ->
                            Printf.eprintf "check: infer: %s\n"
                              (Serve.Shard_client.error_to_string e);
                            exit 1
                      done;
                      Printf.printf
                        "check ok: %d served inferences bit-identical to \
                         dense execution\n"
                        check)))
    end
  in
  Cmd.v (Cmd.info "prune" ~doc)
    Term.(
      const run $ registry_dir_arg $ name_arg $ version $ arch $ res
      $ width_div $ classes $ seed $ density $ from $ from_version $ fleet
      $ check)

let server_flags =
  let max_batch =
    Arg.(value & opt int 8 & info [ "max-batch" ] ~doc:"Batch size cap.")
  in
  let max_delay_ms =
    Arg.(
      value & opt float 2.0
      & info [ "max-delay-ms" ] ~doc:"Batch window in milliseconds.")
  in
  let capacity =
    Arg.(value & opt int 64 & info [ "capacity" ] ~doc:"Request queue bound.")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~doc:"Compute worker domains.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~doc:"Per-request deadline in milliseconds.")
  in
  Term.(
    const (fun max_batch max_delay_ms capacity workers timeout_ms ->
        {
          Serve.Server.max_batch;
          max_delay = max_delay_ms /. 1e3;
          capacity;
          workers;
          default_deadline = Option.map (fun t -> t /. 1e3) timeout_ms;
        })
    $ max_batch $ max_delay_ms $ capacity $ workers $ timeout_ms)

let start_from_registry dir model_name version config =
  let reg = open_registry dir in
  let entry =
    or_die ~what:"lookup" (Serve.Registry.lookup ?version reg model_name)
  in
  let resolve () =
    match Serve.Registry.lookup ?version reg model_name with
    | Ok e -> e.Serve.Registry.model
    | Error _ -> entry.Serve.Registry.model
  in
  Printf.printf "serving %s v%d (input %dx%dx%d, max_batch %d, delay %.1f ms, \
                 capacity %d, %d worker%s)\n%!"
    entry.Serve.Registry.name entry.Serve.Registry.version
    entry.Serve.Registry.input_dims.(0) entry.Serve.Registry.input_dims.(1)
    entry.Serve.Registry.input_dims.(2) config.Serve.Server.max_batch
    (1e3 *. config.Serve.Server.max_delay) config.Serve.Server.capacity
    config.Serve.Server.workers
    (if config.Serve.Server.workers = 1 then "" else "s");
  let server =
    Serve.Server.start ~config ~model:resolve
      ~input_dims:entry.Serve.Registry.input_dims ()
  in
  (server, entry)

let make_input_fn entry seed =
  let module Rng = Twq_util.Rng in
  let dims = entry.Serve.Registry.input_dims in
  fun i ->
    let rng = Rng.create (seed + (31 * i)) in
    STensor.rand_gaussian rng [| dims.(0); dims.(1); dims.(2) |] ~mu:0.0
      ~sigma:1.0

let write_or_print ~label path contents =
  match path with
  | Some f ->
      let oc = open_out f in
      output_string oc contents;
      close_out oc;
      Printf.printf "%s written to %s\n" label f
  | None -> print_string contents

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write the metrics JSON here.")

let serve_cmd =
  let doc =
    "Run the inference server.  Default (socket-free): generate an \
     open-loop request stream in-process and print per-outcome counts \
     plus the server metrics JSON.  With --listen SOCK: run as a shard \
     daemon speaking the length-prefixed CRC-framed wire protocol on a \
     Unix-domain socket until SIGTERM/SIGINT or a remote Drain."
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"SOCK"
          ~doc:
            "Serve the registry over a Unix-domain socket at $(docv) \
             (daemon mode; ignores --requests/--rate/--seed).")
  in
  let model_name =
    Arg.(value & opt string "tiny" & info [ "model" ] ~doc:"Model name.")
  in
  let version =
    Arg.(
      value
      & opt (some int) None
      & info [ "model-version" ] ~doc:"Pin a version (default: newest).")
  in
  let requests =
    Arg.(value & opt int 256 & info [ "requests" ] ~doc:"Stream length.")
  in
  let rate =
    Arg.(
      value & opt float 200.0
      & info [ "rate" ] ~doc:"Arrival rate, requests/second.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Input RNG seed.") in
  let run dir model_name version config requests rate seed metrics_out listen =
    ignore (Serve.Fault.install_from_env ());
    match listen with
    | Some path -> (
        let reg = open_registry dir in
        match Serve.Server.listen ~config ~registry:reg ~path () with
        | Error e ->
            Printf.eprintf "listen: %s\n" e;
            exit 1
        | Ok d ->
            Printf.printf "shard daemon listening on %s (registry %s)\n%!" path
              dir;
            wait_for_stop ~until:(fun () -> Serve.Server.daemon_draining d) ();
            Serve.Server.stop_daemon d;
            write_or_print ~label:"stats" metrics_out
              (Serve.Server.daemon_stats_json d))
    | None ->
    let server, entry = start_from_registry dir model_name version config in
    let make_input = make_input_fn entry seed in
    let t0 = Unix.gettimeofday () in
    let tickets =
      Array.init requests (fun i ->
          (if rate > 0.0 then
             let slot = t0 +. (float_of_int i /. rate) in
             let wait = slot -. Unix.gettimeofday () in
             if wait > 0.0 then Unix.sleepf wait);
          Serve.Server.submit server (make_input i))
    in
    let counts = Hashtbl.create 8 in
    Array.iter
      (fun ticket ->
        let label = Serve.Server.outcome_label (Serve.Server.await ticket) in
        Hashtbl.replace counts label
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts label)))
      tickets;
    let wall = Unix.gettimeofday () -. t0 in
    Serve.Server.shutdown server;
    Printf.printf "%d requests in %.3f s (offered %.1f req/s):\n" requests wall
      rate;
    List.iter
      (fun (label, n) -> Printf.printf "  %-18s %d\n" label n)
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []));
    write_or_print ~label:"metrics" metrics_out
      (Serve.Metrics.to_json (Serve.Server.metrics server))
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ registry_dir_arg $ model_name $ version $ server_flags
      $ requests $ rate $ seed $ metrics_out_arg $ listen)

let route_cmd =
  let doc =
    "Run the consistent-hash router daemon: hash each request's routing \
     key onto a ring over --shards, proxy to the owning shard, fail over \
     to the next ring node when a shard dies or sheds (idempotent \
     requests only), and heartbeat every shard for health."
  in
  let listen =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"SOCK" ~doc:"Router's own socket path.")
  in
  let shards =
    Arg.(
      required
      & opt (some (list string)) None
      & info [ "shards" ] ~docv:"SOCK,..." ~doc:"Shard daemon socket paths.")
  in
  let vnodes =
    Arg.(value & opt int 64 & info [ "vnodes" ] ~doc:"Ring points per shard.")
  in
  let heartbeat_ms =
    Arg.(
      value & opt float 250.0
      & info [ "heartbeat-ms" ] ~doc:"Health ping interval, milliseconds.")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:"Write the router stats JSON here on exit.")
  in
  let connect_timeout_ms =
    Arg.(
      value & opt float 2000.0
      & info [ "connect-timeout-ms" ]
          ~doc:"Per-exchange shard socket timeout, milliseconds.")
  in
  let breaker_failures =
    Arg.(
      value & opt int 5
      & info [ "breaker-failures" ]
          ~doc:"Consecutive transport failures that trip a shard's breaker.")
  in
  let breaker_cooldown_ms =
    Arg.(
      value & opt float 1000.0
      & info [ "breaker-cooldown-ms" ]
          ~doc:"Milliseconds a breaker stays open before a half-open probe.")
  in
  let retry_attempts =
    Arg.(
      value & opt int 3
      & info [ "retry-attempts" ]
          ~doc:
            "Per-request attempt budget, including the first attempt (1 \
             disables retrying).")
  in
  let seed =
    Arg.(
      value & opt int 0 & info [ "seed" ] ~doc:"Retry-jitter RNG seed.")
  in
  let run listen shards vnodes heartbeat_ms stats_out connect_timeout_ms
      breaker_failures breaker_cooldown_ms retry_attempts seed =
    ignore (Serve.Fault.install_from_env ());
    let config =
      {
        Serve.Router.default_config with
        vnodes;
        heartbeat_interval = heartbeat_ms /. 1e3;
        connect_timeout = connect_timeout_ms /. 1e3;
        retry =
          (if retry_attempts <= 1 then Serve.Retry.no_retry
           else { Serve.Retry.default with attempts = retry_attempts });
        breaker_failures;
        breaker_cooldown = breaker_cooldown_ms /. 1e3;
        seed;
      }
    in
    match Serve.Router.start ~config ~shards ~path:listen () with
    | Error e ->
        Printf.eprintf "route: %s\n" e;
        exit 1
    | Ok r ->
        Printf.printf "router listening on %s over %d shard(s)\n%!" listen
          (List.length shards);
        wait_for_stop ();
        Serve.Router.stop r;
        write_or_print ~label:"stats" stats_out (Serve.Router.stats_json r)
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const run $ listen $ shards $ vnodes $ heartbeat_ms $ stats_out
      $ connect_timeout_ms $ breaker_failures $ breaker_cooldown_ms
      $ retry_attempts $ seed)

let stats_cmd =
  let doc = "Fetch the stats JSON from a running shard daemon or router." in
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCK" ~doc:"Endpoint socket path.")
  in
  let run connect =
    match Serve.Shard_client.connect connect with
    | Error e ->
        Printf.eprintf "stats: %s\n" (Serve.Shard_client.error_to_string e);
        exit 1
    | Ok c -> (
        match Serve.Shard_client.stats c with
        | Ok json ->
            Serve.Shard_client.close c;
            print_string json
        | Error e ->
            Serve.Shard_client.close c;
            Printf.eprintf "stats: %s\n" (Serve.Shard_client.error_to_string e);
            exit 1)
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ connect)

let loadgen_cmd =
  let doc =
    "Load generator.  Default: closed loop against the in-process server \
     (--concurrency clients each keep one request outstanding).  With \
     --connect SOCK: open-loop Poisson arrivals over the wire against a \
     shard daemon or router, measuring latency from each request's \
     scheduled arrival (coordinated-omission corrected) and reporting \
     SLO attainment against --slo-ms."
  in
  let model_name =
    Arg.(value & opt string "tiny" & info [ "model" ] ~doc:"Model name.")
  in
  let version =
    Arg.(
      value
      & opt (some int) None
      & info [ "model-version" ] ~doc:"Pin a version (default: newest).")
  in
  let requests =
    Arg.(value & opt int 256 & info [ "requests" ] ~doc:"Total requests.")
  in
  let concurrency =
    Arg.(value & opt int 8 & info [ "concurrency" ] ~doc:"Client domains.")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~doc:"Pace requests/second (0 = unpaced closed loop).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Input RNG seed.") in
  let summary_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-out" ] ~docv:"FILE" ~doc:"Write the summary JSON here.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCK"
          ~doc:"Wire endpoint (shard or router): open-loop Poisson mode.")
  in
  let slo_ms =
    Arg.(
      value & opt float 50.0
      & info [ "slo-ms" ] ~doc:"Latency budget for SLO attainment (wire mode).")
  in
  let res =
    Arg.(
      value & opt int 8
      & info [ "res" ] ~doc:"Input resolution H = W (wire mode).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:
            "Per-request relative deadline carried on the wire, \
             milliseconds (wire mode).")
  in
  let retry_attempts =
    Arg.(
      value & opt int 1
      & info [ "retry-attempts" ]
          ~doc:
            "Client-side attempt budget per request, including the first \
             attempt; 1 disables retrying (wire mode).")
  in
  let run dir model_name version config requests concurrency rate seed
      metrics_out summary_out connect slo_ms res deadline_ms retry_attempts =
    ignore (Serve.Fault.install_from_env ());
    match connect with
    | Some endpoint ->
        let rate = if rate > 0.0 then rate else 100.0 in
        let make_input i =
          let module Rng = Twq_util.Rng in
          let rng = Rng.create (seed + (31 * i)) in
          STensor.rand_gaussian rng [| 3; res; res |] ~mu:0.0 ~sigma:1.0
        in
        let retry =
          if retry_attempts <= 1 then Serve.Retry.no_retry
          else { Serve.Retry.default with attempts = retry_attempts }
        in
        let s =
          Serve.Loadgen.run_poisson
            ~connect:(fun () -> Serve.Shard_client.connect endpoint)
            ~make_input ~requests ~rate ~slo:(slo_ms /. 1e3)
            ~connections:concurrency ~seed ~retry
            ?deadline:(Option.map (fun b -> b /. 1e3) deadline_ms) ()
        in
        print_endline (Serve.Loadgen.slo_to_text s);
        (match summary_out with
        | Some f ->
            let oc = open_out f in
            output_string oc (Serve.Loadgen.slo_to_json s);
            close_out oc;
            Printf.printf "summary written to %s\n" f
        | None -> ())
    | None ->
    let server, entry = start_from_registry dir model_name version config in
    let summary =
      Serve.Loadgen.run ~server ~make_input:(make_input_fn entry seed)
        ~requests ~concurrency ~rate ()
    in
    Serve.Server.shutdown server;
    print_endline (Serve.Loadgen.summary_to_text summary);
    (match summary_out with
    | Some f ->
        let oc = open_out f in
        output_string oc (Serve.Loadgen.summary_to_json summary);
        close_out oc;
        Printf.printf "summary written to %s\n" f
    | None -> ());
    write_or_print ~label:"metrics" metrics_out
      (Serve.Metrics.to_json (Serve.Server.metrics server))
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ registry_dir_arg $ model_name $ version $ server_flags
      $ requests $ concurrency $ rate $ seed $ metrics_out_arg $ summary_out
      $ connect $ slo_ms $ res $ deadline_ms $ retry_attempts)

let rns_cmd =
  let doc =
    "Plan (and optionally self-check) the residue-number-system integer \
     Winograd backend: validate a modulus basis against the worst-case \
     dynamic range of F(m,r) and report the range proof."
  in
  let m_arg =
    Arg.(value & opt int 6 & info [ "m" ] ~docv:"M" ~doc:"Output tile size.")
  in
  let r_arg =
    Arg.(value & opt int 3 & info [ "r" ] ~docv:"R" ~doc:"Kernel size (odd).")
  in
  let cin_arg =
    Arg.(value & opt int 64 & info [ "cin" ] ~doc:"Input channels to prove for.")
  in
  let xmax_arg =
    Arg.(value & opt int 128 & info [ "xmax" ] ~doc:"Max |input| value.")
  in
  let wmax_arg =
    Arg.(value & opt int 128 & info [ "wmax" ] ~doc:"Max |weight| value.")
  in
  let basis_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "basis" ] ~docv:"P1,P2,.."
          ~doc:"Comma-separated coprime moduli (default: suggest one).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run one random convolution through the planned backend and \
             verify it bit-exact against the direct integer convolution.")
  in
  let run m r cin xmax wmax basis check =
    let module Rns = Twq_winograd.Rns in
    let module Itensor = Twq_tensor.Itensor in
    let fail e =
      Printf.eprintf "rejected: %s\n" (Rns.error_to_string e);
      exit 1
    in
    let basis =
      match basis with
      | Some b -> b
      | None -> (
          match Rns.suggest_basis ~m ~r ~cin ~xmax ~wmax () with
          | Ok b ->
              Printf.printf "suggested basis: [%s]\n"
                (String.concat "; " (List.map string_of_int b));
              b
          | Error e -> fail e)
    in
    match Rns.plan ~m ~r ~basis ~cin ~xmax ~wmax () with
    | Error e -> fail e
    | Ok plan ->
        print_endline (Rns.describe plan);
        if check then begin
          let rng = Twq_util.Rng.create 20260808 in
          let ci = min cin 8 and co = 8 and hw = 3 * m in
          let rand_it shape lim =
            Itensor.init shape (fun _ ->
                Twq_util.Rng.int rng ((2 * lim) + 1) - lim)
          in
          let x = rand_it [| 1; ci; hw; hw |] xmax in
          let w = rand_it [| co; ci; r; r |] wmax in
          let got = Rns.conv2d plan ~pad:(r / 2) ~x ~w () in
          let want =
            let h = Itensor.dim x 2 and wd = Itensor.dim x 3 in
            let pad = r / 2 in
            Itensor.init
              [| 1; co; h + (2 * pad) - r + 1; wd + (2 * pad) - r + 1 |]
              (fun idx ->
                let acc = ref 0 in
                for c = 0 to ci - 1 do
                  for ki = 0 to r - 1 do
                    for kj = 0 to r - 1 do
                      let hi = idx.(2) + ki - pad and wi = idx.(3) + kj - pad in
                      if hi >= 0 && hi < h && wi >= 0 && wi < wd then
                        acc :=
                          !acc
                          + Itensor.get4 x 0 c hi wi
                            * Itensor.get4 w idx.(1) c ki kj
                    done
                  done
                done;
                !acc)
          in
          if Itensor.equal got want then
            Printf.printf
              "self-check: OK — bit-exact vs direct integer conv \
               (%dx%d image, %d->%d channels)\n"
              hw hw ci co
          else begin
            Printf.eprintf "self-check: MISMATCH\n";
            exit 1
          end
        end
  in
  Cmd.v (Cmd.info "rns" ~doc)
    Term.(
      const run $ m_arg $ r_arg $ cin_arg $ xmax_arg $ wmax_arg $ basis_arg
      $ check_arg)

let () =
  let doc = "Tap-wise quantized Winograd F4 — paper reproduction driver" in
  let info = Cmd.info "twq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; trace_cmd; layers_cmd; train_cmd; publish_cmd;
            prune_cmd; serve_cmd; loadgen_cmd; route_cmd; stats_cmd; rns_cmd;
          ]))
