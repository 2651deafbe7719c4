(* Fault-injection tests for the crash-safe persistence layer (PR 3):
   corrupted/truncated checkpoints must surface as typed errors, a killed
   training run must resume bit-identically, and non-finite losses or
   gradients must never reach the optimizer state. *)

module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Rng = Twq_util.Rng
module Checkpoint = Twq_util.Checkpoint
module Transform = Twq_winograd.Transform
module Serialize = Twq_quant.Serialize
module Tapwise = Twq_quant.Tapwise
module Qconv = Twq_quant.Qconv
module Quantizer = Twq_quant.Quantizer
module Calibration = Twq_quant.Calibration
module Synth = Twq_dataset.Synth_images
module Qat = Twq_nn.Qat_model
module Trainer = Twq_nn.Trainer
open Twq_autodiff

let tmp_path suffix =
  let p = Filename.temp_file "twq_robustness" suffix in
  Sys.remove p;
  p

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1"; path ^ ".tmp" ]

let write_raw path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------ checkpoint *)

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint roundtrip (arbitrary payloads)" ~count:50
    QCheck.string (fun payload ->
      let path = tmp_path ".ckpt" in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          Checkpoint.save path payload;
          match Checkpoint.load path with
          | Ok p -> String.equal p payload
          | Error _ -> false))

let test_checkpoint_truncation () =
  let path = tmp_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let payload = "the quick brown fox jumps over the lazy dog" in
      Checkpoint.save path payload;
      let raw = read_raw path in
      let saw_truncated = ref false in
      for cut = 0 to String.length raw - 1 do
        write_raw path (String.sub raw 0 cut);
        match Checkpoint.load path with
        | Ok _ ->
            Alcotest.failf "truncation at byte %d of %d accepted" cut
              (String.length raw)
        | Error (Checkpoint.Truncated _) -> saw_truncated := true
        | Error _ -> ()
      done;
      Alcotest.(check bool) "some cuts classified Truncated" true !saw_truncated)

let test_checkpoint_byte_flips () =
  let path = tmp_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let payload = "winograd tap-wise training state 0123456789" in
      Checkpoint.save path payload;
      let raw = read_raw path in
      let saw_crc = ref false in
      String.iteri
        (fun i c ->
          let b = Bytes.of_string raw in
          Bytes.set b i (Char.chr (Char.code c lxor 0x20));
          write_raw path (Bytes.to_string b);
          match Checkpoint.load path with
          | Ok _ -> Alcotest.failf "byte flip at offset %d accepted" i
          | Error (Checkpoint.Corrupt_checksum _) -> saw_crc := true
          | Error _ -> ())
        raw;
      Alcotest.(check bool) "payload flips caught by CRC" true !saw_crc)

let test_checkpoint_bad_version () =
  let path = tmp_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      Checkpoint.save ~version:2 path "future payload";
      match Checkpoint.load path with
      | Error (Checkpoint.Bad_version { found = 2; expected = 1 }) -> ()
      | Ok _ -> Alcotest.fail "version 2 accepted by a version-1 reader"
      | Error e -> Alcotest.failf "wrong error: %s" (Checkpoint.error_to_string e))

let test_checkpoint_orphan_tmp () =
  let path = tmp_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      (* A kill mid-write leaves a stale [path ^ ".tmp"] and no final file:
         nothing must be loaded from it, and the next save must succeed. *)
      write_raw (path ^ ".tmp") "half-written garbage";
      (match Checkpoint.load_latest (Checkpoint.fallback_paths path) with
      | Error (Checkpoint.Parse_error _) -> ()
      | Ok _ -> Alcotest.fail "loaded state from an orphan tmp file"
      | Error e -> Alcotest.failf "wrong error: %s" (Checkpoint.error_to_string e));
      Checkpoint.save path "real payload";
      Alcotest.(check string)
        "save overwrites the orphan" "real payload"
        (Result.get_ok (Checkpoint.load path)))

let test_checkpoint_rotation_fallback () =
  let path = tmp_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      Checkpoint.save ~rotate:true path "generation one";
      Checkpoint.save ~rotate:true path "generation two";
      (* Corrupt the newest generation; load_latest must fall back. *)
      let raw = read_raw path in
      write_raw path (String.sub raw 0 (String.length raw - 3));
      match Checkpoint.load_latest (Checkpoint.fallback_paths path) with
      | Ok (p, payload) ->
          Alcotest.(check string) "fallback path" (path ^ ".1") p;
          Alcotest.(check string) "fallback payload" "generation one" payload
      | Error e ->
          Alcotest.failf "no fallback: %s" (Checkpoint.error_to_string e))

(* ------------------------------------------------------------- serialize *)

let rand_layer seed =
  let rng = Rng.create (1000 + seed) in
  let variant = if seed mod 2 = 0 then Transform.F2 else Transform.F4 in
  let granularity =
    match seed mod 3 with
    | 0 -> Tapwise.Single_scale
    | 1 -> Tapwise.Tap_wise
    | _ -> Tapwise.Channel_tap_wise
  in
  let config =
    {
      Tapwise.variant;
      act_bits = 8;
      wino_bits = 8 + (seed mod 3);
      granularity;
    }
  in
  let cin = 1 + (seed mod 2) and cout = 1 + (seed mod 3) in
  let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
  let bias =
    if seed mod 4 = 0 then
      Some (Tensor.rand_gaussian rng [| cout |] ~mu:0.0 ~sigma:0.1)
    else None
  in
  let sample_inputs =
    [ Tensor.rand_gaussian rng [| 1; cin; 8; 8 |] ~mu:0.0 ~sigma:1.0 ]
  in
  Tapwise.calibrate ~config ~w ?bias ~sample_inputs ~pad:1 ()

let prop_serialize_roundtrip_all_granularities =
  QCheck.Test.make ~name:"tapwise serialize roundtrip (all granularities)"
    ~count:30 QCheck.(int_range 0 10_000) (fun seed ->
      let layer = rand_layer seed in
      let s = Serialize.layer_to_string layer in
      match Serialize.layer_of_string_result s with
      | Ok l2 -> String.equal s (Serialize.layer_to_string l2)
      | Error _ -> false)

let rand_qconv seed =
  let rng = Rng.create (2000 + seed) in
  let cin = 1 + (seed mod 2) and cout = 1 + (seed mod 3) in
  let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
  let bias =
    if seed mod 2 = 0 then
      Some (Tensor.rand_gaussian rng [| cout |] ~mu:0.0 ~sigma:0.1)
    else None
  in
  Qconv.calibrate ~per_channel:(seed mod 3 = 0) ~w ?bias
    ~sample_inputs:[ Tensor.rand_gaussian rng [| 1; cin; 6; 6 |] ~mu:0.0 ~sigma:1.0 ]
    ~stride:1 ~pad:1 ()

let prop_qconv_roundtrip =
  QCheck.Test.make ~name:"qconv serialize roundtrip" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let s = Serialize.qconv_to_string (rand_qconv seed) in
      match Serialize.qconv_of_string_result s with
      | Ok l2 -> String.equal s (Serialize.qconv_to_string l2)
      | Error _ -> false)

let rejects what s =
  match Serialize.layer_of_string_result s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s accepted" what

let test_serialize_rejects_malformed () =
  rejects "empty input" "";
  rejects "garbage" "hello world";
  rejects "unknown variant" "tapwise-layer v1\nconfig F9 8 8 false tap\n";
  rejects "unknown granularity" "tapwise-layer v1\nconfig F4 8 8 true weird\n";
  rejects "negative scale" "tapwise-layer v1\nconfig F4 8 8 true tap\nscales 1 -0x1p0 0x1p0 0x1p0\n";
  rejects "nan scale" "tapwise-layer v1\nconfig F4 8 8 true tap\nscales 1 nan 0x1p0 0x1p0\n";
  let valid = Serialize.layer_to_string (rand_layer 1) in
  for frac = 1 to 9 do
    rejects "truncated layer" (String.sub valid 0 (String.length valid * frac / 10))
  done;
  (* The raising wrapper raises Failure — not Scanf/End_of_file/Out_of_memory. *)
  (match Serialize.layer_of_string "bogus" with
  | exception Failure _ -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "garbage accepted")

(* The typed failure must name what was rejected. *)
let rejects_naming ?(parse = fun s -> Result.map ignore (Serialize.layer_of_string_result s))
    what ~needle s =
  match parse s with
  | Ok () -> Alcotest.failf "%s accepted" what
  | Error e ->
      let msg = e.Serialize.message in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length msg
        && (String.sub msg i n = needle || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "%s: message %S lacks %S" what msg needle

(* Every layer the library builds has pow2 scales; an artifact claiming
   otherwise is refused at load instead of running a datapath that no
   longer exists. *)
let test_serialize_rejects_pow2_false () =
  let valid = Serialize.layer_to_string (rand_layer 3) in
  let line_end = String.index valid '\n' + 1 in
  let config_end = String.index_from valid line_end '\n' in
  let config = String.sub valid line_end (config_end - line_end) in
  let flipped =
    String.concat " "
      (List.map
         (fun tok -> if tok = "true" then "false" else tok)
         (String.split_on_char ' ' config))
  in
  Alcotest.(check bool) "config carries the pow2 token" true (flipped <> config);
  rejects_naming "pow2 false" ~needle:"pow2"
    (String.sub valid 0 line_end ^ flipped
    ^ String.sub valid config_end (String.length valid - config_end))

(* The forward requantizes input tap (i,j) by a shift of log2 (s_b/s_x);
   a ratio that is not a power of two would be rounded to the nearest
   shift, silently off the layer's own scales. *)
let test_serialize_rejects_inexact_tap_scale () =
  let l = rand_layer 4 in
  let s_b = Array.map Array.copy l.Tapwise.s_b in
  s_b.(0).(0) <- 3.0 *. l.Tapwise.s_x;
  rejects_naming "s_b(0,0) = 3 s_x" ~needle:"s_b(0,0)"
    (Serialize.layer_to_string { l with Tapwise.s_b });
  s_b.(0).(0) <- 4.0 *. l.Tapwise.s_x;
  match Serialize.layer_of_string_result
          (Serialize.layer_to_string { l with Tapwise.s_b }) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "s_b(0,0) = 4 s_x rejected: %s" e.Serialize.message

(* [Tapwise.pack] folds s_b·s_g into one exact rescale, which needs every
   weight tap scale to be a power of two: a non-pow2 s_g or s_g_channel
   entry is refused at load, naming the tap. *)
let test_serialize_rejects_non_pow2_weight_scale () =
  let l = rand_layer 4 in
  let s_g = Array.map Array.copy l.Tapwise.s_g in
  s_g.(0).(0) <- 3.0 *. s_g.(0).(0);
  rejects_naming "s_g(0,0) tripled" ~needle:"s_g(0,0)"
    (Serialize.layer_to_string { l with Tapwise.s_g });
  s_g.(0).(0) <- 2.0 *. l.Tapwise.s_g.(0).(0);
  (match Serialize.layer_of_string_result
           (Serialize.layer_to_string { l with Tapwise.s_g }) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "s_g(0,0) doubled rejected: %s" e.Serialize.message);
  let l = rand_layer 5 in
  let grids = Array.map (Array.map Array.copy) (Option.get l.Tapwise.s_g_channel) in
  grids.(0).(1).(1) <- 3.0 *. grids.(0).(1).(1);
  rejects_naming "s_g_channel(1,1) tripled" ~needle:"s_g_channel(1,1)"
    (Serialize.layer_to_string { l with Tapwise.s_g_channel = Some grids })

(* A stored weight outside the range [Quantizer.quantize ~bits] produces
   would wrap the int accumulators of the GEMM and of the oracle alike:
   it is refused at load, naming the channel and tap.  Weights on both
   rails still load. *)
let test_serialize_bounds_weights () =
  let set wq (co, ci, i, j) v =
    let wq = Itensor.copy wq in
    Itensor.set4 wq co ci i j v;
    wq
  in
  let outside = [ 1 lsl 61; -(1 lsl 61) ] in
  (* Tap-wise: rand_layer 4 is F2 (4x4 taps), 1 -> 2 channels. *)
  let l = rand_layer 4 in
  let bits = l.Tapwise.config.Tapwise.wino_bits in
  let tap_wq pos v = Serialize.layer_to_string { l with Tapwise.wq = set l.Tapwise.wq pos v } in
  List.iter
    (fun v ->
      rejects_naming (Printf.sprintf "tap weight %d" v)
        ~needle:"output channel 1, input channel 0, tap (2,3)"
        (tap_wq (1, 0, 2, 3) v))
    (Quantizer.qmax ~bits + 1 :: Quantizer.qmin ~bits - 1 :: outside);
  let rails =
    set (set l.Tapwise.wq (0, 0, 0, 0) (Quantizer.qmax ~bits)) (1, 0, 3, 3)
      (Quantizer.qmin ~bits)
  in
  (match Serialize.layer_of_string_result
           (Serialize.layer_to_string { l with Tapwise.wq = rails }) with
  | Ok l2 -> Alcotest.(check bool) "rails kept" true (Itensor.equal rails l2.Tapwise.wq)
  | Error e -> Alcotest.failf "tap weights on the rails rejected: %s" e.Serialize.message);
  (* Spatial: rand_qconv 4 is 3x3, 1 -> 2 channels, at act_bits. *)
  let q = rand_qconv 4 in
  let bits = q.Qconv.act_bits in
  let qconv_rejects v =
    rejects_naming (Printf.sprintf "qconv weight %d" v)
      ~parse:(fun s -> Result.map ignore (Serialize.qconv_of_string_result s))
      ~needle:"output channel 1, input channel 0, offset (2,1)"
      (Serialize.qconv_to_string { q with Qconv.wq = set q.Qconv.wq (1, 0, 2, 1) v })
  in
  List.iter qconv_rejects (Quantizer.qmax ~bits + 1 :: Quantizer.qmin ~bits - 1 :: outside);
  let rails =
    set (set q.Qconv.wq (0, 0, 0, 0) (Quantizer.qmax ~bits)) (1, 0, 2, 2)
      (Quantizer.qmin ~bits)
  in
  match Serialize.qconv_of_string_result
          (Serialize.qconv_to_string { q with Qconv.wq = rails }) with
  | Ok q2 -> Alcotest.(check bool) "rails kept" true (Itensor.equal rails q2.Qconv.wq)
  | Error e -> Alcotest.failf "qconv weights on the rails rejected: %s" e.Serialize.message

let tensor_rejects what s =
  match Serialize.read_tensor (Serialize.reader_of_string s) with
  | exception Serialize.Parse_failure _ -> ()
  | exception e -> Alcotest.failf "%s: wrong exception %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s accepted" what

let test_serialize_shape_validation () =
  tensor_rejects "negative rank" "-2 4\n0x1p0 0x1p0 0x1p0 0x1p0";
  tensor_rejects "zero rank" "0\n";
  tensor_rejects "huge rank" "9 1 1 1 1 1 1 1 1 1\n0x1p0";
  tensor_rejects "negative dimension" "2 -1 4\n0x1p0";
  tensor_rejects "zero dimension" "2 0 4\n0x1p0";
  (* Allocation bomb: the element count dwarfs the input; must be rejected
     before any allocation happens. *)
  tensor_rejects "allocation bomb" "2 1000000 1000000\n0x1p0 0x1p0";
  tensor_rejects "overflowing dims" "3 3037000500 3037000500 4\n0x1p0";
  (* A well-formed tensor still parses. *)
  let t =
    Serialize.read_tensor
      (Serialize.reader_of_string "2 2 2\n0x1p0 0x1p1 0x1p2 0x1p3")
  in
  Alcotest.(check (float 0.0)) "parsed value" 8.0 (Tensor.get t [| 1; 1 |])

let test_serialize_error_offsets () =
  match Serialize.layer_of_string_result "tapwise-layer v1\nconfig F4 99 8 false tap\n" with
  | Error e ->
      Alcotest.(check bool) "offset points into the input" true
        (e.Serialize.offset > 0 && e.Serialize.offset < 50)
  | Ok _ -> Alcotest.fail "act_bits 99 accepted"

(* ------------------------------------------------------ optimizer guards *)

let test_sgd_skips_nonfinite () =
  let p1 = Var.of_tensor (Tensor.of_array [| 1 |] [| 2.0 |]) in
  let p2 = Var.of_tensor (Tensor.of_array [| 1 |] [| 3.0 |]) in
  let opt = Optim.sgd ~momentum:0.0 ~weight_decay:0.0 ~lr:0.1 [ p1; p2 ] in
  p1.Var.grad.Tensor.data.(0) <- Float.nan;
  p2.Var.grad.Tensor.data.(0) <- 1.0;
  Alcotest.(check bool) "grads_finite detects NaN" false
    (Optim.grads_finite [ p1; p2 ]);
  Optim.sgd_step opt;
  Alcotest.(check (float 0.0)) "poisoned param untouched" 2.0
    p1.Var.data.Tensor.data.(0);
  Alcotest.(check (float 1e-12)) "healthy param stepped" 2.9
    p2.Var.data.Tensor.data.(0);
  Alcotest.(check (float 0.0)) "poisoned grad cleared" 0.0
    p1.Var.grad.Tensor.data.(0)

let test_clip_noop_on_nonfinite () =
  let p = Var.of_tensor (Tensor.of_array [| 2 |] [| 1.0; 1.0 |]) in
  p.Var.grad.Tensor.data.(0) <- Float.infinity;
  p.Var.grad.Tensor.data.(1) <- 4.0;
  Optim.clip_grad_norm [ p ] ~max_norm:1.0;
  Alcotest.(check (float 0.0)) "finite grad entry untouched" 4.0
    p.Var.grad.Tensor.data.(1)

let test_adam_drops_nonfinite () =
  let sp = Scale_param.create ~pow2:false ~init:1.0 () in
  let before = Scale_param.value sp in
  Scale_param.accumulate_grad sp Float.nan;
  Scale_param.adam_step ~lr:0.1 sp;
  Alcotest.(check (float 0.0)) "NaN grad discarded" before (Scale_param.value sp);
  Scale_param.accumulate_grad sp 1.0;
  Scale_param.adam_step ~lr:0.1 sp;
  Alcotest.(check bool) "finite grad still applies" true
    (Scale_param.value sp <> before)

let test_scale_snapshot_roundtrip () =
  let sp = Scale_param.create ~pow2:false ~init:0.5 () in
  Scale_param.accumulate_grad sp 0.3;
  Scale_param.adam_step ~lr:0.05 sp;
  let snap = Scale_param.snapshot sp in
  let v = Scale_param.value sp in
  Scale_param.accumulate_grad sp (-0.7);
  Scale_param.adam_step ~lr:0.05 sp;
  Alcotest.(check bool) "state moved" true (Scale_param.value sp <> v);
  Scale_param.restore sp snap;
  Alcotest.(check (float 0.0)) "restored exactly" v (Scale_param.value sp)

let test_calibration_snapshot_roundtrip () =
  let o = Calibration.create () in
  Calibration.observe o 2.0;
  let snap = Calibration.snapshot o in
  let v = Calibration.value o in
  Calibration.observe o 100.0;
  Alcotest.(check bool) "observer moved" true (Calibration.value o <> v);
  Calibration.restore o snap;
  Alcotest.(check (float 0.0)) "restored exactly" v (Calibration.value o)

(* --------------------------------------------------------------- trainer *)

let tiny_dataset () =
  let spec =
    { Synth.default_spec with n_train = 48; n_valid = 16; n_test = 16 }
  in
  Synth.generate ~spec ~seed:11 ()

let wa_model () =
  Qat.create
    {
      (Qat.default_config
         (Qat.Wa
            {
              variant = Transform.F4;
              wino_bits = 8;
              tapwise = true;
              pow2 = false;
              learned = true;
            }))
      with
      arch = Qat.Vgg_mini [ 4 ];
    }
    ~seed:5

let int8_model () =
  Qat.create
    { (Qat.default_config Qat.Int8_spatial) with arch = Qat.Vgg_mini [ 4 ] }
    ~seed:5

let opts ?checkpoint ?loss_tap ?(data_parallel = false) ?divergence epochs =
  {
    Trainer.default_options with
    epochs;
    batch_size = 16;
    seed = 3;
    data_parallel;
    checkpoint;
    loss_tap;
    divergence =
      Option.value divergence ~default:Trainer.default_divergence;
  }

let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_history_equal what (h1 : Trainer.history) (h2 : Trainer.history) =
  Alcotest.(check int)
    (what ^ ": epochs")
    (Array.length h1.Trainer.train_loss)
    (Array.length h2.Trainer.train_loss);
  Array.iteri
    (fun e l ->
      if
        (not (float_bits_eq l h2.Trainer.train_loss.(e)))
        || not (float_bits_eq h1.Trainer.valid_acc.(e) h2.Trainer.valid_acc.(e))
      then
        Alcotest.failf "%s: epoch %d differs (%h/%h vs %h/%h)" what e l
          h1.Trainer.valid_acc.(e)
          h2.Trainer.train_loss.(e)
          h2.Trainer.valid_acc.(e))
    h1.Trainer.train_loss

let all_finite_params model =
  List.for_all
    (fun p -> Array.for_all Float.is_finite p.Var.data.Tensor.data)
    (Qat.params model)

let test_resume_equivalence_wa () =
  let dataset = tiny_dataset () in
  let path = tmp_path ".train" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let ck = { Trainer.ckpt_path = path; ckpt_every = 2 } in
      let full = Trainer.train (wa_model ()) dataset (opts 4) in
      ignore (Trainer.train (wa_model ()) dataset (opts ~checkpoint:ck 2));
      let resumed =
        Trainer.train_resume (wa_model ()) dataset (opts ~checkpoint:ck 4)
      in
      check_history_equal "epoch-boundary resume" full resumed;
      (* Resuming with no checkpoint on disk falls back to fresh training
         and must match the uninterrupted run too. *)
      cleanup path;
      let fresh =
        Trainer.train_resume (wa_model ()) dataset (opts ~checkpoint:ck 4)
      in
      check_history_equal "resume without snapshot" full fresh)

exception Crash

let test_crash_mid_epoch_resume_wa () =
  let dataset = tiny_dataset () in
  let path = tmp_path ".train" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let ck = { Trainer.ckpt_path = path; ckpt_every = 1 } in
      let full = Trainer.train (wa_model ()) dataset (opts 3) in
      let tap ~epoch ~batch v =
        if epoch = 1 && batch = 2 then raise Crash else v
      in
      (try
         ignore
           (Trainer.train (wa_model ()) dataset
              (opts ~checkpoint:ck ~loss_tap:tap 3));
         Alcotest.fail "injected crash did not fire"
       with Crash -> ());
      (* The interrupted run died mid-epoch, between two snapshots. *)
      let resumed =
        Trainer.train_resume (wa_model ()) dataset (opts ~checkpoint:ck 3)
      in
      check_history_equal "mid-epoch crash resume" full resumed)

let test_crash_resume_corrupt_falls_back () =
  let dataset = tiny_dataset () in
  let path = tmp_path ".train" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let ck = { Trainer.ckpt_path = path; ckpt_every = 1 } in
      let full = Trainer.train (int8_model ()) dataset (opts 3) in
      ignore (Trainer.train (int8_model ()) dataset (opts ~checkpoint:ck 2));
      (* Newest snapshot corrupted on disk: resume must use the previous
         generation and still reproduce the uninterrupted history. *)
      let raw = read_raw path in
      let b = Bytes.of_string raw in
      Bytes.set b (String.length raw - 5)
        (Char.chr (Char.code (Bytes.get b (String.length raw - 5)) lxor 0x01));
      write_raw path (Bytes.to_string b);
      let resumed =
        Trainer.train_resume (int8_model ()) dataset (opts ~checkpoint:ck 3)
      in
      check_history_equal "corrupt-newest fallback resume" full resumed)

let test_resume_equivalence_data_parallel () =
  let dataset = tiny_dataset () in
  let path = tmp_path ".train" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let ck = { Trainer.ckpt_path = path; ckpt_every = 2 } in
      let full =
        Trainer.train (int8_model ()) dataset (opts ~data_parallel:true 4)
      in
      ignore
        (Trainer.train (int8_model ()) dataset
           (opts ~checkpoint:ck ~data_parallel:true 2));
      let resumed =
        Trainer.train_resume (int8_model ()) dataset
          (opts ~checkpoint:ck ~data_parallel:true 4)
      in
      check_history_equal "data-parallel resume" full resumed)

let test_nan_loss_skipped () =
  let dataset = tiny_dataset () in
  let model = int8_model () in
  let tap ~epoch ~batch v = if epoch = 1 && batch = 0 then Float.nan else v in
  let history = Trainer.train model dataset (opts ~loss_tap:tap 3) in
  Alcotest.(check bool) "history finite" true
    (Array.for_all Float.is_finite history.Trainer.train_loss);
  Alcotest.(check bool) "params finite" true (all_finite_params model)

let test_nan_divergence_rollback () =
  let dataset = tiny_dataset () in
  let model = int8_model () in
  (* Every batch of epoch 1 is poisoned: the guard must decay the LR, roll
     back to the last good snapshot, then skip the (deterministically
     recurring) poisoned batches rather than loop forever. *)
  let tap ~epoch ~batch:_ v = if epoch = 1 then Float.nan else v in
  let history =
    Trainer.train model dataset
      (opts ~loss_tap:tap
         ~divergence:{ Trainer.max_failures = 2; lr_backoff = 0.5 }
         3)
  in
  Alcotest.(check (float 0.0)) "poisoned epoch contributes no loss" 0.0
    history.Trainer.train_loss.(1);
  Alcotest.(check bool) "history finite" true
    (Array.for_all Float.is_finite history.Trainer.train_loss);
  Alcotest.(check bool) "accuracies finite" true
    (Array.for_all Float.is_finite history.Trainer.valid_acc);
  Alcotest.(check bool) "params finite" true (all_finite_params model)

let test_train_guards () =
  let dataset = tiny_dataset () in
  Alcotest.check_raises "empty split"
    (Invalid_argument "Trainer.train: empty training split") (fun () ->
      ignore (Trainer.train (int8_model ()) { dataset with Synth.train = [||] } (opts 1)));
  Alcotest.check_raises "resume without checkpoint config"
    (Invalid_argument "Trainer.train_resume: options.checkpoint not set")
    (fun () -> ignore (Trainer.train_resume (int8_model ()) dataset (opts 1)))

let test_resume_rejects_mismatched_model () =
  let dataset = tiny_dataset () in
  let path = tmp_path ".train" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let ck = { Trainer.ckpt_path = path; ckpt_every = 0 } in
      ignore (Trainer.train (int8_model ()) dataset (opts ~checkpoint:ck 1));
      (* A model with different shapes must reject the snapshot (and fall
         back to fresh training) instead of loading garbage weights. *)
      let other =
        Qat.create
          { (Qat.default_config Qat.Int8_spatial) with arch = Qat.Vgg_mini [ 8 ] }
          ~seed:5
      in
      let h = Trainer.train_resume other dataset (opts ~checkpoint:ck 1) in
      Alcotest.(check bool) "trained fresh" true
        (Array.for_all Float.is_finite h.Trainer.train_loss);
      Alcotest.(check bool) "params finite" true (all_finite_params other))

let () =
  Alcotest.run "robustness"
    [
      ( "checkpoint",
        [
          QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
          Alcotest.test_case "truncation" `Quick test_checkpoint_truncation;
          Alcotest.test_case "byte flips" `Quick test_checkpoint_byte_flips;
          Alcotest.test_case "bad version" `Quick test_checkpoint_bad_version;
          Alcotest.test_case "orphan tmp" `Quick test_checkpoint_orphan_tmp;
          Alcotest.test_case "rotation fallback" `Quick
            test_checkpoint_rotation_fallback;
        ] );
      ( "serialize",
        [
          QCheck_alcotest.to_alcotest prop_serialize_roundtrip_all_granularities;
          QCheck_alcotest.to_alcotest prop_qconv_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick
            test_serialize_rejects_malformed;
          Alcotest.test_case "shape validation" `Quick
            test_serialize_shape_validation;
          Alcotest.test_case "error offsets" `Quick test_serialize_error_offsets;
          Alcotest.test_case "rejects pow2 false" `Quick
            test_serialize_rejects_pow2_false;
          Alcotest.test_case "rejects inexact tap scale" `Quick
            test_serialize_rejects_inexact_tap_scale;
          Alcotest.test_case "rejects non-pow2 weight tap scale" `Quick
            test_serialize_rejects_non_pow2_weight_scale;
          Alcotest.test_case "bounds quantized weights" `Quick
            test_serialize_bounds_weights;
        ] );
      ( "guards",
        [
          Alcotest.test_case "sgd skips non-finite" `Quick
            test_sgd_skips_nonfinite;
          Alcotest.test_case "clip no-ops on non-finite" `Quick
            test_clip_noop_on_nonfinite;
          Alcotest.test_case "adam drops non-finite" `Quick
            test_adam_drops_nonfinite;
          Alcotest.test_case "scale snapshot roundtrip" `Quick
            test_scale_snapshot_roundtrip;
          Alcotest.test_case "calibration snapshot roundtrip" `Quick
            test_calibration_snapshot_roundtrip;
        ] );
      ( "trainer",
        [
          Alcotest.test_case "resume equivalence (wa)" `Slow
            test_resume_equivalence_wa;
          Alcotest.test_case "mid-epoch crash resume (wa)" `Slow
            test_crash_mid_epoch_resume_wa;
          Alcotest.test_case "corrupt newest falls back" `Slow
            test_crash_resume_corrupt_falls_back;
          Alcotest.test_case "resume equivalence (data-parallel)" `Slow
            test_resume_equivalence_data_parallel;
          Alcotest.test_case "nan loss skipped" `Quick test_nan_loss_skipped;
          Alcotest.test_case "nan divergence rollback" `Quick
            test_nan_divergence_rollback;
          Alcotest.test_case "train guards" `Quick test_train_guards;
          Alcotest.test_case "mismatched model rejected" `Quick
            test_resume_rejects_mismatched_model;
        ] );
    ]
