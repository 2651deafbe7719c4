(* Per-layer measurements of the traced run.  Every layer is timed from
   outside, through its public functions, each call inside a span. *)

open Common
module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Rng = Twq_util.Rng
module Transform = Twq_winograd.Transform
module Kernels = Twq_winograd.Kernels
module MK = Twq_winograd.Microkernel
module Tapwise = Twq_quant.Tapwise
module Pruning = Twq_quant.Pruning
module Plan = Twq_nn.Plan
module Int_graph = Twq_nn.Int_graph
module Registry = Twq_serve.Registry
module Model = Twq_serve.Model
module Server = Twq_serve.Server
module Router = Twq_serve.Router

let timed name f = Spans.within name (fun () -> time_median f)

(* -------------------------------------------------- tap-wise layers *)

(* A tap-wise F4 layer with random weights, calibrated on a random batch:
   the shape, not the values, decides its cost. *)
let make_layer rng ~cin ~cout ~res =
  let w =
    Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.
      ~sigma:(sqrt (2. /. float_of_int (9 * cin)))
  in
  let x = Tensor.rand_gaussian rng [| 2; cin; res; res |] ~mu:0. ~sigma:1. in
  Tapwise.calibrate ~config:(Tapwise.default_config Transform.F4) ~w
    ~sample_inputs:[ x ] ~pad:1 ()

(* The 17 stride-1 3×3 convolutions of CIFAR ResNet-20 at channel width
   [16 / width_div] and input [res]: (cin, cout, res). *)
let resnet20_wino_shapes ~width_div ~res =
  let c = 16 / width_div in
  ((3, c, res) :: List.init 6 (fun _ -> (c, c, res)))
  @ List.init 5 (fun _ -> (2 * c, 2 * c, res / 2))
  @ List.init 5 (fun _ -> (4 * c, 4 * c, res / 4))

(* The three ResNet-20 stage shapes the kernel-level metrics use: full
   width, 32×32 input, batch 8. *)
let stages = [ ("s1", 16, 32); ("s2", 32, 16); ("s3", 64, 8) ]
let stage_batch = 8
let tiles_of res = ((res + 3) / 4) * ((res + 3) / 4)

let forward_metrics rng =
  List.concat_map
    (fun (tag, c, res) ->
      let l = make_layer rng ~cin:c ~cout:c ~res in
      let x =
        Itensor.init [| stage_batch; c; res; res |] (fun _ -> Rng.int rng 255 - 127)
      in
      let out = Itensor.zeros [| stage_batch; c; res; res |] in
      List.map
        (fun (variant, l) ->
          let p = Tapwise.pack l in
          let t =
            timed
              (Printf.sprintf "tapwise.forward_int_into.%s.%s" tag variant)
              (fun () -> Tapwise.forward_int_into p x ~out)
          in
          (Printf.sprintf "tapwise.forward_ms.%s.%s" tag variant, "ms", 1e3 *. t))
        [ ("dense", l); ("d30", Pruning.prune_layer l ~density:0.3) ])
    stages

(* ------------------------------------------------------- microkernels *)

let gemm_metrics rng =
  let cfg = MK.config () in
  let mr = cfg.MK.mr and nr = cfg.MK.nr and kc = cfg.MK.kc in
  List.concat_map
    (fun (tag, c, res) ->
      let rows = tiles_of res * stage_batch and k = c and cols = c in
      let rows_p = MK.round_up rows mr and cols_p = MK.round_up cols nr in
      (* A: Winograd-domain activations (about 10 bits); B: int8 weights,
         pad lanes zero. *)
      let vp =
        Array.init (rows_p * k) (fun j ->
            if (j / (k * mr) * mr) + (j mod mr) < rows then Rng.int rng 1023 - 511
            else 0)
      in
      let b_at ~keep j =
        let lane = j mod nr and panel = j / (k * nr) in
        if (panel * nr) + lane < cols && keep () then Rng.int rng 255 - 127
        else 0
      in
      let up = Array.init (cols_p * k) (b_at ~keep:(fun () -> true)) in
      let up_sparse =
        Array.init (cols_p * k) (b_at ~keep:(fun () -> Rng.int rng 10 < 3))
      in
      let sp = MK.compress_panel ~nr ~k ~cols:cols_p up_sparse ~uo:0 in
      let c_buf = Array.make (rows_p * cols_p) 0 in
      let dense_t =
        timed ("microkernel.gemm_i32." ^ tag) (fun () ->
            MK.gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp ~vo:0 ~up ~uo:0
              ~c:c_buf ~co:0 ~cstride:cols_p)
      in
      let sparse_t =
        timed ("microkernel.gemm_i32_sparse." ^ tag) (fun () ->
            MK.gemm_i32_sparse ~mr ~rows_p ~sp ~vp ~vo:0 ~c:c_buf ~co:0
              ~cstride:cols_p)
      in
      let dense_macs = float_of_int (rows * k * cols) in
      let sparse_macs = float_of_int (rows * MK.sparse_nnz sp) in
      [
        (Printf.sprintf "microkernel.gemm_us.%s.dense" tag, "us", 1e6 *. dense_t);
        (Printf.sprintf "microkernel.gemm_us.%s.sparse" tag, "us", 1e6 *. sparse_t);
        ( Printf.sprintf "microkernel.gmacs.%s.dense" tag,
          "GMAC/s",
          dense_macs /. dense_t /. 1e9 );
        ( Printf.sprintf "microkernel.gmacs.%s.sparse" tag,
          "GMAC/s",
          sparse_macs /. sparse_t /. 1e9 );
      ])
    stages

(* ---------------------------------------------------- F4 transforms *)

let transform_metrics rng =
  let k = Kernels.i32_specialized Transform.F4 in
  let t = k.Kernels.tile and m = k.Kernels.mout in
  let tiles = 4096 in
  let src = Array.init (tiles * t * t) (fun _ -> Rng.int rng 255 - 127) in
  let dst = Array.make (tiles * t * t) 0 in
  let tmp = Array.make (t * t) 0 in
  let per_tile name f =
    let s =
      timed name (fun () ->
          for i = 0 to tiles - 1 do
            f i
          done)
    in
    1e9 *. s /. float_of_int tiles
  in
  let input =
    per_tile "kernels.input" (fun i ->
        k.Kernels.input src (i * t * t) dst (i * t * t) tmp)
  in
  let output =
    per_tile "kernels.output" (fun i ->
        k.Kernels.output src (i * t * t) dst (i * m * m) tmp)
  in
  [
    ("kernels.input_ns_per_tile", "ns", input);
    ("kernels.output_ns_per_tile", "ns", output);
  ]

(* ------------------------------------------------ set-up components *)

let setup_metrics (w : Models.workload) ~artifacts rng =
  let dir = Models.registry_dir ~artifacts 0 in
  let open_ms = timed "registry.open_dir" (fun () -> Closed.open_registry dir) in
  (* Warming needs a model whose plan cache is still empty: load a fresh
     one per call, untimed. *)
  let warm_samples =
    Array.init 7 (fun _ ->
        let m = (Closed.resolve (Closed.open_registry dir)).Registry.model in
        let t0 = now () in
        Spans.within "model.warm" (fun () ->
            Model.warm m ~input_dims:(Models.input_dims w)
              ~batch_sizes:(List.init w.Models.max_batch (fun i -> i + 1)));
        now () -. t0)
  in
  let layers =
    List.map
      (fun (cin, cout, res) ->
        let l = make_layer rng ~cin ~cout ~res in
        match w.Models.density with
        | None -> (l, res)
        | Some density -> (Pruning.prune_layer l ~density, res))
      (resnet20_wino_shapes ~width_div:w.Models.width_div ~res:w.Models.res)
  in
  let pack_s =
    timed "tapwise.pack" (fun () -> List.map (fun (l, _) -> Tapwise.pack l) layers)
  in
  (* Winograd-domain MACs per image of these layers: t² taps per tile,
     dense and with pruned (zero) weights skipped. *)
  let macs ~nonzero =
    List.fold_left
      (fun acc ((l : Tapwise.layer), res) ->
        let wq = l.Tapwise.wq in
        let per_tile =
          if nonzero then
            Array.fold_left (fun a v -> if v <> 0 then a + 1 else a) 0 wq.Itensor.data
          else Itensor.numel wq
        in
        acc + (tiles_of res * per_tile))
      0 layers
  in
  [
    ("registry.open_ms", "ms", 1e3 *. open_ms);
    ("model.warm_ms", "ms", 1e3 *. median warm_samples);
    ("tapwise.pack_ms", "ms", 1e3 *. pack_s);
    ("microkernel.macs_per_image.dense", "count", float_of_int (macs ~nonzero:false));
    ("microkernel.macs_per_image.nonzero", "count", float_of_int (macs ~nonzero:true));
  ]

(* ----------------------------------------------------------- plan *)

let plan_metrics (w : Models.workload) ~graph ~(inputs : Tensor.t array) ~batch =
  let cache =
    match Int_graph.plans graph with
    | Some c -> c
    | None -> failwith "served graph has no plan cache"
  in
  let plan = Plan.plan cache ~input_shape:(Array.append [| batch |] (Models.input_dims w)) in
  let x = Models.batch_of (Array.init batch (fun i -> inputs.(i mod Array.length inputs))) in
  let t = timed "plan.execute" (fun () -> Plan.execute plan x) in
  let sparse, _ = Int_graph.wino_sparsity graph in
  [
    ("plan.execute_ms", "ms", 1e3 *. t);
    ("plan.arena_words", "count", float_of_int (Plan.arena_words plan));
    ("plan.fused_epilogues", "count", float_of_int (Plan.fused_epilogues plan));
    ("tapwise.sparse_taps", "count", float_of_int sparse);
  ]

(* ------------------------------------------------------ wire, router *)

(* [fleet] serves the workload's model; requests go one at a time, first
   straight to its first shard, then through its router. *)
let wire_metrics (fleet : Fleet.fleet) ~inputs =
  let shard = Server.daemon_path (List.hd fleet.Fleet.daemons) in
  let direct = Fleet.wire_overheads ~path:shard ~inputs in
  let routed = Fleet.wire_overheads ~path:fleet.Fleet.rpath ~inputs in
  let counters = Router.counters fleet.Fleet.router in
  let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  [
    ("wire.overhead_ms", "ms", 1e3 *. median direct);
    ("router.hop_ms", "ms", 1e3 *. (median routed -. median direct));
    ("router.retries", "count", counter "retries");
    ("router.failovers", "count", counter "failovers");
  ]

(* Everything but the serving-phase metrics, which come from the traced
   phase itself. *)
let measure (w : Models.workload) ~artifacts ~graph ~inputs ~batch =
  let rng = Rng.create 4242 in
  setup_metrics w ~artifacts rng
  @ plan_metrics w ~graph ~inputs ~batch
  @ forward_metrics rng @ gemm_metrics rng @ transform_metrics rng
