(* Workload definitions, model preparation and the correctness oracle. *)

module Tensor = Twq_tensor.Tensor
module Rng = Twq_util.Rng
module Int_graph = Twq_nn.Int_graph
module Registry = Twq_serve.Registry
module Model = Twq_serve.Model
module MK = Twq_winograd.Microkernel

type mode =
  | Closed of { outstanding : int }
      (** one client thread keeps [outstanding] requests in flight *)
  | Open_poisson of { rate : float; shards : int }
      (** Poisson arrivals at [rate] req/s through a router to [shards]
          in-process shard daemons *)

type workload = {
  name : string;
  width_div : int;  (** ResNet-20 channel divisor *)
  res : int;  (** input height = width *)
  density : float option;  (** Winograd-domain pruning target *)
  mode : mode;
  max_batch : int;
  budget : float;  (** latency budget, seconds *)
  pool : int;  (** distinct request inputs, cycled *)
}

let model_name = "model"

(* The model weights are fixed; --seed draws the request inputs and the
   arrival schedule. *)
let model_seed = 7

let workloads =
  [
    {
      name = "r20-dense-b8";
      width_div = 1;
      res = 32;
      density = None;
      mode = Closed { outstanding = 8 };
      max_batch = 8;
      budget = 2.0;
      pool = 16;
    };
    {
      name = "r20-pruned-b8";
      width_div = 1;
      res = 32;
      density = Some 0.3;
      mode = Closed { outstanding = 8 };
      max_batch = 8;
      budget = 2.0;
      pool = 16;
    };
    {
      name = "fleet-poisson";
      width_div = 2;
      res = 8;
      density = None;
      mode = Open_poisson { rate = 100.; shards = 2 };
      max_batch = 8;
      budget = 0.025;
      pool = 32;
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (expected %s)" name
           (String.concat ", " (List.map (fun w -> w.name) workloads)))

let input_dims w = [| 3; w.res; w.res |]

let shard_count w =
  match w.mode with Open_poisson { shards; _ } -> shards | Closed _ -> 1

(* Registry directory of shard [i] inside the artifact directory. *)
let registry_dir ~artifacts i = Filename.concat artifacts (Printf.sprintf "reg%d" i)

(* Build the float model, fold BN, calibrate, optionally prune, and
   publish it into one registry per shard.  Runs in its own process. *)
let prepare w ~dir =
  let rng = Rng.create model_seed in
  let g =
    Twq_nn.Passes.fold_bn
      (Twq_nn.Gmodels.resnet20 ~rng ~classes:10 ~width_div:w.width_div ())
  in
  let cal = Tensor.rand_gaussian rng [| 4; 3; w.res; w.res |] ~mu:0. ~sigma:1. in
  let ig = Int_graph.quantize g ~calibration:cal () in
  let ig =
    match w.density with
    | None -> ig
    | Some density -> Int_graph.prune ig ~density
  in
  for i = 0 to shard_count w - 1 do
    match Registry.open_dir (registry_dir ~artifacts:dir i) with
    | Error e -> failwith (Registry.error_to_string e)
    | Ok reg -> (
        match
          Registry.publish reg ~name:model_name ~version:1
            ~input_dims:(input_dims w) (Model.Graph ig)
        with
        | Ok _ -> ()
        | Error e -> failwith (Registry.error_to_string e))
  done;
  Printf.printf "prepared %s: winograd density %.3f, %d winograd layers\n" w.name
    (Int_graph.winograd_density ig)
    (Int_graph.winograd_layer_count ig)

(* The request inputs of a run, drawn from the workload seed. *)
let inputs w ~seed =
  let rng = Rng.create (1_000_003 * (seed + 1)) in
  Array.init w.pool (fun _ ->
      Tensor.rand_gaussian rng (input_dims w) ~mu:0. ~sigma:1.)

let graph_of_entry (e : Registry.entry) =
  match e.Registry.model with
  | Model.Graph g -> g
  | Model.Net _ -> failwith "expected an integer-graph artifact"

let batch_of (xs : Tensor.t array) =
  let n = Array.length xs in
  let numel = Tensor.numel xs.(0) in
  let b = Tensor.zeros (Array.append [| n |] xs.(0).Tensor.shape) in
  Array.iteri (fun i x -> Array.blit x.Tensor.data 0 b.Tensor.data (i * numel) numel) xs;
  b

let rows_of (y : Tensor.t) =
  let n = Tensor.dim y 0 and c = Tensor.dim y 1 in
  Array.init n (fun i -> Array.sub y.Tensor.data (i * c) c)

(* Oracle logits per pool input: [Int_graph.run_ref].  For a pruned
   model, a dense pack (sparse threshold 0) of the same pruned weights
   must agree with it too; where they disagree the input has no oracle
   row ([None]), so every request served for it counts as failed. *)
let oracle w g (xs : Tensor.t array) =
  let b = batch_of xs in
  let refs = Array.map Option.some (rows_of (Int_graph.run_ref g b)) in
  (match w.density with
  | None -> ()
  | Some _ ->
      let saved = MK.sparse_threshold () in
      MK.set_sparse_threshold 0.0;
      let dense =
        Fun.protect
          ~finally:(fun () -> MK.set_sparse_threshold saved)
          (fun () -> Int_graph.of_string (Int_graph.to_string g))
      in
      let dense_rows = rows_of (Int_graph.run dense b) in
      Array.iteri
        (fun i r ->
          match r with
          | Some r when not (Common.same_bits r dense_rows.(i)) -> refs.(i) <- None
          | _ -> ())
        refs);
  refs
