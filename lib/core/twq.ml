(** Public facade of the tap-wise-quantized Winograd library.

    Downstream users are expected to program against this module; the
    [Twq_*] libraries remain accessible for advanced use. *)

module Rat = Twq_util.Rat
module Rmat = Twq_util.Rmat
module Rng = Twq_util.Rng
module Stats = Twq_util.Stats
module Interval = Twq_util.Interval
module Table = Twq_util.Table
module Parallel = Twq_util.Parallel
module Modint = Twq_util.Modint
module Crc32 = Twq_util.Crc32
module Checkpoint = Twq_util.Checkpoint

module Shape = Twq_tensor.Shape
module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops

module Winograd = struct
  module Transform = Twq_winograd.Transform
  module Kernels = Twq_winograd.Kernels
  module Microkernel = Twq_winograd.Microkernel
  module Conv = Twq_winograd.Conv
  module Gconv = Twq_winograd.Gconv
  module Generator = Twq_winograd.Generator
  module Rns = Twq_winograd.Rns
  module Pinv = Twq_winograd.Pinv
end

module Quant = struct
  module Quantizer = Twq_quant.Quantizer
  module Calibration = Twq_quant.Calibration
  module Tapwise = Twq_quant.Tapwise
  module Tile_engines = Twq_quant.Tile_engines
  module Qconv = Twq_quant.Qconv
  module Error_analysis = Twq_quant.Error_analysis
end

module Autodiff = struct
  module Var = Twq_autodiff.Var
  module Fn = Twq_autodiff.Fn
  module Quant_ops = Twq_autodiff.Quant_ops
  module Scale_param = Twq_autodiff.Scale_param
  module Wa_conv = Twq_autodiff.Wa_conv
  module Optim = Twq_autodiff.Optim
end

module Dataset = struct
  module Synth_images = Twq_dataset.Synth_images
end

module Nn = struct
  module Qat_model = Twq_nn.Qat_model
  module Trainer = Twq_nn.Trainer
  module Deploy = Twq_nn.Deploy
  module Graph = Twq_nn.Graph
  module Gmodels = Twq_nn.Gmodels
  module Passes = Twq_nn.Passes
  module Int_graph = Twq_nn.Int_graph
  module Zoo = Twq_nn.Zoo
end

module Hw = struct
  module Dfg = Twq_hw.Dfg
  module Engine = Twq_hw.Engine
  module Area_power = Twq_hw.Area_power
end

module Sim = struct
  module Arch = Twq_sim.Arch
  module Des = Twq_sim.Des
  module Operator = Twq_sim.Operator
  module Network_runner = Twq_sim.Network_runner
  module Graph_compiler = Twq_sim.Graph_compiler
  module Trace = Twq_sim.Trace
  module Cosim = Twq_sim.Cosim
end

module Nvdla = Twq_nvdla.Nvdla

(* Inference serving: model registry, dynamic batcher, wire protocol and
   front end, shard router, load generator. *)
module Serve = struct
  module Metrics = Twq_serve.Metrics
  module Model = Twq_serve.Model
  module Registry = Twq_serve.Registry
  module Batcher = Twq_serve.Batcher
  module Server = Twq_serve.Server
  module Loadgen = Twq_serve.Loadgen
  module Wire = Twq_serve.Wire
  module Listener = Twq_serve.Listener
  module Shard_client = Twq_serve.Shard_client
  module Router = Twq_serve.Router
end

(* Extensions beyond the paper's core pipeline. *)
module Strided = Twq_winograd.Strided
module Pruning = Twq_quant.Pruning
module Generator = Twq_winograd.Generator
module Serialize = Twq_quant.Serialize
module Conv1d = Twq_winograd.Conv1d
module Gconv = Twq_winograd.Gconv
