module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops

let tiles_along ~variant extent =
  let m = Transform.m variant in
  (extent + m - 1) / m

(* Allocation-free tap-major kernels (specialized shift-add /
   constant-folded transforms, one packed GEMM per tap).  The tests hold
   it element-for-element equal to the tile-major float oracle in
   [test/oracle.ml]. *)
let conv2d ~variant ?(pad = 0) ~x ~w ?b () =
  let cin = Tensor.dim x 1 in
  if Tensor.dim w 1 <> cin then invalid_arg "Conv.conv2d: channel mismatch";
  if Tensor.dim w 2 <> 3 || Tensor.dim w 3 <> 3 then
    invalid_arg "Conv.conv2d: Winograd path requires 3x3 kernels";
  let out = Kernels.conv2d_f32 (Kernels.f32_specialized variant) ~pad ~x ~w in
  (match b with
  | None -> ()
  | Some bias ->
      let n = Tensor.dim out 0 and cout = Tensor.dim out 1 in
      let ho = Tensor.dim out 2 and wo = Tensor.dim out 3 in
      Twq_util.Parallel.parallel_for ~lo:0 ~hi:(n * cout) (fun idx ->
          let ni = idx / cout and co = idx mod cout in
          let bv = bias.Tensor.data.(co) in
          for oh = 0 to ho - 1 do
            for ow = 0 to wo - 1 do
              Tensor.set4 out ni co oh ow (Tensor.get4 out ni co oh ow +. bv)
            done
          done));
  out

let conv2d_int_bit_true ~variant ?(pad = 0) ~x ~w () =
  let cin = Itensor.dim x 1 in
  if Itensor.dim w 1 <> cin then
    invalid_arg "Conv.conv2d_int_bit_true: channel mismatch";
  if Itensor.dim w 2 <> 3 || Itensor.dim w 3 <> 3 then
    invalid_arg "Conv.conv2d_int_bit_true: Winograd path requires 3x3 kernels";
  let total_scale =
    Transform.bt_scale variant * Transform.g_scale variant
    * Transform.at_scale variant
  in
  let scale2 = total_scale * total_scale in
  Kernels.conv2d_i32_exact (Kernels.i32_specialized variant) ~scale2 ~pad ~x ~w

(* Exact integer convolution through the RNS backend: plan the basis for
   the actual channel count and value ranges (or accept a caller-built
   plan), then run the per-modulus tap-major engine. *)
let conv2d_int_rns ?plan ~m ~r ?basis ?(pad = 0) ~x ~w () =
  let cin = Itensor.dim x 1 in
  if Itensor.dim w 1 <> cin then
    invalid_arg "Conv.conv2d_int_rns: channel mismatch";
  let max_abs a = Array.fold_left (fun acc v -> max acc (abs v)) 1 a in
  let p =
    match plan with
    | Some p -> p
    | None ->
        let xmax = max_abs x.Itensor.data
        and wmax = max_abs w.Itensor.data in
        let basis =
          match basis with
          | Some b -> b
          | None -> (
              match Rns.suggest_basis ~m ~r ~cin ~xmax ~wmax () with
              | Ok b -> b
              | Error e -> raise (Rns.Rns_error e))
        in
        Rns.plan_exn ~m ~r ~basis ~cin ~xmax ~wmax ()
  in
  Rns.conv2d p ~pad ~x ~w ()

let max_abs_error ~variant ~x ~w =
  let direct = Ops.conv2d ~stride:1 ~pad:1 ~x ~w () in
  let wino = conv2d ~variant ~pad:1 ~x ~w () in
  Tensor.max_abs (Tensor.sub direct wino)
