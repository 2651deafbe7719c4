module Tensor = Twq_tensor.Tensor

type t = {
  gen : Generator.t;
  kern : float Kernels.kernel;  (* compiled tap-major plans *)
}

let create ?points ~m ~r () =
  let points =
    match points with Some p -> p | None -> Generator.lavin_points (m + r - 2)
  in
  let gen = Generator.make ~points ~m ~r in
  {
    gen;
    kern =
      Kernels.f32_of_mats
        ~bt:(Twq_util.Rmat.to_float gen.Generator.bt)
        ~g:(Twq_util.Rmat.to_float gen.Generator.g)
        ~at:(Twq_util.Rmat.to_float gen.Generator.at);
  }

let m t = t.gen.Generator.m
let r t = t.gen.Generator.r

let macs_reduction t =
  let m = float_of_int (m t) and r = float_of_int (r t) in
  let d1 = m *. r /. (m +. r -. 1.0) in
  d1 *. d1

(* The plans compiled at {!create} time drive the allocation-free
   tap-major engine.  The tests hold it bit-identical to the tile-major
   float oracle in [test/oracle.ml] over the same [Generator] matrices. *)
let conv2d t ?(pad = 0) ~x ~w () =
  let cin = Tensor.dim x 1 and r_sz = r t in
  if Tensor.dim w 1 <> cin then invalid_arg "Gconv.conv2d: channel mismatch";
  if Tensor.dim w 2 <> r_sz || Tensor.dim w 3 <> r_sz then
    invalid_arg "Gconv.conv2d: kernel size mismatch";
  Kernels.conv2d_f32 t.kern ~pad ~x ~w
