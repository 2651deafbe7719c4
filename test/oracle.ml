(* The two references the library's Winograd convolutions are tested
   against.  Both are written for clarity, not speed, and share no code
   with the production drivers.

   - [winograd_f32]: the textbook tile-major float Winograd convolution,
     parameterised by its transform matrices.  Fed [Transform.bt/g/at] it
     is the oracle for [Conv.conv2d] (F2/F4/F6); fed a [Generator]'s
     matrices, for [Gconv.conv2d].  It runs the same float operations in
     the same order as the tap-major drivers, so the comparison is [=].
   - [direct_int]: the direct integer convolution — the ground truth for
     every exact integer path ([Conv.conv2d_int_bit_true] and so
     [Kernels.conv2d_i32_exact], [Rns.conv2d]). *)

module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops
module Shape = Twq_tensor.Shape

(* Stride-1 convolution of NCHW [x] with [cout; cin; r; r] weights, with
   [bt : t×t], [g : t×r], [at : m×t].  Per output tile and channel:
   [Aᵀ·(Σ_ci (G·f·Gᵀ) ⊙ (Bᵀ·x·B))·A] through [Ops.matmul], summed in
   ascending [ci] from zero, cropped at the image edge; the bias is added
   afterwards. *)
let winograd_f32 ~bt ~g ~at ?(pad = 0) ?b ~x ~w () =
  let t = Tensor.dim bt 0 and r = Tensor.dim g 1 and m = Tensor.dim at 0 in
  let n = Tensor.dim x 0 and cin = Tensor.dim x 1 in
  let h = Tensor.dim x 2 and wd = Tensor.dim x 3 in
  let cout = Tensor.dim w 0 in
  let ho, wo = Shape.conv2d_out ~h ~w:wd ~kh:r ~kw:r ~stride:1 ~pad in
  let sandwich l y = Ops.matmul (Ops.matmul l y) (Ops.transpose l) in
  let u =
    Array.init cout (fun co ->
        Array.init cin (fun ci ->
            sandwich g
              (Tensor.init [| r; r |] (fun i -> Tensor.get4 w co ci i.(0) i.(1)))))
  in
  let out = Tensor.zeros [| n; cout; ho; wo |] in
  for ni = 0 to n - 1 do
    for th = 0 to ((ho + m - 1) / m) - 1 do
      for tw = 0 to ((wo + m - 1) / m) - 1 do
        let v =
          Array.init cin (fun ci ->
              sandwich bt
                (Tensor.init [| t; t |] (fun i ->
                     let hi = (th * m) + i.(0) - pad
                     and wi = (tw * m) + i.(1) - pad in
                     if hi < 0 || hi >= h || wi < 0 || wi >= wd then 0.0
                     else Tensor.get4 x ni ci hi wi)))
        in
        for co = 0 to cout - 1 do
          let acc = Tensor.zeros [| t; t |] in
          for ci = 0 to cin - 1 do
            Tensor.blit ~src:(Tensor.add acc (Tensor.mul v.(ci) u.(co).(ci)))
              ~dst:acc
          done;
          let y = sandwich at acc in
          for dy = 0 to min m (ho - (th * m)) - 1 do
            for dx = 0 to min m (wo - (tw * m)) - 1 do
              Tensor.set4 out ni co ((th * m) + dy) ((tw * m) + dx)
                (Tensor.get2 y dy dx)
            done
          done
        done
      done
    done
  done;
  (match b with
  | None -> ()
  | Some bias ->
      Array.iteri
        (fun i v ->
          let co = i / (ho * wo) mod cout in
          out.Tensor.data.(i) <- v +. bias.Tensor.data.(co))
        out.Tensor.data);
  out

(* Direct integer convolution (correlation), stride 1, for any [r×r]
   kernel; out-of-range input reads are zero. *)
let direct_int ?(pad = 0) ~x ~w () =
  let n = Itensor.dim x 0 and cin = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and wd = Itensor.dim x 3 in
  let cout = Itensor.dim w 0 and r = Itensor.dim w 2 in
  let ho, wo = Shape.conv2d_out ~h ~w:wd ~kh:r ~kw:r ~stride:1 ~pad in
  Itensor.init [| n; cout; ho; wo |] (fun idx ->
      let acc = ref 0 in
      for ci = 0 to cin - 1 do
        for ki = 0 to r - 1 do
          for kj = 0 to r - 1 do
            let hi = idx.(2) + ki - pad and wi = idx.(3) + kj - pad in
            if hi >= 0 && hi < h && wi >= 0 && wi < wd then
              acc :=
                !acc
                + (Itensor.get4 x idx.(0) ci hi wi * Itensor.get4 w idx.(1) ci ki kj)
          done
        done
      done;
      !acc)
