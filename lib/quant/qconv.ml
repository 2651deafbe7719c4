module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops
module Shape = Twq_tensor.Shape
module Kernels = Twq_winograd.Kernels

type layer = {
  act_bits : int;
  s_x : float;
  s_w : float;
  s_w_channel : float array option;  (* per-output-channel weight scales *)
  s_y : float;
  wq : Itensor.t;
  bias : Tensor.t option;
  stride : int;
  pad : int;
}

let weight_scale l co =
  match l.s_w_channel with Some s -> s.(co) | None -> l.s_w

let calibrate ?(act_bits = 8) ?(pow2 = false) ?(per_channel = false) ~w ?bias
    ?input_scale ~sample_inputs ~stride ~pad () =
  let snap s = if pow2 then Quantizer.pow2_round_up s else s in
  let s_x =
    match input_scale with
    | Some s -> s
    | None ->
        let x_max =
          List.fold_left (fun a x -> Float.max a (Tensor.max_abs x)) 0.0 sample_inputs
        in
        snap (Quantizer.scale_for ~bits:act_bits ~max_abs:x_max)
  in
  let s_w = snap (Quantizer.scale_for ~bits:act_bits ~max_abs:(Tensor.max_abs w)) in
  let cout = Tensor.dim w 0 and cin = Tensor.dim w 1 in
  let kh = Tensor.dim w 2 and kw = Tensor.dim w 3 in
  (* Channel-wise weight scales (Sec. V-A4's spatial-domain refinement):
     one scale per output channel, each snapped independently. *)
  let s_w_channel =
    if not per_channel then None
    else
      Some
        (Array.init cout (fun co ->
             let m = ref 0.0 in
             for ci = 0 to cin - 1 do
               for i = 0 to kh - 1 do
                 for j = 0 to kw - 1 do
                   m := Float.max !m (Float.abs (Tensor.get4 w co ci i j))
                 done
               done
             done;
             snap (Quantizer.scale_for ~bits:act_bits ~max_abs:!m)))
  in
  let scale_of co =
    match s_w_channel with Some s -> s.(co) | None -> s_w
  in
  let wq =
    Itensor.init [| cout; cin; kh; kw |] (fun idx ->
        Quantizer.quantize ~bits:act_bits ~scale:(scale_of idx.(0))
          (Tensor.get4 w idx.(0) idx.(1) idx.(2) idx.(3)))
  in
  let w_fq =
    Tensor.init [| cout; cin; kh; kw |] (fun idx ->
        Quantizer.dequantize ~scale:(scale_of idx.(0))
          (Itensor.get4 wq idx.(0) idx.(1) idx.(2) idx.(3)))
  in
  let y_max =
    List.fold_left
      (fun a x ->
        let y = Ops.conv2d ~stride ~pad ~x ~w:w_fq ?b:bias () in
        Float.max a (Tensor.max_abs y))
      0.0 sample_inputs
  in
  let s_y = snap (Quantizer.scale_for ~bits:act_bits ~max_abs:y_max) in
  { act_bits; s_x; s_w; s_w_channel; s_y; wq; bias; stride; pad }

(* Direct-loop reference: the int8 conv written as the definition — one
   int32 accumulator per output element, summed over (ci, ki, kj) with
   bounds-checked reads.  Kept as the oracle for the packed GEMM path
   below ([Int_graph.run_ref] runs it), so it must not share code with
   [forward_int_into].  Output channels are independent, so the
   (image, channel) loop runs on the domain pool. *)
let forward_int l x =
  let n = Itensor.dim x 0 and cin = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  let cout = Itensor.dim l.wq 0 in
  let kh = Itensor.dim l.wq 2 and kw = Itensor.dim l.wq 3 in
  if Itensor.dim l.wq 1 <> cin then invalid_arg "Qconv.forward_int: channel mismatch";
  let ho, wo = Shape.conv2d_out ~h ~w ~kh ~kw ~stride:l.stride ~pad:l.pad in
  let out = Itensor.zeros [| n; cout; ho; wo |] in
  Twq_util.Parallel.parallel_for ~lo:0 ~hi:(n * cout) (fun idx ->
      let ni = idx / cout and co = idx mod cout in
      let bias_v = match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co) in
      let requant_scale = l.s_x *. weight_scale l co in
      for oh = 0 to ho - 1 do
        for ow = 0 to wo - 1 do
          let acc = ref 0 in
          for ci = 0 to cin - 1 do
            for ki = 0 to kh - 1 do
              for kj = 0 to kw - 1 do
                let hi = (oh * l.stride) + ki - l.pad
                and wi = (ow * l.stride) + kj - l.pad in
                if hi >= 0 && hi < h && wi >= 0 && wi < w then
                  acc := !acc + (Itensor.get4 x ni ci hi wi * Itensor.get4 l.wq co ci ki kj)
              done
            done
          done;
          let real = (float_of_int !acc *. requant_scale) +. bias_v in
          Itensor.set4 out ni co oh ow
            (Quantizer.quantize ~bits:l.act_bits ~scale:l.s_y real)
        done
      done);
  out

(* --------------------------------------------- packed im2col GEMM path *)

module P = Twq_util.Parallel
module Microkernel = Twq_winograd.Microkernel

(* Everything about the layer that does not depend on the input shape,
   staged once when the graph node is built: the weights as one NR-packed [K × cout_p]
   GEMM panel, with K = cin·kh·kw in the [(ci·kh + ki)·kw + kj] order of
   [wq], and the per-channel requant scale and bias as flat floats. *)
type packed = {
  layer : layer;
  b : int array;
      (* b[jb·K·nr + kk·nr + jr] = wq[co][kk] with co = jb·nr + jr;
         pad lanes [co ≥ cout] are zero. *)
  k : int;  (* cin·kh·kw *)
  cout_p : int;  (* cout rounded up to [nr] *)
  scale : float array;  (* [cout]: s_x · weight_scale l co *)
  bias_f : float array;  (* [cout]: bias, 0.0 without one *)
}

let pack l =
  let cout = Itensor.dim l.wq 0 in
  let k = Itensor.dim l.wq 1 * Itensor.dim l.wq 2 * Itensor.dim l.wq 3 in
  let { Microkernel.nr; _ } = Microkernel.config () in
  let cout_p = Microkernel.round_up cout nr in
  let b = Array.make (k * cout_p) 0 in
  let wd = l.wq.Itensor.data in
  for co = 0 to cout - 1 do
    let jb = co / nr and jr = co mod nr in
    for kk = 0 to k - 1 do
      b.((((jb * k) + kk) * nr) + jr) <- wd.((co * k) + kk)
    done
  done;
  {
    layer = l;
    b;
    k;
    cout_p;
    scale = Array.init cout (fun co -> l.s_x *. weight_scale l co);
    bias_f =
      Array.init cout (fun co ->
          match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co));
  }

let packed_layer p = p.layer

(* Per-domain im2col A panel and GEMM output block. *)
let sa_a = P.Scratch.create_int ()
let sa_c = P.Scratch.create_int ()

(* Output pixels per GEMM block (a multiple of MR).  Fixed, so blocking
   never depends on the domain count; 32 rows keep one KC-deep A slice
   (32·256 ints) cache-resident while [gemm_i32] sweeps the NR column
   panels. *)
let block_rows = 32

(* Production path: the spatial conv as the im2col GEMM of the paper's
   Cube unit.  Output pixels (n·ho·wo rows) are cut into fixed blocks;
   each block is im2col'ed into an MR-packed A panel (padding positions
   read as zero) and multiplied against the packed weights with one
   {!Microkernel.gemm_i32}, which writes the block's C (no zero-fill),
   then requantized and stored through
   [epilogue].  Integer accumulation is exact and the requant is the
   same float expression as [forward_int], so the two are
   bit-identical. *)
let forward_int_into ?(epilogue = Kernels.no_epilogue) p x ~out =
  let l = p.layer in
  let n = Itensor.dim x 0 and cin = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  let cout = Itensor.dim l.wq 0 in
  let kh = Itensor.dim l.wq 2 and kw = Itensor.dim l.wq 3 in
  if Itensor.dim l.wq 1 <> cin then
    invalid_arg "Qconv.forward_int_into: channel mismatch";
  let ho, wo = Shape.conv2d_out ~h ~w ~kh ~kw ~stride:l.stride ~pad:l.pad in
  if
    Itensor.dim out 0 <> n || Itensor.dim out 1 <> cout
    || Itensor.dim out 2 <> ho || Itensor.dim out 3 <> wo
  then invalid_arg "Qconv.forward_int_into: out shape mismatch";
  let od = out.Itensor.data and xd = x.Itensor.data in
  let { Microkernel.mr; nr; kc } = Microkernel.config () in
  let k = p.k and cout_p = p.cout_p and b = p.b in
  let scale = p.scale and bias_f = p.bias_f in
  let stride = l.stride and pad = l.pad in
  (* Hoisted so the inner store is unboxed arithmetic: a
     [Quantizer.quantize] call per element boxes its float arguments
     (no flambda) and dominates steady-state allocation. *)
  let a_hi = (1 lsl (l.act_bits - 1)) - 1 in
  let a_lo = -(a_hi + 1) in
  let a_hi_f = float_of_int a_hi +. 0.5 and a_lo_f = float_of_int a_lo -. 0.5 in
  let s_y = l.s_y in
  let hw = ho * wo in
  let total = n * hw in
  let nblocks = (total + block_rows - 1) / block_rows in
  P.parallel_for ~chunk:1 ~lo:0 ~hi:nblocks (fun blk ->
      let r0 = blk * block_rows in
      let bs = min block_rows (total - r0) in
      let bs_p = Microkernel.round_up bs mr in
      let a = P.Scratch.borrow sa_a (block_rows * k) in
      let c = P.Scratch.borrow sa_c (block_rows * cout_p) in
      (* im2col: row [r] of the block lands in lane [r mod mr] of A
         panel [r / mr], at [(r / mr)·K·mr + kk·mr + r mod mr]. *)
      for r = 0 to bs - 1 do
        let row = r0 + r in
        let ni = row / hw and pix = row mod hw in
        let oh = pix / wo and ow = pix mod wo in
        let abase = ((r / mr) * k * mr) + (r mod mr) in
        let h0 = (oh * stride) - pad and w0 = (ow * stride) - pad in
        for ci = 0 to cin - 1 do
          let xbase = ((ni * cin) + ci) * h * w in
          for ki = 0 to kh - 1 do
            let hi = h0 + ki in
            let kk0 = ((ci * kh) + ki) * kw in
            if hi < 0 || hi >= h then
              for kj = 0 to kw - 1 do
                a.(abase + ((kk0 + kj) * mr)) <- 0
              done
            else begin
              let xrow = xbase + (hi * w) in
              for kj = 0 to kw - 1 do
                let wi = w0 + kj in
                a.(abase + ((kk0 + kj) * mr)) <-
                  (if wi < 0 || wi >= w then 0 else xd.(xrow + wi))
              done
            end
          done
        done
      done;
      (* Zero the pad lanes of a trailing partial panel. *)
      for r = bs to bs_p - 1 do
        let abase = ((r / mr) * k * mr) + (r mod mr) in
        for kk = 0 to k - 1 do
          a.(abase + (kk * mr)) <- 0
        done
      done;
      Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p:bs_p ~cols_p:cout_p ~k ~vp:a
        ~vo:0 ~up:b ~uo:0 ~c ~co:0 ~cstride:cout_p;
      (* Requant + fused epilogue, the [forward_int] expression inlined. *)
      for r = 0 to bs - 1 do
        let row = r0 + r in
        let ni = row / hw and pix = row mod hw in
        let obase = (ni * cout * hw) + pix in
        let crow = r * cout_p in
        for co = 0 to cout - 1 do
          let real =
            (float_of_int c.(crow + co) *. scale.(co)) +. bias_f.(co)
          in
          (* Saturate, then truncate and round half away from zero on
             the exact fraction: no [Float.round] call, no branch on
             the sign (the same store as [Tapwise.forward_int_into]). *)
          let x = real /. s_y in
          let q =
            if x >= a_hi_f then a_hi
            else if x <= a_lo_f then a_lo
            else
              let i = int_of_float x in
              let f = x -. float_of_int i in
              i + Bool.to_int (f >= 0.5) - Bool.to_int (f <= -0.5)
          in
          Kernels.epilogue_store epilogue od (obase + (co * hw)) q
        done
      done)

let forward l x =
  let x_int = Quantizer.quantize_tensor ~bits:l.act_bits ~scale:l.s_x x in
  Quantizer.dequantize_tensor ~scale:l.s_y (forward_int l x_int)
