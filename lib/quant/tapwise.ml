module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops
module Shape = Twq_tensor.Shape
module Transform = Twq_winograd.Transform

type granularity = Single_scale | Tap_wise | Channel_tap_wise

type config = {
  variant : Transform.variant;
  act_bits : int;
  wino_bits : int;
  pow2 : bool;
  granularity : granularity;
}

let default_config variant =
  { variant; act_bits = 8; wino_bits = 8; pow2 = true; granularity = Tap_wise }

type layer = {
  config : config;
  pad : int;
  s_x : float;
  s_w : float;
  s_y : float;
  s_b : float array array;
  s_g : float array array;
  s_g_channel : float array array array option;
      (* [cout][t][t] — set under Channel_tap_wise; overrides s_g *)
  wq : Itensor.t;
  bias : Tensor.t option;
}

let weight_scale l co i j =
  match l.s_g_channel with
  | Some per_channel -> per_channel.(co).(i).(j)
  | None -> l.s_g.(i).(j)

let tie_single_scale scales =
  let m = Array.fold_left (fun a row -> Array.fold_left Float.max a row) 0.0 scales in
  Array.map (Array.map (fun _ -> m)) scales

let pow2_align ~base scales =
  (* Snap each scale to base · 2^⌈log2 (s/base)⌉ so the integer rescale is an
     exact shift relative to the spatial-domain scale. *)
  Array.map
    (Array.map (fun s ->
         let k = Float.ceil (Float.log2 (s /. base)) in
         base *. Float.pow 2.0 k))
    scales

(* Per-tap maxima of G f̂ Gᵀ over all (cout, cin) kernels, plus per-output-
   channel maxima for the combined channel+tap strategy. *)
let weight_tap_maxima variant w_fq =
  let t = Transform.t variant in
  let cout = Tensor.dim w_fq 0 and cin = Tensor.dim w_fq 1 in
  let maxima = Array.make_matrix t t 0.0 in
  let per_channel = Array.init cout (fun _ -> Array.make_matrix t t 0.0) in
  let tiles = Array.make_matrix cout cin (Tensor.zeros [| t; t |]) in
  for co = 0 to cout - 1 do
    for ci = 0 to cin - 1 do
      let f = Tensor.init [| 3; 3 |] (fun i -> Tensor.get4 w_fq co ci i.(0) i.(1)) in
      let wt = Transform.weight_tile variant f in
      tiles.(co).(ci) <- wt;
      for i = 0 to t - 1 do
        for j = 0 to t - 1 do
          let v = Float.abs (Tensor.get2 wt i j) in
          maxima.(i).(j) <- Float.max maxima.(i).(j) v;
          per_channel.(co).(i).(j) <- Float.max per_channel.(co).(i).(j) v
        done
      done
    done
  done;
  (maxima, per_channel, tiles)

(* Per-tap maxima of Bᵀ x̂ B over all tiles/channels of the sample set. *)
let input_tap_maxima variant ~pad ~act_bits ~s_x samples =
  let t = Transform.t variant and m = Transform.m variant in
  let maxima = Array.make_matrix t t 0.0 in
  List.iter
    (fun x ->
      let xq = Quantizer.fake_quant_tensor ~bits:act_bits ~scale:s_x x in
      let n = Tensor.dim xq 0 and cin = Tensor.dim xq 1 in
      let h = Tensor.dim xq 2 and w = Tensor.dim xq 3 in
      let ho = h + (2 * pad) - 2 and wo = w + (2 * pad) - 2 in
      let n_th = (ho + m - 1) / m and n_tw = (wo + m - 1) / m in
      for ni = 0 to n - 1 do
        for ci = 0 to cin - 1 do
          for th = 0 to n_th - 1 do
            for tw = 0 to n_tw - 1 do
              let tile =
                Tensor.init [| t; t |] (fun idx ->
                    let hi = (th * m) + idx.(0) - pad
                    and wi = (tw * m) + idx.(1) - pad in
                    if hi < 0 || hi >= h || wi < 0 || wi >= w then 0.0
                    else Tensor.get4 xq ni ci hi wi)
              in
              let xt = Transform.input_tile variant tile in
              for i = 0 to t - 1 do
                for j = 0 to t - 1 do
                  maxima.(i).(j) <-
                    Float.max maxima.(i).(j) (Float.abs (Tensor.get2 xt i j))
                done
              done
            done
          done
        done
      done)
    samples;
  maxima

let calibrate ~config ~w ?bias ?input_scale ?scale_grids ~sample_inputs ~pad () =
  let { variant; act_bits; wino_bits; pow2; granularity } = config in
  let t = Transform.t variant in
  let cout = Tensor.dim w 0 and cin = Tensor.dim w 1 in
  (* Spatial-domain scales from plain max calibration; a fixed input scale
     can be imposed so consecutive layers chain (s_x = s_y of the producer). *)
  let s_x =
    match input_scale with
    | Some s -> s
    | None ->
        let x_max =
          List.fold_left (fun a x -> Float.max a (Tensor.max_abs x)) 0.0 sample_inputs
        in
        let s = Quantizer.scale_for ~bits:act_bits ~max_abs:x_max in
        if pow2 then Quantizer.pow2_round_up s else s
  in
  let s_w = Quantizer.scale_for ~bits:act_bits ~max_abs:(Tensor.max_abs w) in
  let s_w = if pow2 then Quantizer.pow2_round_up s_w else s_w in
  let w_fq = Quantizer.fake_quant_tensor ~bits:act_bits ~scale:s_w w in
  (* Winograd-domain tap scales. *)
  let g_max, g_max_channel, w_tiles = weight_tap_maxima variant w_fq in
  let b_max = input_tap_maxima variant ~pad ~act_bits ~s_x sample_inputs in
  let to_scales maxima =
    Array.map
      (Array.map (fun m -> Quantizer.scale_for ~bits:wino_bits ~max_abs:m))
      maxima
  in
  let s_b = to_scales b_max and s_g = to_scales g_max in
  let s_b, s_g =
    match granularity with
    | Tap_wise | Channel_tap_wise -> (s_b, s_g)
    | Single_scale -> (tie_single_scale s_b, tie_single_scale s_g)
  in
  let s_b = if pow2 then pow2_align ~base:s_x s_b else s_b in
  let s_g = if pow2 then pow2_align ~base:s_w s_g else s_g in
  (* Externally learned tap scales (e.g. from Winograd-aware training with
     log2-gradient scale learning) override the static calibration; they
     are still snapped onto the pow2 grid of the integer datapath. *)
  let s_b, s_g =
    match scale_grids with
    | None -> (s_b, s_g)
    | Some (learned_b, learned_g) ->
        let snap base g =
          if pow2 then pow2_align ~base (Array.map Array.copy g)
          else Array.map Array.copy g
        in
        (snap s_x learned_b, snap s_w learned_g)
  in
  (* The combined strategy refines the weight scales per output channel
     (Sec. V-A4: "combining channel-wise with tap-wise"). *)
  let s_g_channel =
    match granularity with
    | Channel_tap_wise ->
        Some
          (Array.map
             (fun grid ->
               let grid = to_scales grid in
               if pow2 then pow2_align ~base:s_w grid else grid)
             g_max_channel)
    | Tap_wise | Single_scale -> None
  in
  let weight_scale_at co i j =
    match s_g_channel with
    | Some per_channel -> per_channel.(co).(i).(j)
    | None -> s_g.(i).(j)
  in
  (* Pre-quantized Winograd-domain weights. *)
  let wq = Itensor.zeros [| cout; cin; t; t |] in
  for co = 0 to cout - 1 do
    for ci = 0 to cin - 1 do
      for i = 0 to t - 1 do
        for j = 0 to t - 1 do
          Itensor.set4 wq co ci i j
            (Quantizer.quantize ~bits:wino_bits ~scale:(weight_scale_at co i j)
               (Tensor.get2 w_tiles.(co).(ci) i j))
        done
      done
    done
  done;
  (* Output scale from a quick fp32 pass over the samples. *)
  let y_max =
    List.fold_left
      (fun a x ->
        let y = Ops.conv2d ~stride:1 ~pad ~x ~w:w_fq ?b:bias () in
        Float.max a (Tensor.max_abs y))
      0.0 sample_inputs
  in
  let s_y = Quantizer.scale_for ~bits:act_bits ~max_abs:y_max in
  let s_y = if pow2 then Quantizer.pow2_round_up s_y else s_y in
  { config; pad; s_x; s_w; s_y; s_b; s_g; s_g_channel; wq; bias }

let shift_of_ratio ratio = int_of_float (Float.round (Float.log2 ratio))

let input_shift l i j = shift_of_ratio (l.s_b.(i).(j) /. l.s_x)
let weight_shift l i j = shift_of_ratio (l.s_g.(i).(j) /. l.s_w)

(* Requantize one integer Winograd tap: X_int carries value X_int·s_x; the
   target grid is s_b.  Under pow2 the ratio is an exact power of two and we
   use the hardware round-shift; otherwise a float round. *)
let requant_tap ~pow2 ~bits ~s_from ~s_to v =
  if pow2 then begin
    let k = shift_of_ratio (s_to /. s_from) in
    let shifted = if k >= 0 then Itensor.round_shift v k else v lsl -k in
    Itensor.clamp_int ~bits shifted
  end
  else Itensor.clamp_int ~bits (int_of_float (Float.round (float_of_int v *. s_from /. s_to)))

(* Tile-major reference path for the integer pipeline — kept as the
   oracle for the tap-major [forward_int] below. *)
let forward_int_ref l x_int =
  let { variant; act_bits; wino_bits; pow2; _ } = l.config in
  let pad = l.pad in
  let t = Transform.t variant and m = Transform.m variant in
  let n = Itensor.dim x_int 0 and cin = Itensor.dim x_int 1 in
  let h = Itensor.dim x_int 2 and w = Itensor.dim x_int 3 in
  let cout = Itensor.dim l.wq 0 in
  if Itensor.dim l.wq 1 <> cin then invalid_arg "Tapwise.forward_int: channel mismatch";
  let ho, wo = Shape.conv2d_out ~h ~w ~kh:3 ~kw:3 ~stride:1 ~pad in
  let out = Itensor.zeros [| n; cout; ho; wo |] in
  let n_th = (ho + m - 1) / m and n_tw = (wo + m - 1) / m in
  for ni = 0 to n - 1 do
    for th = 0 to n_th - 1 do
      for tw = 0 to n_tw - 1 do
        (* Transform + tap-requantize the input tile of every channel. *)
        let xq =
          Array.init cin (fun ci ->
              let tile =
                Itensor.init [| t; t |] (fun idx ->
                    let hi = (th * m) + idx.(0) - pad
                    and wi = (tw * m) + idx.(1) - pad in
                    if hi < 0 || hi >= h || wi < 0 || wi >= w then 0
                    else Itensor.get4 x_int ni ci hi wi)
              in
              let xt = Transform.input_tile_int variant tile in
              (* The integer transform carries a bt_scale² factor (F6);
                 fold it into the source scale so the requant stays exact. *)
              let bt2 =
                float_of_int (Transform.bt_scale variant * Transform.bt_scale variant)
              in
              Itensor.init [| t; t |] (fun idx ->
                  requant_tap ~pow2 ~bits:wino_bits ~s_from:(l.s_x /. bt2)
                    ~s_to:l.s_b.(idx.(0)).(idx.(1))
                    (Itensor.get2 xt idx.(0) idx.(1))))
        in
        for co = 0 to cout - 1 do
          (* int2b accumulation over input channels. *)
          let acc = Array.make_matrix t t 0 in
          for ci = 0 to cin - 1 do
            for i = 0 to t - 1 do
              for j = 0 to t - 1 do
                acc.(i).(j) <-
                  acc.(i).(j) + (Itensor.get2 xq.(ci) i j * Itensor.get4 l.wq co ci i j)
              done
            done
          done;
          (* Single rescale with S_BG, then the output back-transform. *)
          let y_wino =
            Tensor.init [| t; t |] (fun idx ->
                float_of_int acc.(idx.(0)).(idx.(1))
                *. l.s_b.(idx.(0)).(idx.(1))
                *. weight_scale l co idx.(0) idx.(1))
          in
          let y = Transform.output_tile variant y_wino in
          let bias_v =
            match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co)
          in
          for dy = 0 to m - 1 do
            for dx = 0 to m - 1 do
              let oh = (th * m) + dy and ow = (tw * m) + dx in
              if oh < ho && ow < wo then
                Itensor.set4 out ni co oh ow
                  (Quantizer.quantize ~bits:act_bits ~scale:l.s_y
                     (Tensor.get2 y dy dx +. bias_v))
            done
          done
        done
      done
    done
  done;
  out

(* Per-domain staging for the tap-major integer forward (one arena per
   logically distinct buffer — see {!Twq_util.Parallel.Scratch}). *)
module P = Twq_util.Parallel
module Kernels = Twq_winograd.Kernels
module Microkernel = Twq_winograd.Microkernel

let ta_tile = P.Scratch.create_int ()
let ta_xt = P.Scratch.create_int ()
let ta_tmp = P.Scratch.create_int ()
let ta_v = P.Scratch.create_int ()
let ta_mo = P.Scratch.create_int ()
let ta_yw = P.Scratch.create_float ()
let ta_yo = P.Scratch.create_float ()
let ta_ftmp = P.Scratch.create_float ()

(* Everything about the layer that does not depend on the input shape,
   staged once: the tap-major Winograd weight panel [u], the flattened
   tap-scale lookups and the requant source scale.  [forward_int]
   rebuilt these on every call before the planner existed; packing at
   plan/lowering time removes that per-forward cost entirely. *)
type packed = {
  layer : layer;
  u : int array;
      (* Winograd weights, NR-packed for the microkernel:
         u[tap·cin·cout_p + ((jb·cin + ci)·nr + jr)] with [co = jb·nr+jr];
         pad lanes [co ≥ cout] are zero. *)
  cout_p : int;  (* cout rounded up to [nr] *)
  sparse : Microkernel.sparse option array;
      (* Per-tap compressed panel, present iff the tap's measured
         density fell below [Microkernel.sparse_threshold] at pack
         time.  [None] taps run the dense driver unchanged. *)
  tap_density : float array;  (* measured nonzero fraction per tap *)
  sb_flat : float array;
  ws_flat : float array;
  s_from : float;
  (* Requant lookups, one entry per tap.  The scatter loop runs per
     element; going through [requant_tap] there boxes its float
     arguments on every call (no flambda), which was the dominant
     steady-state allocation of the whole forward.  Precomputing the
     pow2 shift per tap lets the hot loop stay in unboxed int/float
     arithmetic. *)
  shift_flat : int array;  (* pow2: requant shift, s_b(tap)/s_from = 2^k *)
}

let pack l =
  let { variant; _ } = l.config in
  let t = Transform.t variant in
  let tt = t * t in
  let cout = Itensor.dim l.wq 0 and cin = Itensor.dim l.wq 1 in
  let bt2 =
    float_of_int (Transform.bt_scale variant * Transform.bt_scale variant)
  in
  let sb_flat = Array.init tt (fun tap -> l.s_b.(tap / t).(tap mod t)) in
  let ws_flat =
    Array.init (cout * tt) (fun idx ->
        let co = idx / tt and tap = idx mod tt in
        weight_scale l co (tap / t) (tap mod t))
  in
  let { Microkernel.nr; _ } = Microkernel.config () in
  let cout_p = Microkernel.round_up cout nr in
  let ucincp = cin * cout_p in
  let u = Array.make (tt * ucincp) 0 in
  P.parallel_for ~lo:0 ~hi:(cout * cin) (fun idx ->
      let co = idx / cin and ci = idx mod cin in
      let jb = co / nr and jr = co mod nr in
      let base = (((jb * cin) + ci) * nr) + jr in
      for tap = 0 to tt - 1 do
        u.((tap * ucincp) + base) <-
          Itensor.get4 l.wq co ci (tap / t) (tap mod t)
      done);
  let s_from = l.s_x /. bt2 in
  let shift_flat =
    Array.init tt (fun tap -> shift_of_ratio (sb_flat.(tap) /. s_from))
  in
  (* Sparse/dense is decided here, per tap, against the process-wide
     threshold: density is measured on the packed panel (pad lanes are
     zero and excluded from the denominator), and a tap below the
     cutoff keeps its compressed form for [forward_int_into].  With the
     threshold at 0.0 every tap stays [None] and execution is the dense
     path, byte for byte. *)
  let thresh = Microkernel.sparse_threshold () in
  let denom = float_of_int (max 1 (cin * cout)) in
  let tap_density = Array.make tt 1.0 in
  let sparse =
    Array.init tt (fun tap ->
        let sp =
          Microkernel.compress_panel ~nr ~k:cin ~cols:cout_p u
            ~uo:(tap * ucincp)
        in
        let d = float_of_int (Microkernel.sparse_nnz sp) /. denom in
        tap_density.(tap) <- d;
        if d < thresh then Some sp else None)
  in
  {
    layer = l;
    u;
    cout_p;
    sparse;
    tap_density;
    sb_flat;
    ws_flat;
    s_from;
    shift_flat;
  }

let packed_layer p = p.layer
let tap_densities p = Array.copy p.tap_density

let sparse_tap_count p =
  Array.fold_left
    (fun acc s -> match s with Some _ -> acc + 1 | None -> acc)
    0 p.sparse

(* Production path: the same integer pipeline reformulated tap-major —
   transform + per-tap requantize each tile once, run one register-tiled
   int GEMM per tap ({!Twq_winograd.Microkernel}) against the NR-packed
   pre-quantized Winograd weights, rescale with [S_BG], back-transform,
   requantize with [s_y].  Integer addition is associative, so the
   blocked GEMM stays bit-identical to [forward_int_ref]; parallelized
   over tile blocks.  Writes into the caller-provided [out] and applies
   [epilogue] in the gather store, so the planner can fuse
   requant/ReLU/residual-add into this single output pass. *)
let forward_int_into ?(epilogue = Kernels.no_epilogue) p x_int ~out =
  let l = p.layer in
  let { variant; act_bits; wino_bits; pow2; _ } = l.config in
  let pad = l.pad in
  let t = Transform.t variant and m = Transform.m variant in
  let tt = t * t in
  let n = Itensor.dim x_int 0 and cin = Itensor.dim x_int 1 in
  let h = Itensor.dim x_int 2 and w = Itensor.dim x_int 3 in
  let cout = Itensor.dim l.wq 0 in
  if Itensor.dim l.wq 1 <> cin then
    invalid_arg "Tapwise.forward_int: channel mismatch";
  let ho, wo = Shape.conv2d_out ~h ~w ~kh:3 ~kw:3 ~stride:1 ~pad in
  if
    Itensor.dim out 0 <> n || Itensor.dim out 1 <> cout
    || Itensor.dim out 2 <> ho || Itensor.dim out 3 <> wo
  then invalid_arg "Tapwise.forward_int_into: out shape mismatch";
  let od = out.Itensor.data and xd = x_int.Itensor.data in
  let ki = Kernels.i32_specialized variant in
  let kf = Kernels.f32_specialized variant in
  let s_from = p.s_from in
  let sb_flat = p.sb_flat and ws_flat = p.ws_flat and u = p.u in
  let shift_flat = p.shift_flat in
  (* Clamp bounds and the output scale, hoisted so the per-element
     loops below are pure unboxed arithmetic (no allocating calls). *)
  let w_hi = (1 lsl (wino_bits - 1)) - 1 in
  let w_lo = -(w_hi + 1) in
  let a_hi = (1 lsl (act_bits - 1)) - 1 in
  let a_lo = -(a_hi + 1) in
  let s_y = l.s_y in
  let cout_p = p.cout_p in
  let ucincp = cin * cout_p in
  let { Microkernel.mr; nr; kc } = Microkernel.config () in
  let n_th = (ho + m - 1) / m and n_tw = (wo + m - 1) / m in
  let tiles_per_img = n_th * n_tw in
  let total = n * tiles_per_img in
  let tb =
    Microkernel.round_up
      (max 1 (min 32 (total / (max 1 (4 * P.num_domains ())))))
      mr
  in
  let tbcin = tb * cin in
  let nblocks = (total + tb - 1) / tb in
  P.parallel_for ~chunk:1 ~lo:0 ~hi:nblocks (fun blk ->
      let b0 = blk * tb in
      let bs = min tb (total - b0) in
      let bs_p = Microkernel.round_up bs mr in
      let tile = P.Scratch.borrow ta_tile tt in
      let xt = P.Scratch.borrow ta_xt tt in
      let tmp = P.Scratch.borrow ta_tmp tt in
      let v = P.Scratch.borrow ta_v (tt * tbcin) in
      let mo = P.Scratch.borrow ta_mo (tt * tb * cout_p) in
      let yw = P.Scratch.borrow ta_yw tt in
      let yo = P.Scratch.borrow ta_yo (m * m) in
      let ftmp = P.Scratch.borrow ta_ftmp (m * t) in
      (* Scatter: integer transform + per-tap requantization. *)
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img in
        let rest = tidx mod tiles_per_img in
        let th = rest / n_tw and tw = rest mod n_tw in
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          Kernels.load_tile_i xd ~h ~w
            ~base:(((ni * cin) + ci) * h * w)
            ~pad ~h0:(th * m) ~w0:(tw * m) ~t tile;
          ki.Kernels.input tile 0 xt 0 tmp;
          let vbase = (((ib * cin) + ci) * mr) + ir in
          (* Per-tap requant, inlined bit-identically to [requant_tap]:
             calling it here would box the float scales every element. *)
          for tap = 0 to tt - 1 do
            let vv = xt.(tap) in
            let q =
              if pow2 then begin
                let k = shift_flat.(tap) in
                let shifted =
                  if k > 0 then begin
                    let half = 1 lsl (k - 1) in
                    if vv >= 0 then (vv + half) asr k
                    else -((-vv + half) asr k)
                  end
                  else if k = 0 then vv
                  else vv lsl -k
                in
                if shifted > w_hi then w_hi
                else if shifted < w_lo then w_lo
                else shifted
              end
              else begin
                let r =
                  int_of_float
                    (Float.round (float_of_int vv *. s_from /. sb_flat.(tap)))
                in
                if r > w_hi then w_hi else if r < w_lo then w_lo else r
              end
            in
            v.((tap * tbcin) + vbase) <- q
          done
        done
      done;
      (* Zero the pad rows of a trailing partial block. *)
      for bidx = bs to bs_p - 1 do
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          let vbase = (((ib * cin) + ci) * mr) + ir in
          for tap = 0 to tt - 1 do
            v.((tap * tbcin) + vbase) <- 0
          done
        done
      done;
      (* One register-tiled int GEMM per tap (int2b accumulation over
         input channels, exact and order-independent).  Taps whose
         packed panel came out below the sparse threshold run the
         compressed-column driver — bit-identical, it only skips exact
         zeros. *)
      Array.fill mo 0 (tt * tb * cout_p) 0;
      for tap = 0 to tt - 1 do
        match p.sparse.(tap) with
        | Some sp ->
            Microkernel.gemm_i32_sparse ~mr ~rows_p:bs_p ~sp ~vp:v
              ~vo:(tap * tbcin) ~c:mo ~co:(tap * tb * cout_p)
              ~cstride:cout_p
        | None ->
            Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p:bs_p ~cols_p:cout_p
              ~k:cin ~vp:v ~vo:(tap * tbcin) ~up:u ~uo:(tap * ucincp) ~c:mo
              ~co:(tap * tb * cout_p) ~cstride:cout_p
      done;
      (* Gather: single S_BG rescale, float back-transform, requantize. *)
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img in
        let rest = tidx mod tiles_per_img in
        let th = rest / n_tw and tw = rest mod n_tw in
        let h0 = th * m and w0 = tw * m in
        let rh = min m (ho - h0) and rw = min m (wo - w0) in
        for co = 0 to cout - 1 do
          for tap = 0 to tt - 1 do
            yw.(tap) <-
              float_of_int mo.((((tap * tb) + bidx) * cout_p) + co)
              *. sb_flat.(tap)
              *. ws_flat.((co * tt) + tap)
          done;
          kf.Kernels.output yw 0 yo 0 ftmp;
          let bias_v =
            match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co)
          in
          for dy = 0 to rh - 1 do
            let orow = (((((ni * cout) + co) * ho) + h0 + dy) * wo) + w0 in
            let yrow = dy * m in
            for dx = 0 to rw - 1 do
              (* Inlined [Quantizer.quantize ~bits:act_bits ~scale:s_y]. *)
              let r =
                int_of_float (Float.round ((yo.(yrow + dx) +. bias_v) /. s_y))
              in
              let q =
                if r > a_hi then a_hi else if r < a_lo then a_lo else r
              in
              Kernels.epilogue_store epilogue od (orow + dx) q
            done
          done
        done
      done)

let forward_int l x_int =
  let p = pack l in
  let n = Itensor.dim x_int 0 in
  let h = Itensor.dim x_int 2 and w = Itensor.dim x_int 3 in
  let cout = Itensor.dim l.wq 0 in
  let ho, wo = Shape.conv2d_out ~h ~w ~kh:3 ~kw:3 ~stride:1 ~pad:l.pad in
  let out = Itensor.zeros [| n; cout; ho; wo |] in
  forward_int_into p x_int ~out;
  out

let forward l x =
  let x_int = Quantizer.quantize_tensor ~bits:l.config.act_bits ~scale:l.s_x x in
  Quantizer.dequantize_tensor ~scale:l.s_y (forward_int l x_int)

let forward_float_ref l x =
  let { variant; act_bits; wino_bits; _ } = l.config in
  let pad = l.pad in
  let t = Transform.t variant and m = Transform.m variant in
  let xq = Quantizer.fake_quant_tensor ~bits:act_bits ~scale:l.s_x x in
  let n = Tensor.dim xq 0 and cin = Tensor.dim xq 1 in
  let h = Tensor.dim xq 2 and w = Tensor.dim xq 3 in
  let cout = Itensor.dim l.wq 0 in
  let ho, wo = Shape.conv2d_out ~h ~w ~kh:3 ~kw:3 ~stride:1 ~pad in
  let out = Tensor.zeros [| n; cout; ho; wo |] in
  let n_th = (ho + m - 1) / m and n_tw = (wo + m - 1) / m in
  for ni = 0 to n - 1 do
    for th = 0 to n_th - 1 do
      for tw = 0 to n_tw - 1 do
        let xt_q =
          Array.init cin (fun ci ->
              let tile =
                Tensor.init [| t; t |] (fun idx ->
                    let hi = (th * m) + idx.(0) - pad
                    and wi = (tw * m) + idx.(1) - pad in
                    if hi < 0 || hi >= h || wi < 0 || wi >= w then 0.0
                    else Tensor.get4 xq ni ci hi wi)
              in
              let xt = Transform.input_tile variant tile in
              Tensor.init [| t; t |] (fun idx ->
                  float_of_int
                    (Quantizer.quantize ~bits:wino_bits
                       ~scale:l.s_b.(idx.(0)).(idx.(1))
                       (Tensor.get2 xt idx.(0) idx.(1)))))
        in
        for co = 0 to cout - 1 do
          let acc = Tensor.zeros [| t; t |] in
          for ci = 0 to cin - 1 do
            for i = 0 to t - 1 do
              for j = 0 to t - 1 do
                Tensor.set2 acc i j
                  (Tensor.get2 acc i j
                  +. (Tensor.get2 xt_q.(ci) i j *. float_of_int (Itensor.get4 l.wq co ci i j)))
              done
            done
          done;
          let y_wino =
            Tensor.init [| t; t |] (fun idx ->
                Tensor.get2 acc idx.(0) idx.(1)
                *. l.s_b.(idx.(0)).(idx.(1))
                *. weight_scale l co idx.(0) idx.(1))
          in
          let y = Transform.output_tile variant y_wino in
          let bias_v =
            match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co)
          in
          for dy = 0 to m - 1 do
            for dx = 0 to m - 1 do
              let oh = (th * m) + dy and ow = (tw * m) + dx in
              if oh < ho && ow < wo then
                Tensor.set4 out ni co oh ow
                  (Quantizer.fake_quant ~bits:act_bits ~scale:l.s_y
                     (Tensor.get2 y dy dx +. bias_v))
            done
          done
        done
      done
    done
  done;
  out

let quantization_noise l x ~w =
  let reference = Ops.conv2d ~stride:1 ~pad:l.pad ~x ~w ?b:l.bias () in
  let quantized = forward l x in
  let err = Tensor.sub reference quantized in
  sqrt (Tensor.sumsq err /. Float.max 1e-30 (Tensor.sumsq reference))
