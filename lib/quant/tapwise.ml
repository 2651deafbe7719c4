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
  granularity : granularity;
}

let default_config variant =
  { variant; act_bits = 8; wino_bits = 8; granularity = Tap_wise }

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
  let { variant; act_bits; wino_bits; granularity } = config in
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
        Quantizer.pow2_round_up
          (Quantizer.scale_for ~bits:act_bits ~max_abs:x_max)
  in
  let s_w =
    Quantizer.pow2_round_up
      (Quantizer.scale_for ~bits:act_bits ~max_abs:(Tensor.max_abs w))
  in
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
  (* Externally learned tap scales (e.g. from Winograd-aware training with
     log2-gradient scale learning) override the static calibration; every
     grid is snapped onto the pow2 grid of the integer datapath. *)
  let s_b, s_g =
    match scale_grids with
    | None -> (s_b, s_g)
    | Some learned -> learned
  in
  let s_b = pow2_align ~base:s_x s_b and s_g = pow2_align ~base:s_w s_g in
  (* The combined strategy refines the weight scales per output channel
     (Sec. V-A4: "combining channel-wise with tap-wise"). *)
  let s_g_channel =
    match granularity with
    | Channel_tap_wise ->
        Some
          (Array.map
             (fun grid -> pow2_align ~base:s_w (to_scales grid))
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
  let s_y =
    Quantizer.pow2_round_up (Quantizer.scale_for ~bits:act_bits ~max_abs:y_max)
  in
  { config; pad; s_x; s_w; s_y; s_b; s_g; s_g_channel; wq; bias }

let shift_of_ratio ratio = int_of_float (Float.round (Float.log2 ratio))

let input_shift l i j = shift_of_ratio (l.s_b.(i).(j) /. l.s_x)
let weight_shift l i j = shift_of_ratio (l.s_g.(i).(j) /. l.s_w)

(* Requantize one integer Winograd tap: X_int carries value X_int·s_x; the
   target grid is s_b, an exact power-of-two multiple of it, so the rescale
   is the hardware round-shift. *)
let requant_tap ~bits ~s_from ~s_to v =
  let k = shift_of_ratio (s_to /. s_from) in
  let shifted =
    if k >= 0 then Itensor.round_shift v (min k 62) else v lsl min (-k) bits
  in
  Itensor.clamp_int ~bits shifted

(* Tile-major reference path for the integer pipeline — kept as the
   oracle for the tap-major [forward_int] below. *)
let forward_int_ref l x_int =
  let { variant; act_bits; wino_bits; _ } = l.config in
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
                  requant_tap ~bits:wino_bits ~s_from:(l.s_x /. bt2)
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

module Kernels = Twq_winograd.Kernels
module Microkernel = Twq_winograd.Microkernel

(* Everything about the layer that does not depend on the input shape,
   staged once: the dense taps' Winograd weight panels, the folded
   gather scales and the per-tap requant shifts.  [forward_int]
   rebuilt these on every call before the planner existed; packing once
   when the graph node is built removes that per-forward cost. *)
type packed = {
  layer : layer;
  panel : int array;
      (* The dense taps' Winograd weights, one panel per dense tap at
         [tap_off.(tap)]: NR-packed [u[((jb·cin + ci)·nr + jr)]] with
         [co = jb·nr+jr], or, when [paired], the same panel with each
         pair of adjacent lanes folded into one int
         ([Microkernel.pair_panel]).  Pad lanes [co ≥ cout] are zero;
         sparse taps have no dense panel. *)
  tap_off : int array;
  paired : bool;
      (* The range proof held: every per-tap accumulator fits
         [Microkernel.pair_acc_bits], so dense taps run
         [Microkernel.gemm_i32_pair]. *)
  acc_bits : int;  (* worst-case signed accumulator bits of the proof *)
  cout_p : int;  (* cout rounded up to [nr] *)
  sparse : Microkernel.sparse option array;
      (* Per-tap compressed panel, present iff the tap's measured
         density fell below [Microkernel.sparse_threshold] at pack
         time.  [None] taps run the dense driver unchanged. *)
  tap_density : float array;  (* measured nonzero fraction per tap *)
  sbg : float array;
      (* sbg[co·tt + tap] = s_b(tap)·s_g(co, tap), the single S_BG
         rescale of the gather.  Every s_g is a power of two ([pack]
         checks it), so (acc·s_b)·s_g = acc·(s_b·s_g) exactly. *)
  rq : int array;
      (* Per-tap requant s_b(tap)/s_from = 2^k, three ints per tap as
         [Tile_engines.scatter] reads them: the rounding offset
         rq.(3·tap) = 2^(rshift-1) (0 when rshift = 0), the right shift
         rq.(3·tap+1) = rshift = min (max k 0) 62, and the left shift
         rq.(3·tap+2) = min (max (-k) 0) wino_bits.  The caps keep both
         shifts inside the word (OCaml's [asr 64] and [lsl 63] do not
         shift by that much) and change no result: a right shift by 62
         already rounds every |v| < 2^61 to 0, and a left shift by
         wino_bits already saturates every v ≠ 0.  The scatter runs per
         element; going through [requant_tap] there would box its float
         arguments on every call (no flambda), and branching on k or on
         the value's sign costs mispredictions, so the engine is
         straight-line int arithmetic. *)
}

(* The integer Bᵀ carries a bt_scale factor (F6); the scatter folds its
   square into the source scale s_x/bt_scale² so every requant shift is
   exact.  A left shift (k < 0) is capped at wino_bits, see [rq]. *)
let bt_scale2 variant =
  float_of_int (Transform.bt_scale variant * Transform.bt_scale variant)

let left_shift ~wino_bits k = min (max (-k) 0) wino_bits

(* The scatter's pre-clamp range proof.  A transformed tap is bounded
   by max|x| · L_i · L_j, where L_i is the L1 norm of row i of the
   integer Bᵀ, so by 2^(act_bits−1) · G with G the square of the largest
   row norm; the left shift multiplies it by 2^lshift.  Below 2^61 the
   shift cannot wrap the word and the engine's branch-free clamp
   computes [z − hi] and [z − lo] without overflow (|lo|, |hi| < 2^61
   for any [wino_bits] ≤ 62).  The check runs in floats: G < 2^53, so
   the scaled bound is exact.  Also run by [Serialize] at load, so an
   artifact that fails it is a parse error rather than a pack failure. *)
let scatter_range_error l =
  let { variant; act_bits; wino_bits; _ } = l.config in
  let t = Transform.t variant in
  let l1 =
    Array.fold_left
      (fun a row -> max a (Array.fold_left (fun s c -> s + abs c) 0 row))
      0
      (Transform.bt_scaled_int variant)
  in
  let g = float_of_int (l1 * l1) in
  let s_from = l.s_x /. bt_scale2 variant in
  let rec check tap =
    if tap = t * t then None
    else
      let i = tap / t and j = tap mod t in
      let lshift =
        left_shift ~wino_bits (shift_of_ratio (l.s_b.(i).(j) /. s_from))
      in
      if Float.ldexp g (act_bits - 1 + lshift) >= Float.ldexp 1.0 61 then
        Some
          (Printf.sprintf
             "tap (%d,%d) of %s can reach 2^%d · %d · 2^%d >= 2^61 before its \
              clamp (act_bits = %d, wino_bits = %d)"
             i j (Transform.name variant) (act_bits - 1) (l1 * l1) lshift
             act_bits wino_bits)
      else check (tap + 1)
  in
  check 0

(* The accumulator range proof.  The scatter clamps every activation to
   |a| ≤ 2^(wino_bits−1) and C starts at zero, so every prefix sum of
   tap [tap], column [co] is bounded by
   2^(wino_bits−1) · Σ_ci |wq(co, ci, tap)|; the worst of these over
   (tap, co) needs [acc_bits] signed bits.  The sums are taken in
   floats so that weights from a loaded artifact cannot wrap them: they
   are exact below 2^53, and any sum that large fails the proof anyway.
   For an integer s > 0, [Float.frexp s] returns the e with
   2^(e-1) ≤ s < 2^e.  The same pass counts each tap's nonzero weights
   for [pack]'s sparse/dense decision. *)
let weight_stats l =
  let tt = Transform.t l.config.variant * Transform.t l.config.variant in
  let cout = Itensor.dim l.wq 0 and cin = Itensor.dim l.wq 1 in
  let wd = l.wq.Itensor.data in
  let nnz = Array.make tt 0 and colsum = Array.make tt 0.0 in
  let wsum_max = ref 0.0 in
  for co = 0 to cout - 1 do
    Array.fill colsum 0 tt 0.0;
    for ci = 0 to cin - 1 do
      let base = ((co * cin) + ci) * tt in
      for tap = 0 to tt - 1 do
        let w = wd.(base + tap) in
        colsum.(tap) <- colsum.(tap) +. Float.abs (float_of_int w);
        nnz.(tap) <- nnz.(tap) + Bool.to_int (w <> 0)
      done
    done;
    for tap = 0 to tt - 1 do
      wsum_max := Float.max !wsum_max colsum.(tap)
    done
  done;
  let acc_bits =
    if !wsum_max = 0.0 then 1 else l.config.wino_bits + snd (Float.frexp !wsum_max)
  in
  (acc_bits, nnz)

(* Past [Sys.int_size] signed bits the GEMM's int accumulators, and the
   oracle's, would wrap alike. *)
let acc_error l bits =
  if bits <= Sys.int_size then None
  else
    Some
      (Printf.sprintf
         "per-tap accumulators can need %d signed bits > %d (act_bits = \
          %d, wino_bits = %d, cin = %d)"
         bits Sys.int_size l.config.act_bits l.config.wino_bits
         (Itensor.dim l.wq 1))

let acc_range_error l = acc_error l (fst (weight_stats l))

let pack l =
  let { variant; wino_bits; _ } = l.config in
  let t = Transform.t variant in
  let tt = t * t in
  let cout = Itensor.dim l.wq 0 and cin = Itensor.dim l.wq 1 in
  let sbg =
    Array.init (cout * tt) (fun idx ->
        let co = idx / tt and tap = idx mod tt in
        let i = tap / t and j = tap mod t in
        let s_g = weight_scale l co i j in
        if fst (Float.frexp s_g) <> 0.5 then
          invalid_arg
            (Printf.sprintf
               "Tapwise.pack: weight tap scale s_g(%d,%d) = %h of channel %d \
                is not a power of two"
               i j s_g co);
        l.s_b.(i).(j) *. s_g)
  in
  let { Microkernel.nr; _ } = Microkernel.config () in
  let cout_p = Microkernel.round_up cout nr in
  let ucincp = cin * cout_p in
  let s_from = l.s_x /. bt_scale2 variant in
  let shift =
    Array.init tt (fun tap -> shift_of_ratio (l.s_b.(tap / t).(tap mod t) /. s_from))
  in
  let rq =
    Array.init (3 * tt) (fun i ->
        let k = shift.(i / 3) in
        let rshift = min (max k 0) 62 in
        match i mod 3 with
        | 0 -> (1 lsl rshift) lsr 1
        | 1 -> rshift
        | _ -> left_shift ~wino_bits k)
  in
  Option.iter (fun m -> invalid_arg ("Tapwise.pack: " ^ m)) (scatter_range_error l);
  let acc_bits, nnz = weight_stats l in
  Option.iter (fun m -> invalid_arg ("Tapwise.pack: " ^ m)) (acc_error l acc_bits);
  let wd = l.wq.Itensor.data in
  let paired = acc_bits <= Microkernel.pair_acc_bits in
  (* Sparse/dense is decided per tap against the process-wide
     threshold: density is the nonzero fraction of the tap's weights
     (the packed panel's pad lanes are zero and not counted), and a tap
     below the cutoff keeps only its compressed form.  With the
     threshold at 0.0 every tap stays dense, byte for byte. *)
  let thresh = Microkernel.sparse_threshold () in
  let denom = float_of_int (max 1 (cin * cout)) in
  let tap_density = Array.map (fun z -> float_of_int z /. denom) nnz in
  let width = if paired then ucincp / 2 else ucincp in
  let ndense =
    Array.fold_left (fun a d -> if d < thresh then a else a + 1) 0 tap_density
  in
  (* One row of the tap grid at a time through a reused buffer of [t]
     wide tap panels, so a paired layer never holds the whole wide
     panel, while each pass over the weights still reads [t] contiguous
     taps per (co, ci) instead of striding over all [t²]. *)
  let panel = Array.make (ndense * width) 0 in
  let tap_off = Array.make tt 0 in
  let sparse = Array.make tt None in
  let buf = Array.make (t * ucincp) 0 in
  let next = ref 0 in
  for row = 0 to t - 1 do
    for co = 0 to cout - 1 do
      for ci = 0 to cin - 1 do
        let src = ((((co * cin) + ci) * tt) + (row * t))
        and dst = (((co / nr * cin) + ci) * nr) + (co mod nr) in
        for j = 0 to t - 1 do
          buf.((j * ucincp) + dst) <- wd.(src + j)
        done
      done
    done;
    for j = 0 to t - 1 do
      let tap = (row * t) + j and so = j * ucincp in
      if tap_density.(tap) < thresh then
        sparse.(tap) <-
          Some (Microkernel.compress_panel ~nr ~k:cin ~cols:cout_p buf ~uo:so)
      else begin
        tap_off.(tap) <- !next;
        if paired then
          Microkernel.pair_panel buf ~so ~n:ucincp panel ~doff:!next
        else Array.blit buf so panel !next ucincp;
        next := !next + width
      end
    done
  done;
  { layer = l; panel; tap_off; paired; acc_bits; cout_p; sparse; tap_density;
    sbg; rq }

let packed_layer p = p.layer
let paired p = p.paired
let acc_bits p = p.acc_bits
let tap_densities p = Array.copy p.tap_density

let sparse_tap_count p =
  Array.fold_left
    (fun acc s -> match s with Some _ -> acc + 1 | None -> acc)
    0 p.sparse

(* Production path: the same integer pipeline run by the shared
   tap-major loop ({!Twq_winograd.Kernels.tap_major}) — the generated
   engine ({!Tile_engines}) transforms, requantizes and
   clamps each (tile, cin) window once, one register-tiled int GEMM per
   tap ({!Twq_winograd.Microkernel}) runs against the packed
   pre-quantized Winograd weights (paired, wide or compressed, as
   [pack] decided), and the generated gather rescales with [S_BG] and
   back-transforms before the [s_y] requant.  Integer addition is
   associative and the paired lanes are proven not to overflow, so
   every GEMM stays bit-identical to [forward_int_ref].  Writes into the
   caller-provided [out] and applies [epilogue] in the gather store, so
   the planner can fuse requant/ReLU/residual-add into this single
   output pass. *)
let forward_int_into ?(epilogue = Kernels.no_epilogue) p x_int ~out =
  let l = p.layer in
  let { variant; act_bits; wino_bits; _ } = l.config in
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
  let od = out.Itensor.data in
  let scatter = Tile_engines.scatter variant in
  let gather = Tile_engines.gather variant in
  let sbg = p.sbg and panel = p.panel and tap_off = p.tap_off in
  let paired = p.paired and rq = p.rq in
  (* Clamp bounds and the output scale, hoisted so the per-element
     loops below are pure unboxed arithmetic (no allocating calls). *)
  let w_hi = (1 lsl (wino_bits - 1)) - 1 in
  let w_lo = -(w_hi + 1) in
  let a_hi = (1 lsl (act_bits - 1)) - 1 in
  let a_lo = -(a_hi + 1) in
  let a_hi_f = float_of_int a_hi +. 0.5 and a_lo_f = float_of_int a_lo -. 0.5 in
  let s_y = l.s_y in
  let cout_p = p.cout_p in
  let { Microkernel.mr; nr; kc } = Microkernel.config () in
  Kernels.tap_major Kernels.i32_lane Kernels.f32_lane
    (Kernels.i32_specialized variant)
    ~panels:tt ~pad ~x:x_int.Itensor.data ~n ~cin ~h ~w ~cout
    ~weights:
      (Kernels.Packed
         {
           (* int2b accumulation over input channels, exact and
              order-independent.  Taps whose packed panel came out below
              the sparse threshold run the compressed-column driver —
              bit-identical, it only skips exact zeros; the dense taps of
              a layer whose range proof held run two products per word,
              bit-identical within the proven bound.  Every driver writes
              its slab block. *)
           gemm =
             (fun tap rows_p v vo mo co ->
               match p.sparse.(tap) with
               | Some sp ->
                   Microkernel.gemm_i32_sparse ~mr ~rows_p ~sp ~vp:v ~vo ~c:mo
                     ~co ~cstride:cout_p
               | None when paired ->
                   Microkernel.gemm_i32_pair ~mr ~nr ~kc ~rows_p ~cols_p:cout_p
                     ~k:cin ~vp:v ~vo ~up:panel ~uo:tap_off.(tap) ~c:mo ~co
                     ~cstride:cout_p
               | None ->
                   Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p:cout_p ~k:cin
                     ~vp:v ~vo ~up:panel ~uo:tap_off.(tap) ~c:mo ~co
                     ~cstride:cout_p);
           (* Transform, per-tap requant and clamp of one window,
              bit-identical to [Transform.input_tile_int] then
              [requant_tap]; neither the round-shift nor the clamp
              branches on the value. *)
           scatter =
             (fun src soff rs v vbase stride ->
               scatter src soff rs v vbase stride rq w_lo w_hi);
         })
    (* Single S_BG rescale and float back-transform in the generated
       gather, then the requantizing store. *)
    ~gather:(fun mo off stride _ yo _ obase rh rw ->
      for co = 0 to cout - 1 do
        gather mo (off + co) stride sbg (co * tt) yo;
        let bias_v =
          match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co)
        in
        for dy = 0 to rh - 1 do
          let orow = obase + (((co * ho) + dy) * wo) and yrow = dy * m in
          for dx = 0 to rw - 1 do
            (* [Quantizer.quantize ~bits:act_bits ~scale:s_y], inlined so
               the float stays unboxed: saturate first, then truncate and
               round half away from zero by comparing the exact fraction,
               which needs no call to [Float.round] and no branch on the
               sign.  NaN fails both range tests and truncates to 0; the
               saturation stays a branch to keep that and the ±inf
               rails. *)
            let x = (yo.(yrow + dx) +. bias_v) /. s_y in
            let q =
              if x >= a_hi_f then a_hi
              else if x <= a_lo_f then a_lo
              else
                let i = int_of_float x in
                let f = x -. float_of_int i in
                i + Bool.to_int (f >= 0.5) - Bool.to_int (f <= -0.5)
            in
            Kernels.epilogue_store epilogue od (orow + dx) q
          done
        done
      done)
    ()

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
