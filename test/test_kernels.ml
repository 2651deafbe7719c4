(* Bit-identity of the specialized tap-major Winograd kernels: single
   tiles against the generic Rmat sandwich, full convolutions against the
   two references in [Oracle], the GEMM drivers against naive loops, for
   every variant, random shapes, and under TWQ_NUM_DOMAINS=4.

   "Bit-identical" for the float path means every element compares equal
   with [=] (the specialized transforms may only differ from the generic
   matmuls in the sign of a zero, which [=] treats as equal); the integer
   path is exact arithmetic and must match verbatim. *)

module Parallel = Twq_util.Parallel
module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Transform = Twq_winograd.Transform
module Kernels = Twq_winograd.Kernels
module Microkernel = Twq_winograd.Microkernel
module Conv = Twq_winograd.Conv
module Gconv = Twq_winograd.Gconv
module Generator = Twq_winograd.Generator
module Tapwise = Twq_quant.Tapwise
module Qconv = Twq_quant.Qconv
module Quantizer = Twq_quant.Quantizer

let with_domains n f =
  Parallel.set_num_domains n;
  Fun.protect ~finally:(fun () -> Parallel.clear_num_domains_override ()) f

let float_eq a b =
  Array.length a.Tensor.data = Array.length b.Tensor.data
  && Array.for_all2 (fun x y -> x = y) a.Tensor.data b.Tensor.data

let variant_gen =
  QCheck2.Gen.oneofl [ Transform.F2; Transform.F4; Transform.F6 ]

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let tensor_of_rng rng shape = Tensor.rand_gaussian rng shape ~mu:0.0 ~sigma:1.0

let itensor_of_rng rng shape =
  Itensor.init shape (fun _ -> Twq_util.Rng.int rng 255 - 127)

(* ----------------------- single-tile transform steps vs Rmat sandwich *)

(* The row-major [t×t] tile [x] placed as a window of a larger buffer,
   at a nonzero offset with rows [rs > t] apart; every other element is
   [fill], so a [window] that reads outside the tile shows. *)
let strided_window rng fill x ~t =
  let soff = 1 + Twq_util.Rng.int rng 5 and rs = t + 1 + Twq_util.Rng.int rng 3 in
  let src = Array.make (soff + ((t - 1) * rs) + t + 2) fill in
  for dy = 0 to t - 1 do
    Array.blit x (dy * t) src (soff + (dy * rs)) t
  done;
  (src, soff, rs)

let prop_float_tiles =
  QCheck2.Test.make ~count:100 ~name:"specialized f32 tile = Rmat sandwich"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) ->
      let rng = Twq_util.Rng.create seed in
      let t = Transform.t v and m = Transform.m v in
      let k = Kernels.f32_specialized v in
      let tmp = Array.make (t * t) nan in
      let x = tensor_of_rng rng [| t; t |] in
      let got_in = Array.make (t * t) nan in
      k.Kernels.input x.Tensor.data 0 got_in 0 tmp;
      let src, soff, rs = strided_window rng nan x.Tensor.data ~t in
      let got_win = Array.make (t * t) nan in
      k.Kernels.window src soff rs got_win tmp;
      let f = tensor_of_rng rng [| 3; 3 |] in
      let got_w = Array.make (t * t) nan in
      k.Kernels.weight f.Tensor.data 0 got_w 0 tmp;
      let y = tensor_of_rng rng [| t; t |] in
      let got_out = Array.make (m * m) nan in
      k.Kernels.output y.Tensor.data 0 got_out 0 tmp;
      got_in = (Transform.input_tile v x).Tensor.data
      && got_win = got_in
      && got_w = (Transform.weight_tile v f).Tensor.data
      && got_out = (Transform.output_tile v y).Tensor.data)

let prop_int_tiles =
  QCheck2.Test.make ~count:100 ~name:"specialized i32 tile = int sandwich"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) ->
      let rng = Twq_util.Rng.create seed in
      let t = Transform.t v and m = Transform.m v in
      let k = Kernels.i32_specialized v in
      let tmp = Array.make (t * t) 0 in
      let x = itensor_of_rng rng [| t; t |] in
      let got_in = Array.make (t * t) 0 in
      k.Kernels.input x.Itensor.data 0 got_in 0 tmp;
      let src, soff, rs = strided_window rng max_int x.Itensor.data ~t in
      let got_win = Array.make (t * t) 0 in
      k.Kernels.window src soff rs got_win tmp;
      let f = itensor_of_rng rng [| 3; 3 |] in
      let got_w = Array.make (t * t) 0 in
      k.Kernels.weight f.Itensor.data 0 got_w 0 tmp;
      let y = itensor_of_rng rng [| t; t |] in
      let got_out = Array.make (m * m) 0 in
      k.Kernels.output y.Itensor.data 0 got_out 0 tmp;
      got_in = (Transform.input_tile_int v x).Itensor.data
      && got_win = got_in
      && got_w = (Transform.weight_tile_int_scaled v f).Itensor.data
      && got_out = (Transform.output_tile_int v y).Itensor.data)

(* ------------------------------------- full convs, random NCHW shapes *)

let scale2_of v =
  let s = Transform.bt_scale v * Transform.g_scale v * Transform.at_scale v in
  s * s

(* Every full-conv property below draws its shape from one seed: batch
   1..2, Cin/Cout 1..9 (straddling the 4×4 register block), height r..14,
   an independent width r..17 (so ragged), pad 0..r/2.  The production
   call runs under [nd] domains and must equal the [Oracle] reference. *)
type float_conv =
  | Fixed of Transform.variant (* Conv.conv2d, with or without a bias *)
  | Micro of Transform.variant (* Kernels.conv2d_f32 directly *)
  | Generated of int * int (* Gconv.conv2d on a generated F(m,r) *)

let tensor_of_rmat mat =
  let f = Twq_util.Rmat.to_float mat in
  Tensor.init [| Array.length f; Array.length f.(0) |] (fun i ->
      f.(i.(0)).(i.(1)))

let conv_shape rng r =
  let n = 1 + Twq_util.Rng.int rng 2 in
  let cin = 1 + Twq_util.Rng.int rng 9 and cout = 1 + Twq_util.Rng.int rng 9 in
  let h = r + Twq_util.Rng.int rng (15 - r)
  and w = r + Twq_util.Rng.int rng (18 - r) in
  let pad = Twq_util.Rng.int rng ((r / 2) + 1) in
  (n, cin, cout, h, w, pad)

let float_conv_matches conv nd seed =
  let rng = Twq_util.Rng.create seed in
  let r = match conv with Generated (_, r) -> r | Fixed _ | Micro _ -> 3 in
  let n, cin, cout, h, w, pad = conv_shape rng r in
  let x = tensor_of_rng rng [| n; cin; h; w |] in
  let wt = tensor_of_rng rng [| cout; cin; r; r |] in
  let fixed_oracle v ?b () =
    Oracle.winograd_f32 ~bt:(Transform.bt v) ~g:(Transform.g v)
      ~at:(Transform.at v) ~pad ?b ~x ~w:wt ()
  in
  let got, want =
    match conv with
    | Fixed v ->
        let b =
          if Twq_util.Rng.bool rng then Some (tensor_of_rng rng [| cout |])
          else None
        in
        ( with_domains nd (fun () -> Conv.conv2d ~variant:v ~pad ~x ~w:wt ?b ()),
          fixed_oracle v ?b () )
    | Micro v ->
        let k = Kernels.f32_specialized v in
        ( with_domains nd (fun () -> Kernels.conv2d_f32 k ~pad ~x ~w:wt),
          fixed_oracle v () )
    | Generated (m, r) ->
        let gc = Gconv.create ~m ~r () in
        let gen =
          Generator.make ~points:(Generator.lavin_points (m + r - 2)) ~m ~r
        in
        ( with_domains nd (fun () -> Gconv.conv2d gc ~pad ~x ~w:wt ()),
          Oracle.winograd_f32
            ~bt:(tensor_of_rmat gen.Generator.bt)
            ~g:(tensor_of_rmat gen.Generator.g)
            ~at:(tensor_of_rmat gen.Generator.at)
            ~pad ~x ~w:wt () )
  in
  float_eq got want

let prop_conv_f32 =
  QCheck2.Test.make ~count:40 ~name:"tap-major conv2d = tile-major ref"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) -> float_conv_matches (Fixed v) 1 seed)

let prop_conv_f32_four_domains =
  QCheck2.Test.make ~count:30
    ~name:"tap-major conv2d = ref under TWQ_NUM_DOMAINS=4"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) -> float_conv_matches (Fixed v) 4 seed)

let prop_gconv =
  QCheck2.Test.make ~count:40 ~name:"gconv compiled plans = matmul sandwich"
    QCheck2.Gen.(tup4 (int_range 2 4) (oneofl [ 3; 5 ]) (int_range 1 4) seed_gen)
    (fun (m, r, nd, seed) -> float_conv_matches (Generated (m, r)) nd seed)

let prop_micro_f32_edge =
  QCheck2.Test.make ~count:40
    ~name:"microkernel conv2d_f32 = naive ref (edge shapes)"
    QCheck2.Gen.(tup3 variant_gen (oneofl [ 1; 4 ]) seed_gen)
    (fun (v, nd, seed) -> float_conv_matches (Micro v) nd seed)

(* The exact integer drivers against [Oracle.direct_int] over full int8
   ranges, F2/F4/F6: through [Conv.conv2d_int_bit_true] or straight into
   [Kernels.conv2d_i32_exact]. *)
let int_conv_matches ~micro v nd seed =
  let rng = Twq_util.Rng.create seed in
  let n, cin, cout, h, w, pad = conv_shape rng 3 in
  let x = itensor_of_rng rng [| n; cin; h; w |] in
  let wt = itensor_of_rng rng [| cout; cin; 3; 3 |] in
  let got =
    with_domains nd (fun () ->
        if micro then
          Kernels.conv2d_i32_exact (Kernels.i32_specialized v)
            ~scale2:(scale2_of v) ~pad ~x ~w:wt
        else Conv.conv2d_int_bit_true ~variant:v ~pad ~x ~w:wt ())
  in
  Itensor.equal got (Oracle.direct_int ~pad ~x ~w:wt ())

let prop_conv_int =
  QCheck2.Test.make ~count:40 ~name:"tap-major int conv = tile-major ref"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) -> int_conv_matches ~micro:false v 1 seed)

let prop_conv_int_four_domains =
  QCheck2.Test.make ~count:30
    ~name:"tap-major int conv = ref under TWQ_NUM_DOMAINS=4"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) -> int_conv_matches ~micro:false v 4 seed)

let prop_micro_int_edge =
  QCheck2.Test.make ~count:40
    ~name:"microkernel conv2d_i32_exact = naive ref (edge shapes)"
    QCheck2.Gen.(tup3 variant_gen (oneofl [ 1; 4 ]) seed_gen)
    (fun (v, nd, seed) -> int_conv_matches ~micro:true v nd seed)

(* ------------------------------------ quantized tap-wise forward_int *)

(* Batches up to 3 make the shared loop's tile decode cross image
   boundaries inside a block.  Pads 0..2 and sides 4..20 give every
   variant, F6's 8×8 windows included, both interior tiles (read in
   place) and border tiles (staged zero-padded). *)
let prop_tapwise =
  QCheck2.Test.make ~count:15 ~name:"tap-major forward_int = tile-major ref"
    QCheck2.Gen.(
      tup5 variant_gen
        (oneofl [ Tapwise.Single_scale; Tapwise.Tap_wise; Tapwise.Channel_tap_wise ])
        (int_range 1 4) (int_range 1 3) seed_gen)
    (fun (v, gran, nd, n, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 3
      and cout = 1 + Twq_util.Rng.int rng 3 in
      let pad = Twq_util.Rng.int rng 3 in
      let h = 4 + Twq_util.Rng.int rng 17 and wd = 4 + Twq_util.Rng.int rng 17 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
      let bias = Tensor.rand_gaussian rng [| cout |] ~mu:0.0 ~sigma:0.1 in
      let samples = [ tensor_of_rng rng [| 1; cin; h; wd |] ] in
      let config = { (Tapwise.default_config v) with Tapwise.granularity = gran } in
      let l = Tapwise.calibrate ~config ~w ~bias ~sample_inputs:samples ~pad () in
      let x = tensor_of_rng rng [| n; cin; h; wd |] in
      let xi =
        Quantizer.quantize_tensor ~bits:config.Tapwise.act_bits ~scale:l.Tapwise.s_x x
      in
      let got = with_domains nd (fun () -> Tapwise.forward_int l xi) in
      let want = Tapwise.forward_int_ref l xi in
      Itensor.equal got want)

(* The fused epilogue as the definition, kept test-side so the property
   below does not lean on [Kernels.epilogue_store]: round-half-away
   shifts written with a sign branch, a saturating add, then ReLU. *)
let reference_epilogue ~relu ~add v off =
  let shift v k =
    if k = 0 then v
    else
      let half = 1 lsl (k - 1) in
      if v >= 0 then (v + half) asr k else -((-v + half) asr k)
  in
  let v =
    match add with
    | None -> v
    | Some { Kernels.other; shift_self; shift_other; bits } ->
        let hi = (1 lsl (bits - 1)) - 1 in
        let sum = shift v shift_self + shift other.(off) shift_other in
        if sum > hi then hi else if sum < -hi - 1 then -hi - 1 else sum
  in
  if relu && v < 0 then 0 else v

(* The fused gather store of [Tapwise.forward_int_into] against the
   tile-major oracle followed by [reference_epilogue]: random ReLU and an
   optional residual add with shifts 0..2, every variant and
   granularity, pads 0..2 and sides 4..20 (interior and border tiles),
   batches up to 3, 1 or 4 domains. *)
let prop_tapwise_epilogue =
  QCheck2.Test.make ~count:30
    ~name:"tap-major forward_int_into ~epilogue = ref then epilogue"
    QCheck2.Gen.(
      tup5 variant_gen
        (oneofl [ Tapwise.Single_scale; Tapwise.Tap_wise; Tapwise.Channel_tap_wise ])
        (oneofl [ 1; 4 ]) (int_range 1 3) seed_gen)
    (fun (v, gran, nd, n, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 4
      and cout = 1 + Twq_util.Rng.int rng 6 in
      let pad = Twq_util.Rng.int rng 3 in
      let h = 4 + Twq_util.Rng.int rng 17 and wd = 4 + Twq_util.Rng.int rng 17 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
      let bias = Tensor.rand_gaussian rng [| cout |] ~mu:0.0 ~sigma:0.1 in
      let samples = [ tensor_of_rng rng [| 1; cin; h; wd |] ] in
      let config = { (Tapwise.default_config v) with Tapwise.granularity = gran } in
      let l = Tapwise.calibrate ~config ~w ~bias ~sample_inputs:samples ~pad () in
      let xi =
        Quantizer.quantize_tensor ~bits:config.Tapwise.act_bits ~scale:l.Tapwise.s_x
          (tensor_of_rng rng [| n; cin; h; wd |])
      in
      let base = Tapwise.forward_int_ref l xi in
      let numel = Array.length base.Itensor.data in
      let add =
        if Twq_util.Rng.int rng 2 = 0 then None
        else
          Some
            {
              Kernels.other =
                Array.init numel (fun _ -> Twq_util.Rng.int rng 256 - 128);
              shift_self = Twq_util.Rng.int rng 3;
              shift_other = Twq_util.Rng.int rng 3;
              bits = 8;
            }
      in
      let relu = Twq_util.Rng.int rng 2 = 0 in
      let want =
        Array.mapi (fun off v -> reference_epilogue ~relu ~add v off) base.Itensor.data
      in
      let got = Itensor.zeros base.Itensor.shape in
      with_domains nd (fun () ->
          Tapwise.forward_int_into ~epilogue:{ Kernels.relu; add } (Tapwise.pack l) xi
            ~out:got);
      got.Itensor.data = want)

(* Both scatter rails, forced.  Inputs sit on the act_bits rails and
   every tap scale is shrunk by 2^1..2^6 below the calibrated one, so
   the engine's branch-free clamp saturates taps at both [hi] and [lo];
   the property also checks, from [Transform.input_tile_int] and the
   oracle's [requant_tap] arithmetic, that both rails were reached. *)
let prop_tapwise_scatter_rails =
  QCheck2.Test.make ~count:20 ~name:"tap-major scatter clamps both rails like ref"
    QCheck2.Gen.(tup3 variant_gen (oneofl [ 8; 10 ]) seed_gen)
    (fun (v, wino_bits, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 3 and cout = 1 + Twq_util.Rng.int rng 3 in
      let pad = Twq_util.Rng.int rng 3 in
      let h = 6 + Twq_util.Rng.int rng 13 and wd = 6 + Twq_util.Rng.int rng 13 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
      let config = { (Tapwise.default_config v) with Tapwise.wino_bits } in
      let l =
        Tapwise.calibrate ~config ~w
          ~sample_inputs:[ tensor_of_rng rng [| 1; cin; h; wd |] ] ~pad ()
      in
      let t = Transform.t v in
      let shrink = Array.init t (fun _ -> Array.init t (fun _ -> 1 + Twq_util.Rng.int rng 6)) in
      let s_b =
        Array.mapi
          (fun i row -> Array.mapi (fun j s -> Float.ldexp s (-shrink.(i).(j))) row)
          l.Tapwise.s_b
      in
      let l = { l with Tapwise.s_b } in
      let a = config.Tapwise.act_bits in
      let xi =
        Itensor.init [| 2; cin; h; wd |] (fun _ ->
            if Twq_util.Rng.bool rng then (1 lsl (a - 1)) - 1 else -(1 lsl (a - 1)))
      in
      let hi = (1 lsl (wino_bits - 1)) - 1 in
      let s_from =
        l.Tapwise.s_x /. float_of_int (Transform.bt_scale v * Transform.bt_scale v)
      in
      let m = Transform.m v in
      let ho = h + (2 * pad) - 2 and wo = wd + (2 * pad) - 2 in
      let rails = ref (false, false) in
      for ni = 0 to 1 do
        for ci = 0 to cin - 1 do
          for th = 0 to (ho - 1) / m do
            for tw = 0 to (wo - 1) / m do
              let tile =
                Itensor.init [| t; t |] (fun idx ->
                    let y = (th * m) + idx.(0) - pad and x = (tw * m) + idx.(1) - pad in
                    if y < 0 || y >= h || x < 0 || x >= wd then 0
                    else Itensor.get4 xi ni ci y x)
              in
              let xt = Transform.input_tile_int v tile in
              for i = 0 to t - 1 do
                for j = 0 to t - 1 do
                  let k = int_of_float (Float.round (Float.log2 (s_b.(i).(j) /. s_from))) in
                  let y = Itensor.get2 xt i j in
                  let q = if k >= 0 then Itensor.round_shift y k else y lsl min (-k) wino_bits in
                  let up, down = !rails in
                  rails := (up || q > hi, down || q < -hi - 1)
                done
              done
            done
          done
        done
      done;
      let got = Tapwise.forward_int l xi in
      !rails = (true, true) && Itensor.equal got (Tapwise.forward_int_ref l xi))

(* The scatter's pre-clamp range proof at its edge.  F4's integer Bᵀ
   has largest row L1 norm 10, so G = 100 and at act_bits = 30 the
   proof 2^29 · 100 · 2^lshift < 2^61 holds up to lshift = 25 and fails
   at 26.  The layer at the bound (one tap scale 2^-25·s_x, inputs on
   both act_bits rails, wino_bits = 30) must match the oracle; one more
   bit of left shift must be refused at pack. *)
let scatter_bound_layer ~lshift =
  let rng = Twq_util.Rng.create 31 in
  let cin = 2 and cout = 3 in
  let config =
    { (Tapwise.default_config Transform.F4) with Tapwise.act_bits = 30; wino_bits = 30 }
  in
  let s_b = Array.init 6 (fun i -> Array.init 6 (fun j -> Float.ldexp 1.0 ((i + j) mod 4))) in
  s_b.(2).(3) <- Float.ldexp 1.0 (-lshift);
  let wq =
    Itensor.init [| cout; cin; 6; 6 |] (fun _ -> Twq_util.Rng.int rng 31 - 15)
  in
  {
    Tapwise.config;
    pad = 1;
    s_x = 1.0;
    s_w = 1.0;
    s_y = Float.ldexp 1.0 8;
    s_b;
    s_g = Array.make_matrix 6 6 (Float.ldexp 1.0 (-4));
    s_g_channel = None;
    wq;
    bias = None;
  }

let test_scatter_range_bound () =
  let l = scatter_bound_layer ~lshift:25 in
  let rng = Twq_util.Rng.create 32 in
  let xi =
    Itensor.init [| 2; 2; 9; 7 |] (fun _ ->
        if Twq_util.Rng.bool rng then (1 lsl 29) - 1 else -(1 lsl 29))
  in
  let want = Tapwise.forward_int_ref l xi in
  Alcotest.(check bool) "at the bound: forward_int = ref" true
    (Itensor.equal (Tapwise.forward_int l xi) want);
  Alcotest.check_raises "one bit over: refused"
    (Invalid_argument
       "Tapwise.pack: tap (2,3) of F4 can reach 2^29 · 100 · 2^26 >= 2^61 \
        before its clamp (act_bits = 30, wino_bits = 30)")
    (fun () -> ignore (Tapwise.pack (scatter_bound_layer ~lshift:26)))

(* The accumulator range proof at the word's edge.  At wino_bits = 30
   every scattered activation lies in [-2^29, 2^29) and a weight may be
   -2^29, so a column of cin products sums to at most cin·2^58 in
   magnitude: acc_bits = 30 + log2 (cin·2^29) + 1.  At cin = 8 that is
   63 bits, the whole word; at cin = 16 it is 64, and an all-negative
   column sums to 2^62, which wraps to min_int in the GEMM and the
   oracle alike.  The F2 layer below keeps every tap unshifted
   (G = 4, so the scatter's range proof holds). *)
let acc_bound_layer ~cin =
  let config =
    { (Tapwise.default_config Transform.F2) with Tapwise.act_bits = 30; wino_bits = 30 }
  in
  {
    Tapwise.config;
    pad = 1;
    s_x = 1.0;
    s_w = 1.0;
    s_y = Float.ldexp 1.0 40;
    s_b = Array.make_matrix 4 4 1.0;
    s_g = Array.make_matrix 4 4 1.0;
    s_g_channel = None;
    wq = Itensor.init [| 2; cin; 4; 4 |] (fun _ -> -(1 lsl 29));
    bias = None;
  }

let test_acc_range_bound () =
  let l = acc_bound_layer ~cin:8 in
  let p = Tapwise.pack l in
  Alcotest.(check int) "cin 8: acc_bits" 63 (Tapwise.acc_bits p);
  (* Every channel carries the same plane of rail values, so the
     clamped taps agree across channels and each column sum reaches
     8·2^58 = 2^61 where a tap sits on the negative rail. *)
  let rng = Twq_util.Rng.create 34 in
  let plane =
    Array.init (2 * 9 * 7) (fun _ ->
        if Twq_util.Rng.bool rng then (1 lsl 29) - 1 else -(1 lsl 29))
  in
  let xi =
    Itensor.init [| 2; 8; 9; 7 |] (fun idx ->
        plane.((((idx.(0) * 9) + idx.(2)) * 7) + idx.(3)))
  in
  let want = Tapwise.forward_int_ref l xi in
  Alcotest.(check bool) "cin 8: nonzero outputs" true
    (Array.exists (fun v -> v <> 0) want.Itensor.data);
  let got = Itensor.zeros want.Itensor.shape in
  Tapwise.forward_int_into p xi ~out:got;
  Alcotest.(check bool) "cin 8 at the rails: = forward_int_ref" true
    (Itensor.equal got want);
  Alcotest.check_raises "cin 16: refused"
    (Invalid_argument
       "Tapwise.pack: per-tap accumulators can need 64 signed bits > 63 \
        (act_bits = 30, wino_bits = 30, cin = 16)")
    (fun () -> ignore (Tapwise.pack (acc_bound_layer ~cin:16)))

(* Exact halves in the output store.  With pow2 scales every gather
   value is an integer multiple of the smallest s_b·s_g, so an output
   scale s_y = 2^j times that puts ties on the rounding boundary, which
   random calibrated layers almost never reach.  The store must round
   them away from zero exactly as [Quantizer.quantize] in the oracle
   does; j runs from 1 (ties everywhere, most outputs saturated) up to
   8 (few ties, few saturated). *)
let prop_tapwise_store_ties =
  QCheck2.Test.make ~count:20 ~name:"tap-major store rounds exact halves like ref"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 3
      and cout = 1 + Twq_util.Rng.int rng 4 in
      let h = 6 + Twq_util.Rng.int rng 6 and wd = 6 + Twq_util.Rng.int rng 6 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
      let x = tensor_of_rng rng [| 2; cin; h; wd |] in
      let config = Tapwise.default_config v in
      let l = Tapwise.calibrate ~config ~w ~sample_inputs:[ x ] ~pad:1 () in
      let t = Transform.t v in
      let min_sbg = ref Float.infinity in
      for co = 0 to cout - 1 do
        for i = 0 to t - 1 do
          for j = 0 to t - 1 do
            min_sbg :=
              Float.min !min_sbg (l.Tapwise.s_b.(i).(j) *. Tapwise.weight_scale l co i j)
          done
        done
      done;
      let xi = Quantizer.quantize_tensor ~bits:8 ~scale:l.Tapwise.s_x x in
      List.for_all
        (fun j ->
          let l = { l with Tapwise.s_y = Float.ldexp !min_sbg j } in
          Itensor.equal (Tapwise.forward_int l xi) (Tapwise.forward_int_ref l xi))
        [ 1; 2; 3; 5; 8 ])

(* The same for the packed im2col store: with pow2 s_x and s_w and no
   bias, s_y = 2^j·s_x·s_w makes every odd accumulator at j = 1 a tie. *)
let prop_qconv_store_ties =
  QCheck2.Test.make ~count:20 ~name:"packed qconv store rounds exact halves like direct"
    QCheck2.Gen.(pair (oneofl [ 1; 2 ]) seed_gen)
    (fun (stride, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 4 and cout = 1 + Twq_util.Rng.int rng 6 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.3 in
      let x = tensor_of_rng rng [| 2; cin; 7; 7 |] in
      let l = Qconv.calibrate ~pow2:true ~w ~sample_inputs:[ x ] ~stride ~pad:1 () in
      let xi = Quantizer.quantize_tensor ~bits:8 ~scale:l.Qconv.s_x x in
      List.for_all
        (fun j ->
          let l = { l with Qconv.s_y = Float.ldexp (l.Qconv.s_x *. l.Qconv.s_w) j } in
          let want = Qconv.forward_int l xi in
          let got = Itensor.zeros want.Itensor.shape in
          Qconv.forward_int_into (Qconv.pack l) xi ~out:got;
          Itensor.equal got want)
        [ 1; 2; 3; 5; 8; 12 ])

(* ---------------------------------- microkernel GEMM drivers *)

(* Driver-level fold order at the one register block: every GEMM driver
   writes C := A·B, so it must reproduce a naive ascending-k triple loop
   from zero whatever C held before.  C is prefilled with garbage, k runs
   up to 150 against kc drawn from 8..64 so most runs cross one or more
   KC-panel seams, and C's row stride is wider than the packed panel:
   the columns past the panel must keep their garbage. *)
let naive_gemm ~zero ~add ~mul ~rows_p ~cols_p ~k ~vp ~up ~c ~cstride =
  let { Microkernel.mr; nr; _ } = Microkernel.config () in
  for i = 0 to rows_p - 1 do
    for j = 0 to cols_p - 1 do
      let acc = ref zero in
      for kk = 0 to k - 1 do
        let a = vp.((((i / mr * k) + kk) * mr) + (i mod mr))
        and b = up.((((j / nr * k) + kk) * nr) + (j mod nr)) in
        acc := add !acc (mul a b)
      done;
      c.((i * cstride) + j) <- !acc
    done
  done

(* A stale arena value: anything up to ±2^40. *)
let garbage rng = Twq_util.Rng.int rng (1 lsl 41) - (1 lsl 40)

let prop_gemm_drivers =
  QCheck2.Test.make ~count:80
    ~name:"gemm_f32/gemm_i32 = naive ascending-k loop across KC seams"
    QCheck2.Gen.(
      tup5 (int_range 1 150) (int_range 8 64) (int_range 1 13)
        (int_range 1 13) seed_gen)
    (fun (k, kc, rows, cols, seed) ->
      let rng = Twq_util.Rng.create seed in
      let { Microkernel.mr; nr; _ } = Microkernel.config () in
      let rows_p = Microkernel.round_up rows mr in
      let cols_p = Microkernel.round_up cols nr in
      let cstride = cols_p + 1 + Twq_util.Rng.int rng 5 in
      let vi = Array.init (rows_p * k) (fun _ -> Twq_util.Rng.int rng 255 - 127)
      and ui = Array.init (cols_p * k) (fun _ -> Twq_util.Rng.int rng 255 - 127)
      and ci = Array.init (rows_p * cstride) (fun _ -> garbage rng) in
      let vf = Array.map (fun x -> float_of_int x /. 7.0) vi
      and uf = Array.map (fun x -> float_of_int x /. 13.0) ui
      and cf = Array.map (fun x -> float_of_int x *. 1e9) ci in
      let ci_want = Array.copy ci and cf_want = Array.copy cf in
      naive_gemm ~zero:0 ~add:( + ) ~mul:( * ) ~rows_p ~cols_p ~k ~vp:vi
        ~up:ui ~c:ci_want ~cstride;
      naive_gemm ~zero:0.0 ~add:( +. ) ~mul:( *. ) ~rows_p ~cols_p ~k ~vp:vf
        ~up:uf ~c:cf_want ~cstride;
      Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp:vi ~vo:0 ~up:ui
        ~uo:0 ~c:ci ~co:0 ~cstride;
      Microkernel.gemm_f32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp:vf ~vo:0 ~up:uf
        ~uo:0 ~c:cf ~co:0 ~cstride;
      ci = ci_want && Array.for_all2 (fun x y -> x = y) cf cf_want)

(* --------------- packed im2col GEMM spatial conv vs the direct loop *)

(* The packed [Qconv.forward_int_into] against the direct-loop oracle
   [Qconv.forward_int] followed by the same elementwise epilogue.  Cin
   is drawn either small or just past KC / (kh·kw), so K = cin·kh·kw
   lands on both sides of the KC = 256 seam; cout 1..9 straddles NR and
   n·ho·wo straddles MR and the 32-row block; scales are layer- or
   channel-wise, with or without bias; the epilogue is a plain store,
   ReLU, a residual add, or both; the pool runs with 1 or 4 domains. *)
let prop_qconv_packed =
  QCheck2.Test.make ~count:60
    ~name:"packed qconv forward_int_into = direct loop"
    QCheck2.Gen.(
      tup6 (oneofl [ 1; 2 ]) (oneofl [ 1; 3 ]) (oneofl [ 0; 1 ]) bool
        (oneofl [ 1; 4 ]) seed_gen)
    (fun (stride, k, pad, big_k, nd, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin =
        if big_k then ((256 + (k * k)) / (k * k)) + Twq_util.Rng.int rng 4
        else 1 + Twq_util.Rng.int rng 9
      in
      let cout = 1 + Twq_util.Rng.int rng 9 in
      let n = 1 + Twq_util.Rng.int rng 3 in
      let h = 3 + Twq_util.Rng.int rng 9 and wd = 3 + Twq_util.Rng.int rng 9 in
      let w =
        Tensor.rand_gaussian rng [| cout; cin; k; k |] ~mu:0.0 ~sigma:0.3
      in
      let bias =
        if Twq_util.Rng.int rng 2 = 0 then None
        else Some (Tensor.rand_gaussian rng [| cout |] ~mu:0.0 ~sigma:0.2)
      in
      let x = tensor_of_rng rng [| n; cin; h; wd |] in
      let l =
        Qconv.calibrate ~per_channel:(Twq_util.Rng.int rng 2 = 0) ~w ?bias
          ~sample_inputs:[ x ] ~stride ~pad ()
      in
      let xi = Quantizer.quantize_tensor ~bits:8 ~scale:l.Qconv.s_x x in
      let want = Qconv.forward_int l xi in
      let numel = Array.length want.Itensor.data in
      let add =
        if Twq_util.Rng.int rng 2 = 0 then None
        else
          Some
            {
              Kernels.other =
                Array.init numel (fun _ -> Twq_util.Rng.int rng 255 - 127);
              shift_self = Twq_util.Rng.int rng 2;
              shift_other = Twq_util.Rng.int rng 2;
              bits = 8;
            }
      in
      let epilogue = { Kernels.relu = Twq_util.Rng.int rng 2 = 0; add } in
      Array.iteri
        (fun off v -> Kernels.epilogue_store epilogue want.Itensor.data off v)
        (Array.copy want.Itensor.data);
      let got = Itensor.zeros want.Itensor.shape in
      with_domains nd (fun () ->
          Qconv.forward_int_into ~epilogue (Qconv.pack l) xi ~out:got);
      Itensor.equal got want)

(* Cin = 260 exceeds the production KC = 256, so every per-tap GEMM
   takes the two-panel path end to end: a 256-deep fold, then a 4-deep
   one resuming from the stored partial. *)
let cin_over_kc = 260

let test_micro_cin_over_kc_int () =
  let rng = Twq_util.Rng.create 99 in
  let x = itensor_of_rng rng [| 1; cin_over_kc; 6; 7 |] in
  let wt = itensor_of_rng rng [| 5; cin_over_kc; 3; 3 |] in
  let k = Kernels.i32_specialized Transform.F4 in
  let scale2 = scale2_of Transform.F4 in
  let want = Oracle.direct_int ~pad:1 ~x ~w:wt () in
  let got = Kernels.conv2d_i32_exact k ~scale2 ~pad:1 ~x ~w:wt in
  Alcotest.(check bool) "conv2d_i32_exact" true (Itensor.equal got want)

let test_micro_cin_over_kc_tapwise () =
  let rng = Twq_util.Rng.create 101 in
  let w =
    Tensor.rand_gaussian rng [| 6; cin_over_kc; 3; 3 |] ~mu:0.0 ~sigma:0.5
  in
  let samples = [ tensor_of_rng rng [| 1; cin_over_kc; 6; 6 |] ] in
  let config = Tapwise.default_config Transform.F4 in
  let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
  let x = tensor_of_rng rng [| 1; cin_over_kc; 6; 6 |] in
  let xi =
    Quantizer.quantize_tensor ~bits:config.Tapwise.act_bits ~scale:l.Tapwise.s_x
      x
  in
  let want = Tapwise.forward_int_ref l xi in
  Alcotest.(check bool) "forward_int" true
    (Itensor.equal (Tapwise.forward_int l xi) want)

(* A register block other than the compiled one is a caller bug: the
   drivers must reject it with a message naming the offending value. *)
let test_micro_block_rejected () =
  let zf = [| 0.0 |] and zi = [| 0 |] in
  let sp = Microkernel.compress_panel ~nr:4 ~k:1 ~cols:4 [| 0; 0; 0; 0 |] ~uo:0 in
  let expect name field v f =
    Alcotest.check_raises
      (Printf.sprintf "%s %s=%d" name field v)
      (Invalid_argument
         (Printf.sprintf "Microkernel.%s: %s = %d, only %s = 4 is supported"
            name field v field))
      f
  in
  List.iter
    (fun v ->
      expect "gemm_f32" "mr" v (fun () ->
          Microkernel.gemm_f32 ~mr:v ~nr:4 ~kc:256 ~rows_p:0 ~cols_p:0 ~k:0
            ~vp:zf ~vo:0 ~up:zf ~uo:0 ~c:zf ~co:0 ~cstride:0);
      expect "gemm_f32" "nr" v (fun () ->
          Microkernel.gemm_f32 ~mr:4 ~nr:v ~kc:256 ~rows_p:0 ~cols_p:0 ~k:0
            ~vp:zf ~vo:0 ~up:zf ~uo:0 ~c:zf ~co:0 ~cstride:0);
      expect "gemm_i32" "mr" v (fun () ->
          Microkernel.gemm_i32 ~mr:v ~nr:4 ~kc:256 ~rows_p:0 ~cols_p:0 ~k:0
            ~vp:zi ~vo:0 ~up:zi ~uo:0 ~c:zi ~co:0 ~cstride:0);
      expect "gemm_i32" "nr" v (fun () ->
          Microkernel.gemm_i32 ~mr:4 ~nr:v ~kc:256 ~rows_p:0 ~cols_p:0 ~k:0
            ~vp:zi ~vo:0 ~up:zi ~uo:0 ~c:zi ~co:0 ~cstride:0);
      expect "gemm_i32_pair" "mr" v (fun () ->
          Microkernel.gemm_i32_pair ~mr:v ~nr:4 ~kc:256 ~rows_p:0 ~cols_p:0
            ~k:0 ~vp:zi ~vo:0 ~up:zi ~uo:0 ~c:zi ~co:0 ~cstride:0);
      expect "gemm_i32_pair" "nr" v (fun () ->
          Microkernel.gemm_i32_pair ~mr:4 ~nr:v ~kc:256 ~rows_p:0 ~cols_p:0
            ~k:0 ~vp:zi ~vo:0 ~up:zi ~uo:0 ~c:zi ~co:0 ~cstride:0);
      expect "gemm_i32_sparse" "mr" v (fun () ->
          Microkernel.gemm_i32_sparse ~mr:v ~rows_p:0 ~sp ~vp:zi ~vo:0 ~c:zi
            ~co:0 ~cstride:0))
    [ 1; 2; 3; 5; 8 ]

(* --------------------- compressed-panel sparse GEMM vs dense driver *)

module Pruning = Twq_quant.Pruning

let with_sparse_threshold t f =
  let saved = Microkernel.sparse_threshold () in
  Microkernel.set_sparse_threshold t;
  Fun.protect ~finally:(fun () -> Microkernel.set_sparse_threshold saved) f

(* Driver-level bit-identity: a random NR-packed B panel at a random
   density, compressed, must write exactly the naive product from zero,
   as the dense driver does, into a C prefilled with garbage whose row
   stride is wider than the panel.  Density 0.0 leaves every column
   empty, and sparse panels leave some empty: those must store zeros. *)
let sparse_gemm_gen =
  QCheck2.Gen.(
    tup4 (int_range 1 40) (int_range 1 24)
      (oneofl [ 0.0; 0.1; 0.3; 0.5; 0.9 ])
      seed_gen)

let prop_sparse_gemm =
  QCheck2.Test.make ~count:100
    ~name:"gemm_i32_sparse = gemm_i32 on the compressed panel"
    sparse_gemm_gen
    (fun (k, cols, density, seed) ->
      let rng = Twq_util.Rng.create seed in
      let { Microkernel.mr; nr; _ } = Microkernel.config () in
      let rows = 1 + Twq_util.Rng.int rng 40 in
      let kc = 8 + Twq_util.Rng.int rng 64 in
      let rows_p = Microkernel.round_up rows mr in
      let cols_p = Microkernel.round_up cols nr in
      let vp =
        Array.init (rows_p * k) (fun _ -> Twq_util.Rng.int rng 255 - 127)
      in
      let up = Array.make (cols_p * k) 0 in
      for j = 0 to cols - 1 do
        let jb = j / nr and jr = j mod nr in
        for kk = 0 to k - 1 do
          if Twq_util.Rng.float rng 1.0 < density then
            up.((((jb * k) + kk) * nr) + jr) <-
              (let m = 1 + Twq_util.Rng.int rng 126 in
               if Twq_util.Rng.bool rng then m else -m)
        done
      done;
      let cstride = cols_p + 3 in
      let c0 = Array.init (rows_p * cstride) (fun _ -> garbage rng) in
      let want = Array.copy c0 and cd = Array.copy c0 and cs = Array.copy c0 in
      naive_gemm ~zero:0 ~add:( + ) ~mul:( * ) ~rows_p ~cols_p ~k ~vp ~up
        ~c:want ~cstride;
      Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp ~vo:0 ~up ~uo:0
        ~c:cd ~co:0 ~cstride;
      let sp = Microkernel.compress_panel ~nr ~k ~cols:cols_p up ~uo:0 in
      Microkernel.gemm_i32_sparse ~mr ~rows_p ~sp ~vp ~vo:0 ~c:cs ~co:0
        ~cstride;
      cd = want && cs = want)

(* ------------------------- paired-lane GEMM vs the one-product driver *)

(* Driver-level bit-identity at the edge of the pairing bound, from
   A·B alone (C is prefilled with garbage and must be overwritten).
   2^30 − 1 = 3²·7·11·31·151·331, so A magnitudes M are drawn as
   products of a random subset of those factors and every B column's
   magnitudes sum to at most S = (2^30 − 1)/M: every product and prefix
   sum then stays inside ±(2^30 − 1).  The first min(rows, cols)
   columns sum to exactly S and their diagonal A row is ±M·sign(B
   column), so those diagonal entries reach the rail exactly, with the
   sign flipping every two columns so both lanes see both rails.  k is
   odd or even, kc is either small (many KC seams) or the production
   256 with k > 256, and pad rows and lanes are zero. *)
let pair_max = (1 lsl 30) - 1
let pair_max_factors = [ 3; 3; 7; 11; 31; 151; 331 ]
let rail_sign i = if (i lsr 1) land 1 = 0 then 1 else -1

let prop_pair_gemm =
  QCheck2.Test.make ~count:100
    ~name:"gemm_i32_pair = gemm_i32 with lane sums at ±(2^30−1)"
    QCheck2.Gen.(
      tup4 (int_range 1 150) bool (pair (int_range 1 13) (int_range 1 13))
        seed_gen)
    (fun (k, big_k, (rows, cols), seed) ->
      let rng = Twq_util.Rng.create seed in
      let { Microkernel.mr; nr; _ } = Microkernel.config () in
      let k, kc = if big_k then (256 + k, 256) else (k, 8 + Twq_util.Rng.int rng 57) in
      let rows_p = Microkernel.round_up rows mr in
      let cols_p = Microkernel.round_up cols nr in
      let cstride = cols_p + Twq_util.Rng.int rng 4 in
      let m =
        List.fold_left
          (fun a f -> if Twq_util.Rng.bool rng then a * f else a)
          1 pair_max_factors
      in
      let budget = pair_max / m in
      let up = Array.make (cols_p * k) 0 in
      for j = 0 to cols - 1 do
        for kk = 0 to k - 1 do
          let mag =
            if j < min rows cols then (budget / k) + Bool.to_int (kk < budget mod k)
            else Twq_util.Rng.int rng ((budget / k) + 1)
          in
          up.((((j / nr * k) + kk) * nr) + (j mod nr)) <-
            (if Twq_util.Rng.bool rng then mag else -mag)
        done
      done;
      let b_at kk j = up.((((j / nr * k) + kk) * nr) + (j mod nr)) in
      let vp = Array.make (rows_p * k) 0 in
      for i = 0 to rows - 1 do
        for kk = 0 to k - 1 do
          vp.((((i / mr * k) + kk) * mr) + (i mod mr)) <-
            (if i < cols then
               if b_at kk i < 0 then -rail_sign i * m else rail_sign i * m
             else Twq_util.Rng.int rng ((2 * m) + 1) - m)
        done
      done;
      let c = Array.init (rows_p * cstride) (fun _ -> garbage rng) in
      let up_pair = Array.make (cols_p * k / 2) 0 in
      Microkernel.pair_panel up ~so:0 ~n:(cols_p * k) up_pair ~doff:0;
      let naive = Array.copy c and want = Array.copy c and got = Array.copy c in
      naive_gemm ~zero:0 ~add:( + ) ~mul:( * ) ~rows_p ~cols_p ~k ~vp ~up
        ~c:naive ~cstride;
      Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp ~vo:0 ~up ~uo:0
        ~c:want ~co:0 ~cstride;
      Microkernel.gemm_i32_pair ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp ~vo:0
        ~up:up_pair ~uo:0 ~c:got ~co:0 ~cstride;
      let rails_hit = ref true in
      for i = 0 to min rows cols - 1 do
        if want.((i * cstride) + i) <> rail_sign i * pair_max then
          rails_hit := false
      done;
      !rails_hit && want = naive && got = want)

(* Layer-level: the range proof chooses the kernel.  At wino_bits = 20
   the scatter clamps activations to |a| ≤ 2^19, so the proof holds iff
   max over (tap, co) of Σ_ci |wq| < 2^11.  One output channel (a [hi]
   lane, co = 1) carries exactly 2^11 − 1 in every tap (positive) and
   channel 2 its negative; the over-bound layer adds one unit.  Tap
   scales 2^-12·s_x saturate most activations, so accumulators come
   within 2^19·2^11 of the bound, and s_y is the smallest power of two
   at which fewer than 2% of the oracle's outputs saturate, so a wrong
   accumulator shows. *)
let pair_bound_layer ~over =
  let rng = Twq_util.Rng.create 2024 in
  let cin = 16 and cout = 6 in
  let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
  let samples = [ tensor_of_rng rng [| 1; cin; 8; 8 |] ] in
  let config =
    { (Tapwise.default_config Transform.F4) with Tapwise.wino_bits = 20 }
  in
  let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
  let wq =
    Itensor.init [| cout; cin; 6; 6 |] (fun idx ->
        let co = idx.(0) and ci = idx.(1) in
        let edge = if ci = cin - 1 then if over then 128 else 127 else 128 in
        if co = 1 then edge
        else if co = 2 then -edge
        else Twq_util.Rng.int rng 255 - 127)
  in
  let s_b = Array.make_matrix 6 6 (l.Tapwise.s_x /. 4096.0) in
  let l = { l with Tapwise.wq; s_b } in
  let x = tensor_of_rng rng [| 2; cin; 8; 8 |] in
  let xi = Quantizer.quantize_tensor ~bits:8 ~scale:l.Tapwise.s_x x in
  let saturated l =
    let y = Tapwise.forward_int_ref l xi in
    let n = Array.length y.Itensor.data in
    let sat =
      Array.fold_left
        (fun a v -> if v >= 127 || v <= -128 then a + 1 else a)
        0 y.Itensor.data
    in
    float_of_int sat > 0.02 *. float_of_int n
  in
  let rec fit l =
    if saturated l then fit { l with Tapwise.s_y = l.Tapwise.s_y *. 2.0 } else l
  in
  (fit { l with Tapwise.s_y = Float.ldexp 1.0 (-80) }, xi)

let test_pair_bound () =
  List.iter
    (fun (over, paired, bits) ->
      let l, xi = pair_bound_layer ~over in
      let p = Tapwise.pack l in
      let name = if over then "just over" else "just under" in
      Alcotest.(check bool) (name ^ ": paired") paired (Tapwise.paired p);
      Alcotest.(check int) (name ^ ": acc_bits") bits (Tapwise.acc_bits p);
      let want = Tapwise.forward_int_ref l xi in
      Alcotest.(check bool) (name ^ ": nonzero outputs") true
        (Array.exists (fun v -> v <> 0) want.Itensor.data);
      let got = Itensor.zeros want.Itensor.shape in
      Tapwise.forward_int_into p xi ~out:got;
      Alcotest.(check bool) (name ^ ": = forward_int_ref") true
        (Itensor.equal got want))
    [ (false, true, 31); (true, false, 32) ];
  (* [pack] does not assume wq is bounded, so the proof must not wrap:
     two weights of 2^61 in one column sum to 2^62, which is min_int in
     a 63-bit int.  Summed without wrapping, the bound is past the word
     and the layer is refused rather than paired. *)
  let l, _ = pair_bound_layer ~over:false in
  let wq = Itensor.copy l.Tapwise.wq in
  Itensor.set4 wq 0 0 0 0 (1 lsl 61);
  Itensor.set4 wq 0 1 0 0 (1 lsl 61);
  match Tapwise.pack { l with Tapwise.wq } with
  | exception Invalid_argument _ -> ()
  | p -> Alcotest.failf "huge weights packed (paired = %b)" (Tapwise.paired p)

(* Tap requant shifts past the word: OCaml's [asr 64] leaves its operand
   unchanged and [lsl 63] zeroes it, so an uncapped tap shift of +64
   passed the tap through unscaled and −63 zeroed a tap that must
   saturate.  Capped, +64 rounds every tap value to 0 like +40, and −63
   saturates like −wino_bits; the −63 layer's s_g is raised by 2^55 so
   both layers share s_b·s_g and differ only in the shift. *)
let test_tap_shift_beyond_word () =
  let rng = Twq_util.Rng.create 77 in
  let cin = 3 and cout = 4 in
  let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
  let samples = [ tensor_of_rng rng [| 1; cin; 8; 8 |] ] in
  let config = Tapwise.default_config Transform.F4 in
  let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
  let xi =
    Quantizer.quantize_tensor ~bits:8 ~scale:l.Tapwise.s_x
      (tensor_of_rng rng [| 2; cin; 8; 8 |])
  in
  let with_tap_shift k ~g_exp =
    let s_b = Array.map Array.copy l.Tapwise.s_b
    and s_g = Array.map Array.copy l.Tapwise.s_g in
    s_b.(1).(1) <- Float.ldexp l.Tapwise.s_x k;
    s_g.(1).(1) <- Float.ldexp s_g.(1).(1) g_exp;
    { l with Tapwise.s_b; s_g }
  in
  let wb = config.Tapwise.wino_bits in
  List.iter
    (fun (name, (k, g), (k', g')) ->
      let a = with_tap_shift k ~g_exp:g and b = with_tap_shift k' ~g_exp:g' in
      let want = Tapwise.forward_int_ref b xi in
      Alcotest.(check bool) (name ^ ": oracle") true
        (Itensor.equal (Tapwise.forward_int_ref a xi) want);
      Alcotest.(check bool) (name ^ ": forward_int") true
        (Itensor.equal (Tapwise.forward_int a xi) want);
      Alcotest.(check bool) (name ^ ": forward_int control") true
        (Itensor.equal (Tapwise.forward_int b xi) want))
    [ ("+64 = +40", (64, -24), (40, 0)); ("-63 = -wino_bits", (-63, 63 - wb), (-wb, 0)) ]

(* Layer-level bit-identity: prune a calibrated layer in the Winograd
   domain, then the sparse-selected forward (any threshold, 1 or 4
   domains) must equal the all-dense forward of the same pruned
   weights. *)
let prop_tapwise_sparse =
  QCheck2.Test.make ~count:25
    ~name:"sparse tapwise forward = dense forward of pruned weights"
    QCheck2.Gen.(
      pair
        (tup5 variant_gen
           (oneofl [ 0.1; 0.3; 0.5 ])
           (oneofl [ 0.25; 0.5; 1.0 ])
           (oneofl [ 1; 4 ])
           seed_gen)
        (int_range 1 3))
    (fun ((v, density, thresh, nd, seed), n) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 5
      and cout = 1 + Twq_util.Rng.int rng 6 in
      let h = 6 + Twq_util.Rng.int rng 6 and wd = 6 + Twq_util.Rng.int rng 6 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
      let samples = [ tensor_of_rng rng [| 1; cin; h; wd |] ] in
      let config = Tapwise.default_config v in
      let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
      let l = Pruning.prune_layer l ~density in
      let x = tensor_of_rng rng [| n; cin; h; wd |] in
      let xi =
        Quantizer.quantize_tensor ~bits:config.Tapwise.act_bits
          ~scale:l.Tapwise.s_x x
      in
      let dense =
        with_sparse_threshold 0.0 (fun () -> Tapwise.forward_int l xi)
      in
      let got =
        with_sparse_threshold thresh (fun () ->
            with_domains nd (fun () -> Tapwise.forward_int l xi))
      in
      Itensor.equal got dense)

(* The selection itself: after pruning to a low density, packing under
   a permissive threshold must route taps through the compressed path,
   and the measured densities must average out near the request. *)
let test_sparse_taps_selected () =
  let rng = Twq_util.Rng.create 47 in
  let w = Tensor.rand_gaussian rng [| 8; 8; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
  let samples = [ tensor_of_rng rng [| 1; 8; 12; 12 |] ] in
  let config = Tapwise.default_config Transform.F4 in
  let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
  let l = Pruning.prune_layer l ~density:0.3 in
  with_sparse_threshold 0.5 (fun () ->
      let p = Tapwise.pack l in
      let d = Tapwise.tap_densities p in
      let mean = Array.fold_left ( +. ) 0.0 d /. float_of_int (Array.length d) in
      Alcotest.(check bool) "sparse taps engaged" true
        (Tapwise.sparse_tap_count p > 0);
      Alcotest.(check bool) "mean density near request" true
        (Float.abs (mean -. 0.3) < 0.05));
  with_sparse_threshold 0.0 (fun () ->
      let p = Tapwise.pack l in
      Alcotest.(check int) "threshold 0 disables sparse" 0
        (Tapwise.sparse_tap_count p))

let test_sparse_threshold_invalid () =
  Alcotest.check_raises "above 1"
    (Invalid_argument
       "Microkernel.set_sparse_threshold: 1.5 must be in [0, 1]") (fun () ->
      Microkernel.set_sparse_threshold 1.5);
  Alcotest.check_raises "negative"
    (Invalid_argument
       "Microkernel.set_sparse_threshold: -0.1 must be in [0, 1]") (fun () ->
      Microkernel.set_sparse_threshold (-0.1))

(* -------------------------------------------- scratch arena behaviour *)

let test_scratch_reuse () =
  let a = Parallel.Scratch.create_float () in
  let b1 = Parallel.Scratch.borrow a 16 in
  Alcotest.(check bool) "sized up" true (Array.length b1 >= 16);
  b1.(0) <- 42.0;
  let b2 = Parallel.Scratch.borrow a 8 in
  Alcotest.(check bool) "same buffer on re-borrow" true (b1 == b2);
  let b3 = Parallel.Scratch.borrow a 64 in
  Alcotest.(check bool) "grows" true (Array.length b3 >= 64)

let test_scratch_per_domain () =
  (* Each participating domain must see its own buffer: write a marker
     from every chunk and check no cross-domain interference occurred. *)
  let a = Parallel.Scratch.create_int () in
  let ok = Array.make 64 false in
  with_domains 4 (fun () ->
      Parallel.parallel_for ~chunk:1 ~lo:0 ~hi:64 (fun i ->
          let buf = Parallel.Scratch.borrow a 4 in
          buf.(0) <- i;
          (* If another domain shared this buffer concurrently, the
             read-back would race; DLS guarantees it cannot. *)
          ok.(i) <- buf.(0) = i));
  Alcotest.(check bool) "per-domain buffers" true (Array.for_all Fun.id ok)

(* ----------------------------------------------------------- registry *)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_float_tiles;
        prop_int_tiles;
        prop_conv_f32;
        prop_conv_int;
        prop_conv_f32_four_domains;
        prop_conv_int_four_domains;
        prop_gconv;
        prop_tapwise;
        prop_tapwise_epilogue;
        prop_tapwise_store_ties;
        prop_tapwise_scatter_rails;
        prop_micro_f32_edge;
        prop_micro_int_edge;
        prop_gemm_drivers;
        prop_sparse_gemm;
        prop_pair_gemm;
        prop_tapwise_sparse;
        prop_qconv_packed;
        prop_qconv_store_ties;
      ]
  in
  Alcotest.run "kernels"
    [
      ("qcheck", qsuite);
      ( "microkernel",
        [
          Alcotest.test_case "int Cin > KC = ref" `Quick
            test_micro_cin_over_kc_int;
          Alcotest.test_case "tapwise Cin > KC = ref" `Quick
            test_micro_cin_over_kc_tapwise;
          Alcotest.test_case "other register blocks rejected" `Quick
            test_micro_block_rejected;
          Alcotest.test_case "range proof picks paired or wide" `Quick
            test_pair_bound;
          Alcotest.test_case "tap shifts beyond the word" `Quick
            test_tap_shift_beyond_word;
          Alcotest.test_case "scatter range proof at its bound" `Quick
            test_scatter_range_bound;
          Alcotest.test_case "accumulator range proof at the word" `Quick
            test_acc_range_bound;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "pack selects sparse taps" `Quick
            test_sparse_taps_selected;
          Alcotest.test_case "threshold bounds" `Quick
            test_sparse_threshold_invalid;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "borrow reuses and grows" `Quick test_scratch_reuse;
          Alcotest.test_case "per-domain isolation" `Quick test_scratch_per_domain;
        ] );
    ]
