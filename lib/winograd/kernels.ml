(* Specialized, allocation-free Winograd kernels.

   A kernel record applies each transform as the sandwich of a 1-D step:
   first over the columns of the source tile, then over the rows of the
   intermediate, exactly the two matmuls of the generic path.  The
   F2/F4/F6 steps are generated from [Transform]'s matrices
   ([Kernel_steps]); [f32_of_mats] and [i32_of_mats] compile matrices
   known only at run time into sparse plans.  Float steps keep
   [Ops.matmul]'s accumulation order, so they equal the generic sandwich
   up to the sign of a zero; integer steps are exact, so they equal
   [Transform.input_tile_int] and its siblings bit for bit.

   Every tap-major convolution in the library runs through one loop,
   [tap_major]: tiles are scattered into per-tap [tiles × cin] panels,
   one flat GEMM per panel runs against the [cin × cout] transformed
   weights, and outputs gather back through the inverse transform.  The
   callers ([conv2d_f32], [conv2d_i32_exact] here, [Rns.conv2d] and
   [Tapwise.forward_int_into]) differ only in three typed hooks —
   scatter, GEMM, gather; [Tapwise]'s scatter and gather are the
   generated [Twq_quant.Tile_engines].  All staging lives in per-domain
   scratch arenas, one set per element type — the tile loop allocates
   nothing.

   The per-panel GEMMs run through [Microkernel]: both operands are
   packed into register-block panels (tiles MR-packed during scatter,
   weights NR-packed during the weight transform) and the product is
   computed by MR×NR accumulator-block kernels under KC cache blocking;
   see Microkernel for the ordering contract (ascending cin per output)
   that keeps the float driver equal to the generic sandwich.  This
   module keeps no oracle: the tests compare [conv2d_f32] with the
   tile-major float Winograd convolution and [conv2d_i32_exact] with the
   direct integer convolution, both in [test/oracle.ml]. *)

module P = Twq_util.Parallel
module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Shape = Twq_tensor.Shape

type 'a step = 'a Kernel_steps.step

type 'a kernel = {
  tile : int;
  mout : int;
  input : 'a array -> int -> 'a array -> int -> 'a array -> unit;
  window : 'a array -> int -> int -> 'a array -> 'a array -> unit;
  weight : 'a array -> int -> 'a array -> int -> 'a array -> unit;
  output : 'a array -> int -> 'a array -> int -> 'a array -> unit;
}

(* Fused elementwise epilogue, applied inside the producing conv's output
   write loop (the software analogue of the accelerator's FixPipe
   post-processing): optional saturating residual add of an already
   computed activation map (both operands round-shifted onto the common
   output grid), then optional ReLU.  [other] must share the output's
   row-major layout so the flat offset lines up. *)
type epilogue = { relu : bool; add : add_spec option }

and add_spec = {
  other : int array;  (* residual operand, same layout as the output *)
  shift_self : int;   (* right shift aligning the conv's own output *)
  shift_other : int;  (* right shift aligning [other] *)
  bits : int;         (* saturation width of the sum (8 for int8) *)
}

let no_epilogue = { relu = false; add = None }

let[@inline] epilogue_store e dst off v =
  let v =
    match e.add with
    | None -> v
    | Some a ->
        Itensor.clamp_int ~bits:a.bits
          (Itensor.round_shift v a.shift_self
          + Itensor.round_shift a.other.(off) a.shift_other)
  in
  (* ReLU as a sign mask: [v asr 62] is all ones exactly when v < 0. *)
  dst.(off) <- (if e.relu then v land lnot (v asr 62) else v)

(* Apply [step] as the sandwich t_m · x · t_mᵀ: stage 1 maps the columns
   of the square [inner×inner] source (rows [rs] apart) into [tmp]
   ([rows×inner]), stage 2 maps the rows of [tmp] into the [rows×rows]
   destination.  Identical pairing and ordering to the two matmuls of
   the generic path. *)
let sandwich ~rows ~inner (step : 'a step) src soff rs dst doff tmp =
  for j = 0 to inner - 1 do
    step src (soff + j) rs tmp j inner
  done;
  for i = 0 to rows - 1 do
    step tmp (i * inner) 1 dst (doff + (i * rows)) 1
  done

(* ---------- kernel records ---------- *)

let make ~t ~m ~r ~bt ~g ~at =
  let dense ~rows ~inner step src soff dst doff tmp =
    sandwich ~rows ~inner step src soff inner dst doff tmp
  in
  {
    tile = t;
    mout = m;
    input = dense ~rows:t ~inner:t bt;
    window =
      (fun src soff rs dst tmp ->
        sandwich ~rows:t ~inner:t bt src soff rs dst 0 tmp);
    weight = dense ~rows:t ~inner:r g;
    output = dense ~rows:m ~inner:t at;
  }

(* One record per variant, built once, around the generated steps. *)
let specialized steps =
  let kernel v =
    let bt, g, at = steps v in
    make ~t:(Transform.t v) ~m:(Transform.m v) ~r:(Transform.r v) ~bt ~g ~at
  in
  let f2 = kernel Transform.F2
  and f4 = kernel Transform.F4
  and f6 = kernel Transform.F6 in
  function Transform.F2 -> f2 | Transform.F4 -> f4 | Transform.F6 -> f6

let f32_specialized = specialized Kernel_steps.float_steps
let i32_specialized = specialized Kernel_steps.int_steps

(* Compile an arbitrary constant matrix into a sparse per-row plan: the
   columns and values of each row's nonzero coefficients, ascending. *)
let sparse_rows ~zero (mat : 'a array array) =
  let idx =
    Array.map
      (fun row ->
        Array.of_list
          (List.filter (fun k -> row.(k) <> zero) (List.init (Array.length row) Fun.id)))
      mat
  in
  (idx, Array.map2 (fun row ix -> Array.map (fun k -> row.(k)) ix) mat idx)

(* The float plan accumulates exactly as [Ops.matmul] with the matrix on
   the left: from 0.0, adding coefficient·element in ascending column
   order. *)
let plan_step mat : float step =
  let idx, coef = sparse_rows ~zero:0.0 mat in
  fun s o st d q dt ->
    for i = 0 to Array.length idx - 1 do
      let ix = idx.(i) and cf = coef.(i) in
      let acc = ref 0.0 in
      for k = 0 to Array.length ix - 1 do
        acc := !acc +. (cf.(k) *. s.(o + (ix.(k) * st)))
      done;
      d.(q + (i * dt)) <- !acc
    done

let f32_of_mats ~bt ~g ~at =
  let t = Array.length bt and m = Array.length at in
  let r = Array.length g.(0) in
  make ~t ~m ~r ~bt:(plan_step bt) ~g:(plan_step g) ~at:(plan_step at)

(* Integer analogue of [plan_step]: exact arithmetic, so the sparse plan
   is unconditionally bit-identical to the dense sandwich. *)
let plan_step_i mat : int step =
  let idx, coef = sparse_rows ~zero:0 mat in
  fun s o st d q dt ->
    for i = 0 to Array.length idx - 1 do
      let ix = idx.(i) and cf = coef.(i) in
      let acc = ref 0 in
      for k = 0 to Array.length ix - 1 do
        acc := !acc + (cf.(k) * s.(o + (ix.(k) * st)))
      done;
      d.(q + (i * dt)) <- !acc
    done

let i32_of_mats ~bt ~g ~at =
  let t = Array.length bt and m = Array.length at in
  let r = Array.length g.(0) in
  make ~t ~m ~r ~bt:(plan_step_i bt) ~g:(plan_step_i g) ~at:(plan_step_i at)

(* ---------- the tap-major loop ---------- *)

let load_tile_f (xd : float array) ~h ~w ~base ~pad ~h0 ~w0 ~t dst =
  for dy = 0 to t - 1 do
    let hi = h0 + dy - pad in
    let drow = dy * t in
    if hi < 0 || hi >= h then Array.fill dst drow t 0.0
    else begin
      let xrow = base + (hi * w) in
      for dx = 0 to t - 1 do
        let wi = w0 + dx - pad in
        dst.(drow + dx) <- (if wi < 0 || wi >= w then 0.0 else xd.(xrow + wi))
      done
    end
  done

let load_tile_i (xd : int array) ~h ~w ~base ~pad ~h0 ~w0 ~t dst =
  for dy = 0 to t - 1 do
    let hi = h0 + dy - pad in
    let drow = dy * t in
    if hi < 0 || hi >= h then Array.fill dst drow t 0
    else begin
      let xrow = base + (hi * w) in
      for dx = 0 to t - 1 do
        let wi = w0 + dx - pad in
        dst.(drow + dx) <- (if wi < 0 || wi >= w then 0 else xd.(xrow + wi))
      done
    end
  done

(* [copy n src soff sstride dst doff dstride]: strided element copy. *)
let copy_f n (src : float array) soff sstride (dst : float array) doff dstride =
  for i = 0 to n - 1 do
    dst.(doff + (i * dstride)) <- src.(soff + (i * sstride))
  done

let copy_i n (src : int array) soff sstride (dst : int array) doff dstride =
  for i = 0 to n - 1 do
    dst.(doff + (i * dstride)) <- src.(soff + (i * sstride))
  done

(* The element type the loop runs on.  Every per-element access goes
   through one of these typed closures, so the generic loop never reads
   or writes a float itself and boxes nothing.  One arena per logically
   distinct buffer (borrows from the same arena alias on a domain); the
   gather hook gets [s_xt]/[s_tile]/[s_tmp] of its own lane, which the
   scatter phase of the same block has finished with. *)
type 'a lane = {
  zero : 'a;
  load : 'a array -> h:int -> w:int -> base:int -> pad:int -> h0:int ->
    w0:int -> t:int -> 'a array -> unit;
  gemm : mr:int -> nr:int -> kc:int -> rows_p:int -> cols_p:int -> k:int ->
    vp:'a array -> vo:int -> up:'a array -> uo:int -> c:'a array -> co:int ->
    cstride:int -> unit;
  s_tile : 'a P.Scratch.arena;
  s_xt : 'a P.Scratch.arena;
  s_tmp : 'a P.Scratch.arena;
  s_v : 'a P.Scratch.arena;
  s_mo : 'a P.Scratch.arena;
  s_u : 'a P.Scratch.arena;
}

let lane zero load gemm =
  let arena () = P.Scratch.create zero in
  { zero; load; gemm; s_tile = arena (); s_xt = arena ();
    s_tmp = arena (); s_v = arena (); s_mo = arena (); s_u = arena () }

let f32_lane = lane 0.0 load_tile_f Microkernel.gemm_f32
let i32_lane = lane 0 load_tile_i Microkernel.gemm_i32

type 'a put = 'a array -> 'a array -> int -> int -> unit

type 'a scatter = 'a array -> int -> int -> 'a array -> int -> int -> unit

type ('a, 'g) gather =
  'a array -> int -> int -> 'g array -> 'g array -> 'g array -> int -> int ->
  int -> unit

type 'a weights =
  | Filters of 'a array * 'a put
  | Packed of {
      gemm : int -> int -> 'a array -> int -> 'a array -> int -> unit;
      scatter : 'a scatter;
    }

(* Transform one (tile, ci) window into the MR-packed panels.  With
   [Filters], [k.window] transforms it into the lane's [xt] scratch and
   the same [put] that spread the filters spreads it; a [Packed] caller
   brings its own fused engine. *)
let scatter_window k weights src soff rs xt tmp v vbase stride =
  match weights with
  | Filters (_, put) ->
      k.window src soff rs xt tmp;
      put xt v vbase stride
  | Packed { scatter; _ } -> scatter src soff rs v vbase stride

(* Weights are NR-packed —
   [u.(p·cin·cout_p + ((jb·cin + ci)·nr + jr))] with [co = jb·nr+jr] and
   [cout_p = round_up cout nr]; [put co ci u base stride] writes panel
   [p]'s value of filter (co, ci) at [base + p·stride].  Pad lanes
   [co ≥ cout] are zeroed. *)
let pack_into la ~panels ~cin ~cout u put =
  let { Microkernel.nr; _ } = Microkernel.config () in
  let cout_p = Microkernel.round_up cout nr in
  let ucincp = cin * cout_p in
  P.parallel_for ~lo:0 ~hi:(cout * cin) (fun idx ->
      let co = idx / cin and ci = idx mod cin in
      put co ci u ((((co / nr * cin) + ci) * nr) + (co mod nr)) ucincp);
  for co = cout to cout_p - 1 do
    for ci = 0 to cin - 1 do
      let base = (((co / nr * cin) + ci) * nr) + (co mod nr) in
      for p = 0 to panels - 1 do
        u.((p * ucincp) + base) <- la.zero
      done
    done
  done

(* Tiles per block: big enough that each panel GEMM runs over a panel,
   small enough to keep all domains busy.  Per-tile results do not depend
   on the grouping, so any block size is bit-identical. *)
let block_of ~total =
  let nd = P.num_domains () in
  max 1 (min 32 (total / max 1 (4 * nd)))

(* Per block of output tiles, with both GEMM operands in register-block
   panels (see Microkernel):

   - scatter: [scatter_window] transforms each (tile, ci) window and
     spreads it over the MR-packed panels —
     [v.(p·tb·cin + ((ib·cin + ci)·mr + ir))] with [bidx = ib·mr+ir].  A tile whose window lies inside the input
     is read in place, rows [w] apart; a border tile's window is first
     staged zero-padded in the lane's tile buffer (rows [t] apart).  Pad
     rows of a trailing partial block are zeroed so their products are
     exact zeros;
   - one GEMM per panel writes the [tb × cout_p] slab of [mo] (C := A·B,
     so the slab needs no zero-fill), summing in ascending [ci] — per
     (tile, tap, co) the same left fold as the tile-major oracle;
   - gather: the hook reads each tile's [cout_p]-strided row of every
     slab (never the pad columns) and writes its output crop.

   All staging lives in the lanes' per-domain arenas: the loop allocates
   nothing per tile. *)
let tap_major la lg k ~panels ~pad ~x ~n ~cin ~h ~w ~cout ~weights ~gather () =
  let t = k.tile and m = k.mout in
  let r = t - m + 1 and tt = t * t in
  let ho, wo = Shape.conv2d_out ~h ~w ~kh:r ~kw:r ~stride:1 ~pad in
  let { Microkernel.mr; nr; kc } = Microkernel.config () in
  let cout_p = Microkernel.round_up cout nr in
  let ucincp = cin * cout_p in
  let gemm =
    match weights with
    | Packed { gemm; _ } -> gemm
    | Filters (f, put) ->
        (* Transformed once per call, through [put], into a panel every
           weight worker writes. *)
        let u = P.Scratch.borrow la.s_u (panels * ucincp) in
        pack_into la ~panels ~cin ~cout u (fun co ci dst base stride ->
            let g = P.Scratch.borrow la.s_tile (r * r) in
            let wt = P.Scratch.borrow la.s_xt tt in
            let tmp = P.Scratch.borrow la.s_tmp (t * r) in
            Array.blit f (((co * cin) + ci) * r * r) g 0 (r * r);
            k.weight g 0 wt 0 tmp;
            put wt dst base stride);
        fun p rows_p v vo c co ->
          la.gemm ~mr ~nr ~kc ~rows_p ~cols_p:cout_p ~k:cin ~vp:v ~vo ~up:u
            ~uo:(p * ucincp) ~c ~co ~cstride:cout_p
  in
  let n_th = (ho + m - 1) / m and n_tw = (wo + m - 1) / m in
  let tiles_per_img = n_th * n_tw in
  let total = n * tiles_per_img in
  let tb = Microkernel.round_up (block_of ~total) mr in
  let tbcin = tb * cin and slab = tb * cout_p in
  let nblocks = (total + tb - 1) / tb in
  P.parallel_for ~chunk:1 ~lo:0 ~hi:nblocks (fun blk ->
      let b0 = blk * tb in
      let bs = min tb (total - b0) in
      let bs_p = Microkernel.round_up bs mr in
      let tile = P.Scratch.borrow la.s_tile tt in
      let xt = P.Scratch.borrow la.s_xt tt in
      let tmp = P.Scratch.borrow la.s_tmp tt in
      let v = P.Scratch.borrow la.s_v (panels * tbcin) in
      let mo = P.Scratch.borrow la.s_mo (panels * slab) in
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img and rest = tidx mod tiles_per_img in
        let h0 = rest / n_tw * m and w0 = rest mod n_tw * m in
        let top = h0 - pad and left = w0 - pad in
        let interior = top >= 0 && left >= 0 && top + t <= h && left + t <= w in
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          let base = ((ni * cin) + ci) * h * w in
          let vbase = (((ib * cin) + ci) * mr) + ir in
          if interior then
            scatter_window k weights x (base + (top * w) + left) w xt tmp v
              vbase tbcin
          else begin
            la.load x ~h ~w ~base ~pad ~h0 ~w0 ~t tile;
            scatter_window k weights tile 0 t xt tmp v vbase tbcin
          end
        done
      done;
      for bidx = bs to bs_p - 1 do
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          let vbase = (((ib * cin) + ci) * mr) + ir in
          for p = 0 to panels - 1 do
            v.((p * tbcin) + vbase) <- la.zero
          done
        done
      done;
      for p = 0 to panels - 1 do
        gemm p bs_p v (p * tbcin) mo (p * slab)
      done;
      let yw = P.Scratch.borrow lg.s_xt panels in
      let yo = P.Scratch.borrow lg.s_tile (panels / tt * m * m) in
      let ytmp = P.Scratch.borrow lg.s_tmp panels in
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img and rest = tidx mod tiles_per_img in
        let h0 = rest / n_tw * m and w0 = rest mod n_tw * m in
        gather mo (bidx * cout_p) slab yw yo ytmp
          ((((ni * cout * ho) + h0) * wo) + w0)
          (min m (ho - h0))
          (min m (wo - w0))
      done)

(* ---------- convolution drivers ---------- *)

(* The plain convolutions: dense GEMM over the transformed filters, the
   caller's typed [put] for both filters and input tiles, and its typed
   gather, given the output buffer and its [ho]/[wo]. *)
let conv2d_plain name la k ~pad ~xs ~x ~ws ~w ~put ~gather =
  let n = xs.(0) and cin = xs.(1) and h = xs.(2) and wd = xs.(3) in
  let cout = ws.(0) and r = k.tile - k.mout + 1 in
  if ws.(1) <> cin then invalid_arg (name ^ ": channel mismatch");
  if ws.(2) <> r || ws.(3) <> r then
    invalid_arg (name ^ ": kernel size mismatch");
  let ho, wo = Shape.conv2d_out ~h ~w:wd ~kh:r ~kw:r ~stride:1 ~pad in
  let od = Array.make (n * cout * ho * wo) la.zero in
  tap_major la la k ~panels:(k.tile * k.tile) ~pad ~x ~n ~cin ~h ~w:wd ~cout
    ~weights:(Filters (w, put)) ~gather:(gather od ho wo) ();
  ([| n; cout; ho; wo |], od)

let conv2d_f32 k ~pad ~x ~w =
  let tt = k.tile * k.tile and m = k.mout and cout = Tensor.dim w 0 in
  let shape, data =
    conv2d_plain "Kernels.conv2d_f32" f32_lane k ~pad ~xs:x.Tensor.shape
      ~x:x.Tensor.data ~ws:w.Tensor.shape ~w:w.Tensor.data
      ~put:(fun xt dst base stride -> copy_f tt xt 0 1 dst base stride)
      ~gather:(fun od ho wo mo off stride yw yo tmp obase rh rw ->
        for co = 0 to cout - 1 do
          copy_f tt mo (off + co) stride yw 0 1;
          k.output yw 0 yo 0 tmp;
          for dy = 0 to rh - 1 do
            let orow = obase + (((co * ho) + dy) * wo) and yrow = dy * m in
            for dx = 0 to rw - 1 do
              od.(orow + dx) <- yo.(yrow + dx)
            done
          done
        done)
  in
  { Tensor.shape; data }

let conv2d_i32_exact k ~scale2 ~pad ~x ~w =
  let tt = k.tile * k.tile and m = k.mout and cout = Itensor.dim w 0 in
  let shape, data =
    conv2d_plain "Kernels.conv2d_i32_exact" i32_lane k ~pad
      ~xs:x.Itensor.shape ~x:x.Itensor.data ~ws:w.Itensor.shape
      ~w:w.Itensor.data
      ~put:(fun xt dst base stride -> copy_i tt xt 0 1 dst base stride)
      ~gather:(fun od ho wo mo off stride yw yo tmp obase rh rw ->
        for co = 0 to cout - 1 do
          copy_i tt mo (off + co) stride yw 0 1;
          k.output yw 0 yo 0 tmp;
          for dy = 0 to rh - 1 do
            let orow = obase + (((co * ho) + dy) * wo) and yrow = dy * m in
            for dx = 0 to rw - 1 do
              let raw = yo.(yrow + dx) in
              (* The Winograd identity guarantees exact divisibility by
                 the squared transform scale; assert rather than
                 truncate. *)
              assert (raw mod scale2 = 0);
              od.(orow + dx) <- raw / scale2
            done
          done
        done)
  in
  { Itensor.shape; data }
