(* Specialized, allocation-free Winograd kernels.

   Each transform matrix is unrolled into a 1-D "step" applied first to
   the columns of the source tile and then to the rows of the
   intermediate — exactly the two matmuls of the generic sandwich.  The
   float steps keep the reference accumulation order of [Ops.matmul]
   (ascending index, left-associated, zero rows skipped), restricting
   common-subexpression sharing to sign-symmetric products and exact
   power-of-two multiplies, so results match the generic path
   element-for-element (the sign of a zero is the only tolerated
   difference).  The integer steps are exact arithmetic, so shift-add
   decompositions are unconditionally bit-identical to
   [Transform.int_sandwich].

   The conv drivers are tap-major: tiles are scattered into t·t per-tap
   [tiles × cin] panels, one flat GEMM per tap runs against the
   [cin × cout] transformed weights, and outputs gather back through the
   inverse transform.  All staging lives in per-domain scratch arenas —
   the tile loop allocates nothing.

   The per-tap GEMMs run through [Microkernel]: both operands are packed
   into register-block panels (tiles MR-packed during scatter, weights
   NR-packed during the weight transform) and the product is computed by
   MR×NR accumulator-block kernels under KC cache blocking; see
   Microkernel for the ordering contract (ascending cin per output) that
   keeps the float driver equal to the generic sandwich.  This module
   keeps no oracle: the tests compare [conv2d_f32] with the tile-major
   float Winograd convolution and [conv2d_i32_exact] with the direct
   integer convolution, both in [test/oracle.ml]. *)

module P = Twq_util.Parallel
module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Shape = Twq_tensor.Shape

(* A step reads [inner] elements of [src] starting at [soff] with stride
   [sstride] and writes [rows] results at [doff] with stride [dstride]. *)
type 'a step = 'a array -> int -> int -> 'a array -> int -> int -> unit

type 'a kernel = {
  tile : int;
  mout : int;
  input : 'a array -> int -> 'a array -> int -> 'a array -> unit;
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
  dst.(off) <- (if e.relu && v < 0 then 0 else v)

(* Apply [step] as the sandwich t_m · x · t_mᵀ: stage 1 maps the columns
   of the square [inner×inner] source into [tmp] ([rows×inner]), stage 2
   maps the rows of [tmp] into the [rows×rows] destination.  Identical
   pairing and ordering to the two matmuls of the generic path. *)
let sandwich ~rows ~inner (step : 'a step) src soff dst doff tmp =
  for j = 0 to inner - 1 do
    step src (soff + j) inner tmp j inner
  done;
  for i = 0 to rows - 1 do
    step tmp (i * inner) 1 dst (doff + (i * rows)) 1
  done

(* ---------- float steps ---------- *)
(* Non-dyadic constants below are written exactly as [Rat.to_float]
   produces them (num /. den); dyadic ones are exact literals. *)

let c1_6 = 1.0 /. 6.0
let c1_12 = 1.0 /. 12.0
let c1_24 = 1.0 /. 24.0
let c2_9 = 2.0 /. 9.0
let c1_90 = 1.0 /. 90.0
let c1_45 = 1.0 /. 45.0
let c2_45 = 2.0 /. 45.0
let c32_45 = 32.0 /. 45.0
let c16_45 = 16.0 /. 45.0
let c8_45 = 8.0 /. 45.0

(* F(2x2,3x3): Bᵀ = [[1,0,-1,0];[0,1,1,0];[0,-1,1,0];[0,1,0,-1]] *)
let bt2_f : float step =
 fun s o st d q dt ->
  let x0 = s.(o)
  and x1 = s.(o + st)
  and x2 = s.(o + (2 * st))
  and x3 = s.(o + (3 * st)) in
  d.(q) <- x0 -. x2;
  d.(q + dt) <- x1 +. x2;
  d.(q + (2 * dt)) <- x2 -. x1;
  d.(q + (3 * dt)) <- x1 -. x3

(* G = [[1,0,0];[1/2,1/2,1/2];[1/2,-1/2,1/2];[0,0,1]] *)
let g2_f : float step =
 fun s o st d q dt ->
  let f0 = s.(o) and f1 = s.(o + st) and f2 = s.(o + (2 * st)) in
  let h0 = 0.5 *. f0 and h1 = 0.5 *. f1 and h2 = 0.5 *. f2 in
  d.(q) <- f0;
  d.(q + dt) <- h0 +. h1 +. h2;
  d.(q + (2 * dt)) <- h0 -. h1 +. h2;
  d.(q + (3 * dt)) <- f2

(* Aᵀ = [[1,1,1,0];[0,1,-1,-1]] *)
let at2_f : float step =
 fun s o st d q dt ->
  let y0 = s.(o)
  and y1 = s.(o + st)
  and y2 = s.(o + (2 * st))
  and y3 = s.(o + (3 * st)) in
  d.(q) <- y0 +. y1 +. y2;
  d.(q + dt) <- y1 -. y2 -. y3

(* F(4x4,3x3): Bᵀ rows [4,0,-5,0,1,0]; [0,∓4,-4,±1,1,0]; [0,∓2,-1,±2,1,0];
   [0,4,0,-5,0,1] *)
let bt4_f : float step =
 fun s o st d q dt ->
  let x0 = s.(o)
  and x1 = s.(o + st)
  and x2 = s.(o + (2 * st))
  and x3 = s.(o + (3 * st))
  and x4 = s.(o + (4 * st))
  and x5 = s.(o + (5 * st)) in
  let p1 = 4.0 *. x1 and p2 = 4.0 *. x2 in
  let q1 = 2.0 *. x1 and q3 = 2.0 *. x3 in
  d.(q) <- (4.0 *. x0) -. (5.0 *. x2) +. x4;
  d.(q + dt) <- -.p1 -. p2 +. x3 +. x4;
  d.(q + (2 * dt)) <- p1 -. p2 -. x3 +. x4;
  d.(q + (3 * dt)) <- -.q1 -. x2 +. q3 +. x4;
  d.(q + (4 * dt)) <- q1 -. x2 -. q3 +. x4;
  d.(q + (5 * dt)) <- p1 -. (5.0 *. x3) +. x5

(* G rows [1/4,0,0]; [∓1/6,∓(±)1/6,∓1/6]; [1/24,±1/12,1/6]; [0,0,1] *)
let g4_f : float step =
 fun s o st d q dt ->
  let f0 = s.(o) and f1 = s.(o + st) and f2 = s.(o + (2 * st)) in
  let a = c1_6 *. f0 and b = c1_6 *. f1 and c = c1_6 *. f2 in
  let u = c1_24 *. f0 and v = c1_12 *. f1 in
  d.(q) <- 0.25 *. f0;
  d.(q + dt) <- -.a -. b -. c;
  d.(q + (2 * dt)) <- -.a +. b -. c;
  d.(q + (3 * dt)) <- u +. v +. c;
  d.(q + (4 * dt)) <- u -. v +. c;
  d.(q + (5 * dt)) <- f2

(* Aᵀ rows [1,1,1,1,1,0]; [0,1,-1,2,-2,0]; [0,1,1,4,4,0]; [0,1,-1,8,-8,1] *)
let at4_f : float step =
 fun s o st d q dt ->
  let y0 = s.(o)
  and y1 = s.(o + st)
  and y2 = s.(o + (2 * st))
  and y3 = s.(o + (3 * st))
  and y4 = s.(o + (4 * st))
  and y5 = s.(o + (5 * st)) in
  let q3 = 2.0 *. y3 and q4 = 2.0 *. y4 in
  let f3 = 4.0 *. y3 and f4 = 4.0 *. y4 in
  let e3 = 8.0 *. y3 and e4 = 8.0 *. y4 in
  d.(q) <- y0 +. y1 +. y2 +. y3 +. y4;
  d.(q + dt) <- y1 -. y2 +. q3 -. q4;
  d.(q + (2 * dt)) <- y1 +. y2 +. f3 +. f4;
  d.(q + (3 * dt)) <- y1 -. y2 +. e3 -. e4 +. y5

(* F(6x6,3x3), Lavin points {0,±1,±2,±1/2}. *)
let bt6_f : float step =
 fun s o st d q dt ->
  let x0 = s.(o)
  and x1 = s.(o + st)
  and x2 = s.(o + (2 * st))
  and x3 = s.(o + (3 * st))
  and x4 = s.(o + (4 * st))
  and x5 = s.(o + (5 * st))
  and x6 = s.(o + (6 * st))
  and x7 = s.(o + (7 * st)) in
  let p2 = 5.25 *. x2 and p4 = 5.25 *. x4 in
  let q3 = 4.25 *. x3 and q4 = 4.25 *. x4 in
  let a1 = 0.5 *. x1
  and a2 = 0.25 *. x2
  and a3 = 2.5 *. x3
  and a4 = 1.25 *. x4
  and a5 = 2.0 *. x5 in
  let b1 = 2.0 *. x1
  and b2 = 4.0 *. x2
  and b4 = 5.0 *. x4
  and b5 = 0.5 *. x5 in
  let s3 = 5.25 *. x3 and s5 = 5.25 *. x5 in
  d.(q) <- x0 -. p2 +. p4 -. x6;
  d.(q + dt) <- x1 +. x2 -. q3 -. q4 +. x5 +. x6;
  d.(q + (2 * dt)) <- -.x1 +. x2 +. q3 -. q4 -. x5 +. x6;
  d.(q + (3 * dt)) <- a1 +. a2 -. a3 -. a4 +. a5 +. x6;
  d.(q + (4 * dt)) <- -.a1 +. a2 +. a3 -. a4 -. a5 +. x6;
  d.(q + (5 * dt)) <- b1 +. b2 -. a3 -. b4 +. b5 +. x6;
  d.(q + (6 * dt)) <- -.b1 +. b2 +. a3 -. b4 -. b5 +. x6;
  d.(q + (7 * dt)) <- -.x1 +. s3 -. s5 +. x7

let g6_f : float step =
 fun s o st d q dt ->
  let f0 = s.(o) and f1 = s.(o + st) and f2 = s.(o + (2 * st)) in
  let u0 = c2_9 *. f0 and u1 = c2_9 *. f1 and u2 = c2_9 *. f2 in
  let v0 = c1_90 *. f0 and v1 = c1_45 *. f1 and v2 = c2_45 *. f2 in
  let g1 = c32_45 *. f0 and g2 = c16_45 *. f1 and g3 = c8_45 *. f2 in
  d.(q) <- f0;
  d.(q + dt) <- -.u0 -. u1 -. u2;
  d.(q + (2 * dt)) <- -.u0 +. u1 -. u2;
  d.(q + (3 * dt)) <- v0 +. v1 +. v2;
  d.(q + (4 * dt)) <- v0 -. v1 +. v2;
  d.(q + (5 * dt)) <- g1 +. g2 +. g3;
  d.(q + (6 * dt)) <- g1 -. g2 +. g3;
  d.(q + (7 * dt)) <- f2

let at6_f : float step =
 fun s o st d q dt ->
  let y0 = s.(o)
  and y1 = s.(o + st)
  and y2 = s.(o + (2 * st))
  and y3 = s.(o + (3 * st))
  and y4 = s.(o + (4 * st))
  and y5 = s.(o + (5 * st))
  and y6 = s.(o + (6 * st))
  and y7 = s.(o + (7 * st)) in
  d.(q) <- y0 +. y1 +. y2 +. y3 +. y4 +. y5 +. y6;
  d.(q + dt) <-
    y1 -. y2 +. (2.0 *. y3) -. (2.0 *. y4) +. (0.5 *. y5) -. (0.5 *. y6);
  d.(q + (2 * dt)) <-
    y1 +. y2 +. (4.0 *. y3) +. (4.0 *. y4) +. (0.25 *. y5) +. (0.25 *. y6);
  d.(q + (3 * dt)) <-
    y1 -. y2 +. (8.0 *. y3) -. (8.0 *. y4) +. (0.125 *. y5) -. (0.125 *. y6);
  d.(q + (4 * dt)) <-
    y1 +. y2
    +. (16.0 *. y3)
    +. (16.0 *. y4)
    +. (0.0625 *. y5)
    +. (0.0625 *. y6);
  d.(q + (5 * dt)) <-
    y1 -. y2
    +. (32.0 *. y3)
    -. (32.0 *. y4)
    +. (0.03125 *. y5)
    -. (0.03125 *. y6)
    +. y7

(* ---------- integer steps (scaled integral matrices, shift-add) ---------- *)

(* F2: Bᵀ and Aᵀ already integral (scale 1); G scaled by 2:
   [[2,0,0];[1,1,1];[1,-1,1];[0,0,2]]. *)
let bt2_i : int step =
 fun s o st d q dt ->
  let x0 = s.(o)
  and x1 = s.(o + st)
  and x2 = s.(o + (2 * st))
  and x3 = s.(o + (3 * st)) in
  d.(q) <- x0 - x2;
  d.(q + dt) <- x1 + x2;
  d.(q + (2 * dt)) <- x2 - x1;
  d.(q + (3 * dt)) <- x1 - x3

let g2_i : int step =
 fun s o st d q dt ->
  let f0 = s.(o) and f1 = s.(o + st) and f2 = s.(o + (2 * st)) in
  d.(q) <- f0 lsl 1;
  d.(q + dt) <- f0 + f1 + f2;
  d.(q + (2 * dt)) <- f0 - f1 + f2;
  d.(q + (3 * dt)) <- f2 lsl 1

let at2_i : int step =
 fun s o st d q dt ->
  let y0 = s.(o)
  and y1 = s.(o + st)
  and y2 = s.(o + (2 * st))
  and y3 = s.(o + (3 * st)) in
  d.(q) <- y0 + y1 + y2;
  d.(q + dt) <- y1 - y2 - y3

(* F4: Bᵀ/Aᵀ integral; G scaled by 24:
   [[6,0,0];[-4,-4,-4];[-4,4,-4];[1,2,4];[1,-2,4];[0,0,24]]. *)
let bt4_i : int step =
 fun s o st d q dt ->
  let x0 = s.(o)
  and x1 = s.(o + st)
  and x2 = s.(o + (2 * st))
  and x3 = s.(o + (3 * st))
  and x4 = s.(o + (4 * st))
  and x5 = s.(o + (5 * st)) in
  d.(q) <- (x0 lsl 2) - (x2 lsl 2) - x2 + x4;
  d.(q + dt) <- x3 + x4 - ((x1 + x2) lsl 2);
  d.(q + (2 * dt)) <- ((x1 - x2) lsl 2) - x3 + x4;
  d.(q + (3 * dt)) <- ((x3 - x1) lsl 1) - x2 + x4;
  d.(q + (4 * dt)) <- ((x1 - x3) lsl 1) - x2 + x4;
  d.(q + (5 * dt)) <- (x1 lsl 2) - (x3 lsl 2) - x3 + x5

let g4_i : int step =
 fun s o st d q dt ->
  let f0 = s.(o) and f1 = s.(o + st) and f2 = s.(o + (2 * st)) in
  let sum = f0 + f1 + f2 and dif = f0 - f1 + f2 in
  d.(q) <- (f0 lsl 2) + (f0 lsl 1);
  d.(q + dt) <- -(sum lsl 2);
  d.(q + (2 * dt)) <- -(dif lsl 2);
  d.(q + (3 * dt)) <- f0 + (f1 lsl 1) + (f2 lsl 2);
  d.(q + (4 * dt)) <- f0 - (f1 lsl 1) + (f2 lsl 2);
  d.(q + (5 * dt)) <- (f2 lsl 4) + (f2 lsl 3)

let at4_i : int step =
 fun s o st d q dt ->
  let y0 = s.(o)
  and y1 = s.(o + st)
  and y2 = s.(o + (2 * st))
  and y3 = s.(o + (3 * st))
  and y4 = s.(o + (4 * st))
  and y5 = s.(o + (5 * st)) in
  let dd = y1 - y2 and ss = y1 + y2 in
  let e = y3 - y4 and f = y3 + y4 in
  d.(q) <- y0 + ss + f;
  d.(q + dt) <- dd + (e lsl 1);
  d.(q + (2 * dt)) <- ss + (f lsl 2);
  d.(q + (3 * dt)) <- dd + (e lsl 3) + y5

(* F6: Bᵀ scaled by 4, G by 90, Aᵀ by 32.  21z = 16z+4z+z, 17z = 16z+z,
   10z = 8z+2z, 5z = 4z+z, 20z = 16z+4z, 90z = 64z+16z+8z+2z. *)
let bt6_i : int step =
 fun s o st d q dt ->
  let x0 = s.(o)
  and x1 = s.(o + st)
  and x2 = s.(o + (2 * st))
  and x3 = s.(o + (3 * st))
  and x4 = s.(o + (4 * st))
  and x5 = s.(o + (5 * st))
  and x6 = s.(o + (6 * st))
  and x7 = s.(o + (7 * st)) in
  let t42 = x4 - x2 and t34 = x3 + x4 and d34 = x3 - x4 in
  let s1256 = x1 + x2 + x5 + x6 in
  d.(q) <- ((x0 - x6) lsl 2) + (t42 lsl 4) + (t42 lsl 2) + t42;
  d.(q + dt) <- (s1256 lsl 2) - (t34 lsl 4) - t34;
  d.(q + (2 * dt)) <- ((x2 + x6 - x1 - x5) lsl 2) + (d34 lsl 4) + d34;
  d.(q + (3 * dt)) <-
    (x1 lsl 1) + x2 - (x3 lsl 3) - (x3 lsl 1) - (x4 lsl 2) - x4 + (x5 lsl 3)
    + (x6 lsl 2);
  d.(q + (4 * dt)) <-
    x2 - (x1 lsl 1) + (x3 lsl 3) + (x3 lsl 1) - (x4 lsl 2) - x4 - (x5 lsl 3)
    + (x6 lsl 2);
  d.(q + (5 * dt)) <-
    (x1 lsl 3) + (x2 lsl 4) - (x3 lsl 3) - (x3 lsl 1) - (x4 lsl 4)
    - (x4 lsl 2) + (x5 lsl 1) + (x6 lsl 2);
  d.(q + (6 * dt)) <-
    (x2 lsl 4) - (x1 lsl 3) + (x3 lsl 3) + (x3 lsl 1) - (x4 lsl 4)
    - (x4 lsl 2) - (x5 lsl 1) + (x6 lsl 2);
  d.(q + (7 * dt)) <-
    ((x7 - x1) lsl 2) + ((x3 - x5) lsl 4) + ((x3 - x5) lsl 2) + (x3 - x5)

let g6_i : int step =
 fun s o st d q dt ->
  let f0 = s.(o) and f1 = s.(o + st) and f2 = s.(o + (2 * st)) in
  let sum = f0 + f1 + f2 and dif = f0 - f1 + f2 in
  d.(q) <- (f0 lsl 6) + (f0 lsl 4) + (f0 lsl 3) + (f0 lsl 1);
  d.(q + dt) <- -((sum lsl 4) + (sum lsl 2));
  d.(q + (2 * dt)) <- -((dif lsl 4) + (dif lsl 2));
  d.(q + (3 * dt)) <- f0 + (f1 lsl 1) + (f2 lsl 2);
  d.(q + (4 * dt)) <- f0 - (f1 lsl 1) + (f2 lsl 2);
  d.(q + (5 * dt)) <- (f0 lsl 6) + (f1 lsl 5) + (f2 lsl 4);
  d.(q + (6 * dt)) <- (f0 lsl 6) - (f1 lsl 5) + (f2 lsl 4);
  d.(q + (7 * dt)) <- (f2 lsl 6) + (f2 lsl 4) + (f2 lsl 3) + (f2 lsl 1)

let at6_i : int step =
 fun s o st d q dt ->
  let y0 = s.(o)
  and y1 = s.(o + st)
  and y2 = s.(o + (2 * st))
  and y3 = s.(o + (3 * st))
  and y4 = s.(o + (4 * st))
  and y5 = s.(o + (5 * st))
  and y6 = s.(o + (6 * st))
  and y7 = s.(o + (7 * st)) in
  let dd = y1 - y2 and ss = y1 + y2 in
  let e = y3 - y4 and f = y3 + y4 in
  let g = y5 - y6 and h = y5 + y6 in
  d.(q) <- (y0 + ss + f + h) lsl 5;
  d.(q + dt) <- (dd lsl 5) + (e lsl 6) + (g lsl 4);
  d.(q + (2 * dt)) <- (ss lsl 5) + (f lsl 7) + (h lsl 3);
  d.(q + (3 * dt)) <- (dd lsl 5) + (e lsl 8) + (g lsl 2);
  d.(q + (4 * dt)) <- (ss lsl 5) + (f lsl 9) + (h lsl 1);
  d.(q + (5 * dt)) <- (dd lsl 5) + (e lsl 10) + g + (y7 lsl 5)

(* ---------- kernel records ---------- *)

let make ~t ~m ~r ~bt ~g ~at =
  {
    tile = t;
    mout = m;
    input = sandwich ~rows:t ~inner:t bt;
    weight = sandwich ~rows:t ~inner:r g;
    output = sandwich ~rows:m ~inner:t at;
  }

let f2_f32 = make ~t:4 ~m:2 ~r:3 ~bt:bt2_f ~g:g2_f ~at:at2_f
let f4_f32 = make ~t:6 ~m:4 ~r:3 ~bt:bt4_f ~g:g4_f ~at:at4_f
let f6_f32 = make ~t:8 ~m:6 ~r:3 ~bt:bt6_f ~g:g6_f ~at:at6_f

let f32_specialized = function
  | Transform.F2 -> f2_f32
  | Transform.F4 -> f4_f32
  | Transform.F6 -> f6_f32

let f2_i32 = make ~t:4 ~m:2 ~r:3 ~bt:bt2_i ~g:g2_i ~at:at2_i
let f4_i32 = make ~t:6 ~m:4 ~r:3 ~bt:bt4_i ~g:g4_i ~at:at4_i
let f6_i32 = make ~t:8 ~m:6 ~r:3 ~bt:bt6_i ~g:g6_i ~at:at6_i

let i32_specialized = function
  | Transform.F2 -> f2_i32
  | Transform.F4 -> f4_i32
  | Transform.F6 -> f6_i32

(* Compile an arbitrary constant matrix into a sparse per-row plan.  The
   accumulation is exactly [Ops.matmul] with that matrix on the left:
   start from 0.0, add coefficient·element for the non-zero coefficients
   in ascending column order. *)
let plan_step (mat : float array array) : float step =
  let rows = Array.length mat in
  let idx =
    Array.map
      (fun row ->
        let l = ref [] in
        Array.iteri (fun k c -> if c <> 0.0 then l := k :: !l) row;
        Array.of_list (List.rev !l))
      mat
  in
  let coef =
    Array.map2
      (fun row ix -> Array.map (fun k -> row.(k)) ix)
      mat idx
  in
  fun s o st d q dt ->
    for i = 0 to rows - 1 do
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
let plan_step_i (mat : int array array) : int step =
  let rows = Array.length mat in
  let idx =
    Array.map
      (fun row ->
        let l = ref [] in
        Array.iteri (fun k c -> if c <> 0 then l := k :: !l) row;
        Array.of_list (List.rev !l))
      mat
  in
  let coef =
    Array.map2 (fun row ix -> Array.map (fun k -> row.(k)) ix) mat idx
  in
  fun s o st d q dt ->
    for i = 0 to rows - 1 do
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

(* ---------- tap-major convolution drivers ---------- *)

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

(* One arena per logically distinct buffer (borrows from the same arena
   alias on a domain). *)
let fa_tile = P.Scratch.create_float ()
let fa_xt = P.Scratch.create_float ()
let fa_tmp = P.Scratch.create_float ()
let fa_v = P.Scratch.create_float ()
let fa_mo = P.Scratch.create_float ()
let fa_yw = P.Scratch.create_float ()
let fa_yo = P.Scratch.create_float ()
let fa_u = P.Scratch.create_float ()
let ia_tile = P.Scratch.create_int ()
let ia_xt = P.Scratch.create_int ()
let ia_tmp = P.Scratch.create_int ()
let ia_v = P.Scratch.create_int ()
let ia_mo = P.Scratch.create_int ()
let ia_yw = P.Scratch.create_int ()
let ia_yo = P.Scratch.create_int ()
let ia_u = P.Scratch.create_int ()

(* Tiles per block: big enough that the per-tap GEMM runs over a panel,
   small enough to keep all domains busy.  Per-tile results do not depend
   on the grouping, so any block size is bit-identical. *)
let block_of ~total =
  let nd = P.num_domains () in
  max 1 (min 32 (total / (max 1 (4 * nd))))

(* ---------- microkernel (packed, register-tiled) drivers ---------- *)

(* The drivers scatter tiles into per-tap panels, run one GEMM per tap
   and gather back through the inverse transform — per (tile, tap, co)
   the same ascending-cin sum as the tile-major float oracle in
   [test/oracle.ml] — and stage both GEMM operands in register-block
   panels:

   - weights are NR-packed while they are transformed —
     [u.(tap·cin·cout_p + ((jb·cin + ci)·nr + jr))] with [co = jb·nr+jr],
     [cout_p = round_up cout nr], pad lanes zeroed once per call;
   - tiles are MR-packed during scatter —
     [v.(tap·tb·cin + ((ib·cin + ci)·mr + ir))] with [bidx = ib·mr+ir],
     [tb] rounded up to a multiple of MR, pad rows of a trailing partial
     block zeroed;
   - per tap, one [Microkernel.gemm_*] call accumulates into the
     [tb × cout_p] slab of [mo]; gather reads [cout_p]-strided rows and
     never touches the pad columns.

   [u] itself is borrowed from a per-domain arena instead of allocated
   per call — the last steady-state allocation of the tap-major path. *)

let conv2d_f32 k ~pad ~x ~w =
  let n = Tensor.dim x 0 and cin = Tensor.dim x 1 in
  let h = Tensor.dim x 2 and wd = Tensor.dim x 3 in
  let cout = Tensor.dim w 0 in
  let t = k.tile and m = k.mout in
  let r = t - m + 1 in
  if Tensor.dim w 1 <> cin then
    invalid_arg "Kernels.conv2d_f32: channel mismatch";
  if Tensor.dim w 2 <> r || Tensor.dim w 3 <> r then
    invalid_arg "Kernels.conv2d_f32: kernel size mismatch";
  let ho, wo = Shape.conv2d_out ~h ~w:wd ~kh:r ~kw:r ~stride:1 ~pad in
  let tt = t * t in
  let out = Tensor.zeros [| n; cout; ho; wo |] in
  let od = out.Tensor.data and xd = x.Tensor.data in
  let { Microkernel.mr; nr; kc } = Microkernel.config () in
  let cout_p = Microkernel.round_up cout nr in
  let ucincp = cin * cout_p in
  (* Transformed weights, NR-packed; borrowed by the caller so all
     weight-transform workers write into the same panel. *)
  let u = P.Scratch.borrow fa_u (tt * ucincp) in
  P.parallel_for ~lo:0 ~hi:(cout * cin) (fun idx ->
      let co = idx / cin and ci = idx mod cin in
      let f = P.Scratch.borrow fa_tile (r * r) in
      let wt = P.Scratch.borrow fa_xt tt in
      let tmp = P.Scratch.borrow fa_tmp (t * r) in
      Array.blit w.Tensor.data (((co * cin) + ci) * r * r) f 0 (r * r);
      k.weight f 0 wt 0 tmp;
      let jb = co / nr and jr = co mod nr in
      let base = (((jb * cin) + ci) * nr) + jr in
      for tap = 0 to tt - 1 do
        u.((tap * ucincp) + base) <- wt.(tap)
      done);
  if cout_p > cout then
    for co = cout to cout_p - 1 do
      let jb = co / nr and jr = co mod nr in
      for ci = 0 to cin - 1 do
        let base = (((jb * cin) + ci) * nr) + jr in
        for tap = 0 to tt - 1 do
          u.((tap * ucincp) + base) <- 0.0
        done
      done
    done;
  let n_th = (ho + m - 1) / m and n_tw = (wo + m - 1) / m in
  let tiles_per_img = n_th * n_tw in
  let total = n * tiles_per_img in
  let tb = Microkernel.round_up (block_of ~total) mr in
  let tbcin = tb * cin in
  let nblocks = (total + tb - 1) / tb in
  P.parallel_for ~chunk:1 ~lo:0 ~hi:nblocks (fun blk ->
      let b0 = blk * tb in
      let bs = min tb (total - b0) in
      let bs_p = Microkernel.round_up bs mr in
      let tile = P.Scratch.borrow fa_tile tt in
      let xt = P.Scratch.borrow fa_xt tt in
      let tmp = P.Scratch.borrow fa_tmp tt in
      let v = P.Scratch.borrow fa_v (tt * tbcin) in
      let mo = P.Scratch.borrow fa_mo (tt * tb * cout_p) in
      let yw = P.Scratch.borrow fa_yw tt in
      let yo = P.Scratch.borrow fa_yo (m * m) in
      (* Scatter: transform each tile and spread its taps across the
         per-tap MR-packed panels. *)
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img in
        let rest = tidx mod tiles_per_img in
        let th = rest / n_tw and tw = rest mod n_tw in
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          load_tile_f xd ~h ~w:wd
            ~base:(((ni * cin) + ci) * h * wd)
            ~pad ~h0:(th * m) ~w0:(tw * m) ~t tile;
          k.input tile 0 xt 0 tmp;
          let vbase = (((ib * cin) + ci) * mr) + ir in
          for tap = 0 to tt - 1 do
            v.((tap * tbcin) + vbase) <- xt.(tap)
          done
        done
      done;
      (* Zero the pad rows of a trailing partial block so their products
         contribute exact zeros. *)
      for bidx = bs to bs_p - 1 do
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          let vbase = (((ib * cin) + ci) * mr) + ir in
          for tap = 0 to tt - 1 do
            v.((tap * tbcin) + vbase) <- 0.0
          done
        done
      done;
      Array.fill mo 0 (tt * tb * cout_p) 0.0;
      for tap = 0 to tt - 1 do
        Microkernel.gemm_f32 ~mr ~nr ~kc ~rows_p:bs_p ~cols_p:cout_p ~k:cin
          ~vp:v ~vo:(tap * tbcin) ~up:u ~uo:(tap * ucincp) ~c:mo
          ~co:(tap * tb * cout_p) ~cstride:cout_p
      done;
      (* Gather: inverse-transform each (tile, co) tap vector, crop. *)
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img in
        let rest = tidx mod tiles_per_img in
        let th = rest / n_tw and tw = rest mod n_tw in
        let h0 = th * m and w0 = tw * m in
        let rh = min m (ho - h0) and rw = min m (wo - w0) in
        for co = 0 to cout - 1 do
          for tap = 0 to tt - 1 do
            yw.(tap) <- mo.((((tap * tb) + bidx) * cout_p) + co)
          done;
          k.output yw 0 yo 0 tmp;
          for dy = 0 to rh - 1 do
            let orow = (((((ni * cout) + co) * ho) + h0 + dy) * wo) + w0 in
            let yrow = dy * m in
            for dx = 0 to rw - 1 do
              od.(orow + dx) <- yo.(yrow + dx)
            done
          done
        done
      done);
  out

let conv2d_i32_exact k ~scale2 ~pad ~x ~w =
  let n = Itensor.dim x 0 and cin = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and wd = Itensor.dim x 3 in
  let cout = Itensor.dim w 0 in
  let t = k.tile and m = k.mout in
  let r = t - m + 1 in
  if Itensor.dim w 1 <> cin then
    invalid_arg "Kernels.conv2d_i32_exact: channel mismatch";
  if Itensor.dim w 2 <> r || Itensor.dim w 3 <> r then
    invalid_arg "Kernels.conv2d_i32_exact: kernel size mismatch";
  let ho, wo = Shape.conv2d_out ~h ~w:wd ~kh:r ~kw:r ~stride:1 ~pad in
  let tt = t * t in
  let out = Itensor.zeros [| n; cout; ho; wo |] in
  let od = out.Itensor.data and xd = x.Itensor.data in
  let { Microkernel.mr; nr; kc } = Microkernel.config () in
  let cout_p = Microkernel.round_up cout nr in
  let ucincp = cin * cout_p in
  let u = P.Scratch.borrow ia_u (tt * ucincp) in
  P.parallel_for ~lo:0 ~hi:(cout * cin) (fun idx ->
      let co = idx / cin and ci = idx mod cin in
      let f = P.Scratch.borrow ia_tile (r * r) in
      let wt = P.Scratch.borrow ia_xt tt in
      let tmp = P.Scratch.borrow ia_tmp (t * r) in
      Array.blit w.Itensor.data (((co * cin) + ci) * r * r) f 0 (r * r);
      k.weight f 0 wt 0 tmp;
      let jb = co / nr and jr = co mod nr in
      let base = (((jb * cin) + ci) * nr) + jr in
      for tap = 0 to tt - 1 do
        u.((tap * ucincp) + base) <- wt.(tap)
      done);
  if cout_p > cout then
    for co = cout to cout_p - 1 do
      let jb = co / nr and jr = co mod nr in
      for ci = 0 to cin - 1 do
        let base = (((jb * cin) + ci) * nr) + jr in
        for tap = 0 to tt - 1 do
          u.((tap * ucincp) + base) <- 0
        done
      done
    done;
  let n_th = (ho + m - 1) / m and n_tw = (wo + m - 1) / m in
  let tiles_per_img = n_th * n_tw in
  let total = n * tiles_per_img in
  let tb = Microkernel.round_up (block_of ~total) mr in
  let tbcin = tb * cin in
  let nblocks = (total + tb - 1) / tb in
  P.parallel_for ~chunk:1 ~lo:0 ~hi:nblocks (fun blk ->
      let b0 = blk * tb in
      let bs = min tb (total - b0) in
      let bs_p = Microkernel.round_up bs mr in
      let tile = P.Scratch.borrow ia_tile tt in
      let xt = P.Scratch.borrow ia_xt tt in
      let tmp = P.Scratch.borrow ia_tmp tt in
      let v = P.Scratch.borrow ia_v (tt * tbcin) in
      let mo = P.Scratch.borrow ia_mo (tt * tb * cout_p) in
      let yw = P.Scratch.borrow ia_yw tt in
      let yo = P.Scratch.borrow ia_yo (m * m) in
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img in
        let rest = tidx mod tiles_per_img in
        let th = rest / n_tw and tw = rest mod n_tw in
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          load_tile_i xd ~h ~w:wd
            ~base:(((ni * cin) + ci) * h * wd)
            ~pad ~h0:(th * m) ~w0:(tw * m) ~t tile;
          k.input tile 0 xt 0 tmp;
          let vbase = (((ib * cin) + ci) * mr) + ir in
          for tap = 0 to tt - 1 do
            v.((tap * tbcin) + vbase) <- xt.(tap)
          done
        done
      done;
      for bidx = bs to bs_p - 1 do
        let ib = bidx / mr and ir = bidx mod mr in
        for ci = 0 to cin - 1 do
          let vbase = (((ib * cin) + ci) * mr) + ir in
          for tap = 0 to tt - 1 do
            v.((tap * tbcin) + vbase) <- 0
          done
        done
      done;
      Array.fill mo 0 (tt * tb * cout_p) 0;
      for tap = 0 to tt - 1 do
        Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p:bs_p ~cols_p:cout_p ~k:cin
          ~vp:v ~vo:(tap * tbcin) ~up:u ~uo:(tap * ucincp) ~c:mo
          ~co:(tap * tb * cout_p) ~cstride:cout_p
      done;
      for bidx = 0 to bs - 1 do
        let tidx = b0 + bidx in
        let ni = tidx / tiles_per_img in
        let rest = tidx mod tiles_per_img in
        let th = rest / n_tw and tw = rest mod n_tw in
        let h0 = th * m and w0 = tw * m in
        let rh = min m (ho - h0) and rw = min m (wo - w0) in
        for co = 0 to cout - 1 do
          for tap = 0 to tt - 1 do
            yw.(tap) <- mo.((((tap * tb) + bidx) * cout_p) + co)
          done;
          k.output yw 0 yo 0 tmp;
          for dy = 0 to rh - 1 do
            let orow = (((((ni * cout) + co) * ho) + h0 + dy) * wo) + w0 in
            let yrow = dy * m in
            for dx = 0 to rw - 1 do
              let raw = yo.(yrow + dx) in
              (* The Winograd identity guarantees exact divisibility by
                 the squared transform scale; assert rather than
                 truncate. *)
              assert (raw mod scale2 = 0);
              od.(orow + dx) <- raw / scale2
            done
          done
        done
      done);
  out
