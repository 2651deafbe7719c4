type t = { shape : Shape.t; data : int array }

let create shape v =
  Shape.validate shape;
  { shape = Array.copy shape; data = Array.make (Shape.numel shape) v }

let zeros shape = create shape 0

let of_array shape data =
  Shape.validate shape;
  if Array.length data <> Shape.numel shape then
    invalid_arg "Itensor.of_array: length mismatch";
  { shape = Array.copy shape; data }

let init shape f =
  Shape.validate shape;
  let strides = Shape.strides shape in
  let rank = Array.length shape in
  let idx = Array.make rank 0 in
  let data =
    Array.init (Shape.numel shape) (fun flat ->
        let rem = ref flat in
        for d = 0 to rank - 1 do
          idx.(d) <- !rem / strides.(d);
          rem := !rem mod strides.(d)
        done;
        f idx)
  in
  { shape = Array.copy shape; data }

let copy t = { shape = Array.copy t.shape; data = Array.copy t.data }
let numel t = Array.length t.data
let dim t i = t.shape.(i)

let reshape t shape =
  Shape.validate shape;
  if Shape.numel shape <> Array.length t.data then
    invalid_arg "Itensor.reshape: element count mismatch";
  { shape = Array.copy shape; data = t.data }

(* Offsets inline, as in {!Tensor} — no per-element stride allocation. *)
let offset_of t idx =
  let s = t.shape in
  let off = ref idx.(0) in
  for d = 1 to Array.length s - 1 do
    off := (!off * s.(d)) + idx.(d)
  done;
  !off

let get t idx = t.data.(offset_of t idx)
let set t idx v = t.data.(offset_of t idx) <- v

let get2 t i j = t.data.((i * t.shape.(1)) + j)
let set2 t i j v = t.data.((i * t.shape.(1)) + j) <- v

let get4 t n c h w =
  let s = t.shape in
  t.data.((((((n * s.(1)) + c) * s.(2)) + h) * s.(3)) + w)

let set4 t n c h w v =
  let s = t.shape in
  t.data.((((((n * s.(1)) + c) * s.(2)) + h) * s.(3)) + w) <- v

let map f t = { shape = Array.copy t.shape; data = Array.map f t.data }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Itensor.map2: shape mismatch";
  { shape = Array.copy a.shape; data = Array.map2 f a.data b.data }

let add = map2 ( + )
let mul = map2 ( * )

let matmul a b =
  if Array.length a.shape <> 2 || Array.length b.shape <> 2 then
    invalid_arg "Itensor.matmul: expected 2-D tensors";
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then invalid_arg "Itensor.matmul: inner dims differ";
  let out = zeros [| m; n |] in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let aip = a.data.((i * k) + p) in
      if aip <> 0 then
        for j = 0 to n - 1 do
          out.data.((i * n) + j) <-
            out.data.((i * n) + j) + (aip * b.data.((p * n) + j))
        done
    done
  done;
  out

let max_abs t = Array.fold_left (fun acc x -> Stdlib.max acc (abs x)) 0 t.data

let clamp_int ~bits v =
  let hi = (1 lsl (bits - 1)) - 1 in
  let lo = -(hi + 1) in
  if v > hi then hi else if v < lo then lo else v

let clamp_bits ~bits t = map (clamp_int ~bits) t

(* Branch-free on the data: [s] is 0 for v >= 0 and -1 otherwise, so
   [(v lxor s) - s] is |v| and the outer [lxor s - s] restores the sign.
   Requantized values are sign-random, and a [v >= 0] test here
   mispredicts about half the time.  [half] is 0 at k = 0. *)
let round_shift v k =
  if k < 0 then invalid_arg "Itensor.round_shift: negative shift";
  let half = (1 lsl k) lsr 1 in
  let s = v asr 62 in
  ((((v lxor s) - s + half) asr k) lxor s) - s

let of_tensor_round (t : Tensor.t) =
  { shape = Array.copy t.Tensor.shape;
    data = Array.map (fun x -> int_of_float (Float.round x)) t.Tensor.data }

let to_tensor t =
  Tensor.of_array (Array.copy t.shape) (Array.map float_of_int t.data)

let equal a b = Shape.equal a.shape b.shape && a.data = b.data

let pp ppf t =
  Format.fprintf ppf "Itensor%s" (Shape.to_string t.shape);
  if numel t <= 16 then begin
    Format.fprintf ppf " [";
    Array.iteri
      (fun i x ->
        if i > 0 then Format.fprintf ppf "; ";
        Format.fprintf ppf "%d" x)
      t.data;
    Format.fprintf ppf "]"
  end
