(* Residue-number-system integer Winograd backend.

   It runs on the shared tap-major loop [Kernels.tap_major], with one
   panel per (modulus, tap) instead of one per tap, so every panel holds
   *residues*.  Its hooks: one [put] reduces each exact lifted
   transform (of a tile window or a filter) into [0, p) for each modulus;
   the GEMM is the loop's dense [Microkernel.gemm_i32] per panel, with
   lazy reduction (the plan proves Cin·p² fits); gather runs the output
   transform on residues with Aᵀ mod p, Garner-reconstructs the centered
   scaled output, divides the lift denominator off exactly, and applies
   the fused epilogue.  The
   full-range value exists only as one scalar per output pixel — never
   as a tensor.

   Soundness: all panel arithmetic is congruent mod p to the exact
   scaled sandwich Y = (Aᵀ_int · (Σ_ci V_int ⊙ U_int) · A_int), an
   integer equal to (β·γ·α)²·y by the Winograd identity.  The plan-time
   range proof guarantees Π pᵢ ≥ 2·|Y|+1, so CRT recovers Y exactly and
   the divide-off is exact — the backend is bit-identical to the direct
   integer convolution or it raises; it cannot be silently wrong. *)

module Rat = Twq_util.Rat
module Rmat = Twq_util.Rmat
module Modint = Twq_util.Modint
module Itensor = Twq_tensor.Itensor
module Shape = Twq_tensor.Shape

type error =
  | Bad_basis of string
  | Insufficient_range of { bound : int; required : int; product : int }
  | Lift_overflow of string
  | Accumulator_overflow of string
  | Out_of_range of string

exception Rns_error of error

let error_to_string = function
  | Bad_basis msg -> "bad basis: " ^ msg
  | Insufficient_range { bound; required; product } ->
      Printf.sprintf
        "insufficient basis range: worst-case |Y| = %d needs product >= %d \
         but basis product is %d"
        bound required product
  | Lift_overflow msg -> "lift overflow: " ^ msg
  | Accumulator_overflow msg -> "accumulator overflow: " ^ msg
  | Out_of_range msg -> "out of range: " ^ msg

let () =
  Printexc.register_printer (function
    | Rns_error e -> Some ("Rns.Rns_error: " ^ error_to_string e)
    | _ -> None)

type plan = {
  gen : Generator.t;
  tile_ : int;
  mout : int;
  rr : int;
  basis_ : int array;
  crt : Modint.Crt.t;
  scales : int * int * int; (* bt, g, at lift denominators *)
  denom_ : int;
  bound_ : int;
  required_ : int;
  cin_max : int;
  xmax : int;
  wmax : int;
  ker_int : int Kernels.kernel; (* exact lifted transforms *)
  out_k : int Kernels.kernel array; (* per modulus: transforms mod p *)
}

let default_basis = [ 251; 241; 239 ]

(* Everything an exact intermediate may reach must stay well under
   max_int; 2^61 leaves a 2x slack over the proven bounds. *)
let guard = 1 lsl 61

type analysis = {
  a_gen : Generator.t;
  bt_i : int array array;
  g_i : int array array;
  at_i : int array array;
  a_scales : int * int * int;
  a_denom : int;
  a_bound : int;
  a_required : int;
}

let max_row_l1 mat =
  Array.fold_left
    (fun acc row -> max acc (Array.fold_left (fun a c -> a + abs c) 0 row))
    0 mat

let analyze ?points ~m ~r ~cin ~xmax ~wmax () =
  let points =
    match points with
    | Some p -> p
    | None -> Generator.lavin_points (m + r - 2)
  in
  let gen = Generator.make ~points ~m ~r in
  match
    let bs, bt_i = Rmat.lift_common_denominator gen.Generator.bt in
    let gs, g_i = Rmat.lift_common_denominator gen.Generator.g in
    let ats, at_i = Rmat.lift_common_denominator gen.Generator.at in
    (bs, bt_i, gs, g_i, ats, at_i)
  with
  | exception Rmat.Lift_overflow msg -> Error (Lift_overflow msg)
  | bs, bt_i, gs, g_i, ats, at_i -> (
      match
        let total = Rat.checked_mul (Rat.checked_mul bs gs) ats in
        let denom = Rat.checked_mul total total in
        (* |y| ≤ cin·r²·xmax·wmax for the true convolution, so the scaled
           integer output is bounded by denom times that. *)
        let conv_bound =
          Rat.checked_mul
            (Rat.checked_mul cin (r * r))
            (Rat.checked_mul xmax wmax)
        in
        let bound = Rat.checked_mul denom conv_bound in
        let required = Rat.checked_add (Rat.checked_mul 2 bound) 1 in
        (* The exact lifted input/weight transforms run in native ints
           before reduction; bound them by the lifted row L1 norms. *)
        let bt_l1 = max_row_l1 bt_i and g_l1 = max_row_l1 g_i in
        let in_peak = Rat.checked_mul xmax (Rat.checked_mul bt_l1 bt_l1) in
        let w_peak = Rat.checked_mul wmax (Rat.checked_mul g_l1 g_l1) in
        (denom, bound, required, in_peak, w_peak)
      with
      | exception Rat.Overflow ->
          Error
            (Accumulator_overflow
               "worst-case scaled accumulator exceeds the native integer \
                range for this F(m,r)/cin/value-range configuration")
      | denom, bound, required, in_peak, w_peak ->
          if required > Modint.max_product then
            Error
              (Accumulator_overflow
                 (Printf.sprintf
                    "required basis product %d exceeds the %d \
                     reconstruction cap"
                    required Modint.max_product))
          else if in_peak > guard || w_peak > guard then
            Error
              (Accumulator_overflow
                 "exact lifted transform output exceeds the native \
                  integer range")
          else
            Ok
              {
                a_gen = gen;
                bt_i;
                g_i;
                at_i;
                a_scales = (bs, gs, ats);
                a_denom = denom;
                a_bound = bound;
                a_required = required;
              })

let plan ?points ~m ~r ~basis ~cin ?(xmax = 128) ?(wmax = 128) () =
  if cin < 1 then invalid_arg "Rns.plan: cin must be positive";
  if xmax < 1 || wmax < 1 then
    invalid_arg "Rns.plan: value ranges must be positive";
  match analyze ?points ~m ~r ~cin ~xmax ~wmax () with
  | Error e -> Error e
  | Ok a -> (
      let basis_ = Array.of_list basis in
      match Modint.Crt.make basis_ with
      | Error msg -> Error (Bad_basis msg)
      | Ok crt ->
          let product = Modint.Crt.product crt in
          if product < a.a_required then
            Error
              (Insufficient_range
                 {
                   bound = a.a_bound;
                   required = a.a_required;
                   product;
                 })
          else begin
            let pmax = Array.fold_left max 2 basis_ in
            if cin > guard / (pmax * pmax) then
              Error
                (Accumulator_overflow
                   (Printf.sprintf
                      "lazy per-modulus GEMM accumulator cin*p^2 \
                       overflows for cin = %d, p = %d"
                      cin pmax))
            else begin
              let red p = Array.map (Array.map (fun c -> Modint.reduce c p)) in
              let out_k =
                Array.map
                  (fun p ->
                    Kernels.i32_of_mats ~bt:(red p a.bt_i) ~g:(red p a.g_i)
                      ~at:(red p a.at_i))
                  basis_
              in
              Ok
                {
                  gen = a.a_gen;
                  tile_ = m + r - 1;
                  mout = m;
                  rr = r;
                  basis_;
                  crt;
                  scales = a.a_scales;
                  denom_ = a.a_denom;
                  bound_ = a.a_bound;
                  required_ = a.a_required;
                  cin_max = cin;
                  xmax;
                  wmax;
                  ker_int =
                    Kernels.i32_of_mats ~bt:a.bt_i ~g:a.g_i ~at:a.at_i;
                  out_k;
                }
            end
          end)

let plan_exn ?points ~m ~r ~basis ~cin ?xmax ?wmax () =
  match plan ?points ~m ~r ~basis ~cin ?xmax ?wmax () with
  | Ok p -> p
  | Error e -> raise (Rns_error e)

(* Fixed ladders: prefixes of descending 8-bit primes first (residues fit
   int8 datapaths), then of 13-bit primes for ranges 8-bit products can't
   reach. *)
let eight_bit_primes = [ 251; 241; 239; 233; 229; 227; 223 ]
let thirteen_bit_primes = [ 8191; 8179; 8171; 8167; 8161; 8147 ]

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let suggest_basis ?points ~m ~r ~cin ?(xmax = 128) ?(wmax = 128) () =
  match analyze ?points ~m ~r ~cin ~xmax ~wmax () with
  | Error e -> Error e
  | Ok a ->
      let candidates =
        List.concat_map
          (fun pool ->
            List.init
              (List.length pool - 1)
              (fun i -> take (i + 2) pool))
          [ eight_bit_primes; thirteen_bit_primes ]
      in
      let fits basis =
        match Modint.Crt.make (Array.of_list basis) with
        | Error _ -> false
        | Ok crt -> Modint.Crt.product crt >= a.a_required
      in
      (match List.find_opt fits candidates with
      | Some basis -> Ok basis
      | None ->
          Error
            (Insufficient_range
               {
                 bound = a.a_bound;
                 required = a.a_required;
                 product =
                   (match
                      Modint.Crt.make
                        (Array.of_list
                           (take Modint.max_moduli thirteen_bit_primes))
                    with
                   | Ok crt -> Modint.Crt.product crt
                   | Error _ -> 0);
               }))

let m p = p.mout
let r p = p.rr
let tile p = p.tile_
let basis p = Array.copy p.basis_
let denom p = p.denom_
let bound p = p.bound_
let required p = p.required_
let product p = Modint.Crt.product p.crt

let describe p =
  let bs, gs, ats = p.scales in
  let prod = product p in
  Printf.sprintf
    "F(%d,%d) RNS plan: tile %dx%d, lift scales bt=%d g=%d at=%d (denom \
     %d), basis [%s] (%d moduli, product %d), |Y| bound %d, required %d, \
     margin x%.2f, proven for cin<=%d |x|<=%d |w|<=%d"
    p.mout p.rr p.tile_ p.tile_ bs gs ats p.denom_
    (String.concat "; " (Array.to_list (Array.map string_of_int p.basis_)))
    (Array.length p.basis_) prod p.bound_ p.required_
    (float_of_int prod /. float_of_int p.required_)
    p.cin_max p.xmax p.wmax

(* ---------- per-modulus tap-major driver ---------- *)

let check_range name data limit =
  let n = Array.length data in
  let bad = ref (-1) in
  for i = 0 to n - 1 do
    if !bad < 0 && abs data.(i) > limit then bad := i
  done;
  if !bad >= 0 then
    raise
      (Rns_error
         (Out_of_range
            (Printf.sprintf
               "Rns.conv2d: %s value %d at flat index %d exceeds the \
                planned |%s| <= %d"
               name
               data.(!bad)
               !bad name limit)))

let conv2d p ?(epilogue = Kernels.no_epilogue) ?out ?(pad = 0) ~x ~w () =
  let n = Itensor.dim x 0 and cin = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and wd = Itensor.dim x 3 in
  let cout = Itensor.dim w 0 in
  let t = p.tile_ and m = p.mout in
  let r = p.rr in
  if Itensor.dim w 1 <> cin then
    invalid_arg "Rns.conv2d: channel mismatch";
  if Itensor.dim w 2 <> r || Itensor.dim w 3 <> r then
    invalid_arg "Rns.conv2d: kernel size mismatch";
  if cin > p.cin_max then
    raise
      (Rns_error
         (Out_of_range
            (Printf.sprintf
               "Rns.conv2d: %d input channels but the range proof covers \
                only %d"
               cin p.cin_max)));
  check_range "x" x.Itensor.data p.xmax;
  check_range "w" w.Itensor.data p.wmax;
  let ho, wo = Shape.conv2d_out ~h ~w:wd ~kh:r ~kw:r ~stride:1 ~pad in
  let tt = t * t and mm = m * m in
  let out =
    match out with
    | None -> Itensor.zeros [| n; cout; ho; wo |]
    | Some o ->
        if
          Itensor.dim o 0 <> n || Itensor.dim o 1 <> cout
          || Itensor.dim o 2 <> ho || Itensor.dim o 3 <> wo
        then invalid_arg "Rns.conv2d: out shape mismatch";
        o
  in
  let od = out.Itensor.data in
  let basis = p.basis_ and nmod = Array.length p.basis_ in
  let denom = p.denom_ in
  (* Panel [q·t² + tap] holds modulus [q]'s residues of [tap]: the exact
     lifted transform runs once per tile/filter and is reduced into every
     modulus on its way into the panels. *)
  let residues xt dst base stride =
    for q = 0 to nmod - 1 do
      let pq = basis.(q) in
      for tap = 0 to tt - 1 do
        dst.(base + (((q * tt) + tap) * stride)) <- Modint.reduce xt.(tap) pq
      done
    done
  in
  (* The per-panel GEMMs accumulate residue products lazily (the plan
     proved cin·p² fits a native int).  Gather: per-modulus output
     transform on residues, then one CRT reconstruction + denominator
     divide-off per output pixel, fused with the epilogue.  Once a
     channel's transforms are done, [yw] and [tmp] are free and hold the
     pixel's residues and Garner digits. *)
  Kernels.tap_major Kernels.i32_lane Kernels.i32_lane p.ker_int
    ~panels:(nmod * tt) ~pad ~x:x.Itensor.data ~n ~cin ~h ~w:wd ~cout
    ~weights:(Kernels.Filters (w.Itensor.data, residues))
    ~gather:(fun mo off stride yw yo tmp obase rh rw ->
      let digits = Some tmp in
      for co = 0 to cout - 1 do
        for q = 0 to nmod - 1 do
          let pq = basis.(q) in
          for tap = 0 to tt - 1 do
            let pt = (q * tt) + tap in
            yw.(pt) <- mo.(off + (pt * stride) + co) mod pq
          done;
          p.out_k.(q).Kernels.output yw (q * tt) yo (q * mm) tmp
        done;
        for dy = 0 to rh - 1 do
          let orow = obase + (((co * ho) + dy) * wo) and yrow = dy * m in
          for dx = 0 to rw - 1 do
            for q = 0 to nmod - 1 do
              yw.(q) <- yo.((q * mm) + yrow + dx) mod basis.(q)
            done;
            let raw = Modint.Crt.reconstruct p.crt ?digits yw in
            (* The Winograd identity guarantees Y = denom·y exactly;
               assert rather than truncate. *)
            assert (raw mod denom = 0);
            Kernels.epilogue_store epilogue od (orow + dx) (raw / denom)
          done
        done
      done)
    ();
  out
