(* Bit-exactness of the RNS Winograd backend against the direct integer
   convolution ([Oracle.direct_int]), the typed range-proof rejections,
   basis suggestion, and the runtime range contract. *)

module Parallel = Twq_util.Parallel
module Rng = Twq_util.Rng
module Itensor = Twq_tensor.Itensor
module Transform = Twq_winograd.Transform
module Kernels = Twq_winograd.Kernels
module Conv = Twq_winograd.Conv
module Rns = Twq_winograd.Rns

let itensor = Alcotest.testable Itensor.pp Itensor.equal
let qt = QCheck_alcotest.to_alcotest

let with_domains n f =
  Parallel.set_num_domains n;
  Fun.protect ~finally:(fun () -> Parallel.clear_num_domains_override ()) f

let itensor_of_rng rng shape lim =
  Itensor.init shape (fun _ -> Rng.int rng ((2 * lim) + 1) - lim)

(* --------------------------------------------------- F(6,3) bit-exact *)

(* Random shapes deliberately straddle the GEMM register blocks
   (cin/cout in 1..5 vs MR=NR=4), single-tile images (h,w < 8 at m=6),
   both pad settings, and 1 vs 4 domains.  Batches of 1..2 images up to
   20×20 give several tile blocks, often with a partial trailing one. *)
let prop_f6_bit_exact =
  QCheck.Test.make ~count:40
    ~name:"F(6,3) RNS == direct integer conv (random shapes, domains)"
    QCheck.(
      pair
        (quad (int_range 0 100000) (int_range 3 20) (int_range 3 20)
           (int_range 0 1))
        (int_range 1 2))
    (fun ((seed, h, w, pad), n) ->
      let rng = Rng.create seed in
      let cin = 1 + Rng.int rng 5 and cout = 1 + Rng.int rng 5 in
      let nd = if Rng.int rng 2 = 0 then 1 else 4 in
      let x = itensor_of_rng rng [| n; cin; h; w |] 4 in
      let wt = itensor_of_rng rng [| cout; cin; 3; 3 |] 4 in
      let plan =
        Rns.plan_exn ~m:6 ~r:3 ~basis:[ 8191; 8179; 8171 ] ~cin ~xmax:4
          ~wmax:4 ()
      in
      with_domains nd (fun () ->
          Itensor.equal
            (Oracle.direct_int ~pad ~x ~w:wt ())
            (Rns.conv2d plan ~pad ~x ~w:wt ())))

(* Same plan on a batch of two ragged images, against the direct oracle
   and the packed exact-int driver [Kernels.conv2d_i32_exact]. *)
let test_f6_matches_i32_exact () =
  let rng = Rng.create 42 in
  let cin = 3 and cout = 5 in
  let x = itensor_of_rng rng [| 2; cin; 13; 11 |] 4 in
  let w = itensor_of_rng rng [| cout; cin; 3; 3 |] 4 in
  let plan =
    Rns.plan_exn ~m:6 ~r:3 ~basis:[ 8191; 8179; 8171 ] ~cin ~xmax:4 ~wmax:4 ()
  in
  let got = Rns.conv2d plan ~pad:1 ~x ~w () in
  Alcotest.check itensor "F6 rns == direct int" (Oracle.direct_int ~pad:1 ~x ~w ())
    got;
  let s =
    Transform.bt_scale Transform.F6
    * Transform.g_scale Transform.F6
    * Transform.at_scale Transform.F6
  in
  Alcotest.check itensor "F6 rns == i32_exact"
    (Kernels.conv2d_i32_exact (Kernels.i32_specialized Transform.F6)
       ~scale2:(s * s) ~pad:1 ~x ~w)
    got

(* ------------------------------------------- other tiles / other bases *)

(* F(2,3) carries full int8 ranges on just two 13-bit moduli. *)
let prop_f2_full_int8_two_moduli =
  QCheck.Test.make ~count:30 ~name:"F(2,3) RNS, 2-modulus basis, full int8"
    QCheck.(pair (int_range 0 100000) (int_range 0 1))
    (fun (seed, pad) ->
      let rng = Rng.create seed in
      let h = 3 + Rng.int rng 8 and w = 3 + Rng.int rng 8 in
      let cin = 1 + Rng.int rng 4 and cout = 1 + Rng.int rng 4 in
      let x = itensor_of_rng rng [| 1; cin; h; w |] 128 in
      let wt = itensor_of_rng rng [| cout; cin; 3; 3 |] 128 in
      let plan = Rns.plan_exn ~m:2 ~r:3 ~basis:[ 8191; 8179 ] ~cin () in
      Itensor.equal
        (Oracle.direct_int ~pad ~x ~w:wt ())
        (Rns.conv2d plan ~pad ~x ~w:wt ()))

(* F(4,3) on the paper's 8-bit prime basis (narrow value ranges). *)
let test_f4_paper_basis () =
  let rng = Rng.create 7 in
  let cin = 3 and cout = 4 in
  let x = itensor_of_rng rng [| 1; cin; 10; 10 |] 5 in
  let w = itensor_of_rng rng [| cout; cin; 3; 3 |] 5 in
  let plan =
    Rns.plan_exn ~m:4 ~r:3 ~basis:Rns.default_basis ~cin ~xmax:5 ~wmax:5 ()
  in
  Alcotest.check itensor "F4 rns on 251/241/239"
    (Oracle.direct_int ~pad:1 ~x ~w ())
    (Rns.conv2d plan ~pad:1 ~x ~w ())

(* ------------------------------------------------------ typed rejection *)

let test_insufficient_range () =
  match Rns.plan ~m:6 ~r:3 ~basis:Rns.default_basis ~cin:8 () with
  | Ok _ -> Alcotest.fail "F(6,3) int8 must reject the 8-bit paper basis"
  | Error (Rns.Insufficient_range { bound; required; product }) ->
      Alcotest.(check bool) "bound positive" true (bound > 0);
      Alcotest.(check int) "required = 2*bound+1" ((2 * bound) + 1) required;
      Alcotest.(check int) "product is 251*241*239" (251 * 241 * 239) product;
      Alcotest.(check bool) "product too small" true (product < required)
  | Error e -> Alcotest.fail ("unexpected error: " ^ Rns.error_to_string e)

let test_bad_basis () =
  (match Rns.plan ~m:4 ~r:3 ~basis:[ 251; 502 ] ~cin:1 ~xmax:1 ~wmax:1 () with
  | Error (Rns.Bad_basis _) -> ()
  | _ -> Alcotest.fail "non-coprime basis must be rejected as Bad_basis");
  (match Rns.plan ~m:4 ~r:3 ~basis:[] ~cin:1 ~xmax:1 ~wmax:1 () with
  | Error (Rns.Bad_basis _) -> ()
  | _ -> Alcotest.fail "empty basis must be rejected as Bad_basis");
  match Rns.plan ~m:4 ~r:3 ~basis:[ 9001; 7 ] ~cin:1 ~xmax:1 ~wmax:1 () with
  | Error (Rns.Bad_basis _) -> ()
  | _ -> Alcotest.fail "out-of-range modulus must be rejected as Bad_basis"

let test_out_of_range_runtime () =
  let plan =
    Rns.plan_exn ~m:6 ~r:3 ~basis:[ 8191; 8179; 8171 ] ~cin:2 ~xmax:4 ~wmax:4
      ()
  in
  let x = Itensor.init [| 1; 2; 8; 8 |] (fun _ -> 100) in
  let w = Itensor.init [| 1; 2; 3; 3 |] (fun _ -> 1) in
  (match Rns.conv2d plan ~pad:1 ~x ~w () with
  | exception Rns.Rns_error (Rns.Out_of_range _) -> ()
  | _ -> Alcotest.fail "x value outside |x| <= 4 must raise Out_of_range");
  let x3 = Itensor.init [| 1; 3; 8; 8 |] (fun _ -> 1) in
  let w3 = Itensor.init [| 1; 3; 3; 3 |] (fun _ -> 1) in
  match Rns.conv2d plan ~pad:1 ~x:x3 ~w:w3 () with
  | exception Rns.Rns_error (Rns.Out_of_range _) -> ()
  | _ -> Alcotest.fail "cin above the proven bound must raise Out_of_range"

(* ------------------------------------------------------ basis suggestion *)

let test_suggest_basis () =
  (match Rns.suggest_basis ~m:4 ~r:3 ~cin:3 ~xmax:5 ~wmax:5 () with
  | Ok b ->
      Alcotest.(check (list int)) "F4 narrow -> paper basis" Rns.default_basis b
  | Error e -> Alcotest.fail (Rns.error_to_string e));
  match Rns.suggest_basis ~m:6 ~r:3 ~cin:64 () with
  | Error e -> Alcotest.fail (Rns.error_to_string e)
  | Ok b ->
      Alcotest.(check bool) "all 8-bit" true (List.for_all (fun p -> p < 256) b);
      let plan = Rns.plan_exn ~m:6 ~r:3 ~basis:b ~cin:64 () in
      Alcotest.(check bool)
        "product passes the proof" true
        (Rns.product plan >= Rns.required plan)

let test_describe () =
  let plan = Rns.plan_exn ~m:6 ~r:3 ~basis:[ 8191; 8179; 8171 ] ~cin:4 ~xmax:4 ~wmax:4 () in
  let s = Rns.describe plan in
  Alcotest.(check int) "tile" 8 (Rns.tile plan);
  Alcotest.(check int) "m" 6 (Rns.m plan);
  Alcotest.(check int) "r" 3 (Rns.r plan);
  Alcotest.(check int) "moduli" 3 (Array.length (Rns.basis plan));
  (* F(6,3) lavin lift scales: bt 4, g 90, at 32 -> denom 11520^2. *)
  Alcotest.(check int) "denom" (11520 * 11520) (Rns.denom plan);
  Alcotest.(check bool) "nonempty" true (String.length s > 40)

(* ------------------------------------------------- wrapper and epilogue *)

let test_conv2d_int_rns_wrapper () =
  let rng = Rng.create 11 in
  let x = itensor_of_rng rng [| 1; 4; 12; 12 |] 4 in
  let w = itensor_of_rng rng [| 3; 4; 3; 3 |] 4 in
  Alcotest.check itensor "Conv.conv2d_int_rns auto-basis"
    (Oracle.direct_int ~pad:1 ~x ~w ())
    (Conv.conv2d_int_rns ~m:6 ~r:3 ~pad:1 ~x ~w ())

let test_relu_epilogue () =
  let rng = Rng.create 13 in
  let x = itensor_of_rng rng [| 1; 2; 9; 9 |] 4 in
  let w = itensor_of_rng rng [| 2; 2; 3; 3 |] 4 in
  let plan =
    Rns.plan_exn ~m:6 ~r:3 ~basis:[ 8191; 8179; 8171 ] ~cin:2 ~xmax:4 ~wmax:4
      ()
  in
  let direct = Oracle.direct_int ~pad:1 ~x ~w () in
  let expect = Itensor.init direct.Itensor.shape (fun idx ->
      max 0 (Itensor.get4 direct idx.(0) idx.(1) idx.(2) idx.(3)))
  in
  let got =
    Rns.conv2d plan
      ~epilogue:{ Kernels.relu = true; add = None }
      ~pad:1 ~x ~w ()
  in
  Alcotest.check itensor "fused relu" expect got

let () =
  Alcotest.run "rns"
    [
      ( "bit-exact",
        [
          qt prop_f6_bit_exact;
          Alcotest.test_case "F6 vs i32_exact_ref" `Quick
            test_f6_matches_i32_exact;
          qt prop_f2_full_int8_two_moduli;
          Alcotest.test_case "F4 paper basis" `Quick test_f4_paper_basis;
        ] );
      ( "range-proof",
        [
          Alcotest.test_case "insufficient range" `Quick
            test_insufficient_range;
          Alcotest.test_case "bad basis" `Quick test_bad_basis;
          Alcotest.test_case "runtime out-of-range" `Quick
            test_out_of_range_runtime;
          Alcotest.test_case "suggest basis" `Quick test_suggest_basis;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "integration",
        [
          Alcotest.test_case "Conv.conv2d_int_rns" `Quick
            test_conv2d_int_rns_wrapper;
          Alcotest.test_case "relu epilogue" `Quick test_relu_epilogue;
        ] );
    ]
