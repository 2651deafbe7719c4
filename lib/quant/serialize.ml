module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Transform = Twq_winograd.Transform

(* ------------------------------------------------------------- writers *)

let write_shape buf shape =
  Buffer.add_string buf (string_of_int (Array.length shape));
  Array.iter (fun d -> Buffer.add_string buf (" " ^ string_of_int d)) shape;
  Buffer.add_char buf '\n'

let write_tensor buf (t : Tensor.t) =
  write_shape buf t.Tensor.shape;
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h " v)) t.Tensor.data;
  Buffer.add_char buf '\n'

let write_itensor buf (t : Itensor.t) =
  write_shape buf t.Itensor.shape;
  Array.iter (fun v -> Buffer.add_string buf (string_of_int v ^ " ")) t.Itensor.data;
  Buffer.add_char buf '\n'

let write_grid buf (g : float array array) =
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Array.length g) (Array.length g.(0)));
  Array.iter
    (fun row ->
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h " v)) row;
      Buffer.add_char buf '\n')
    g

(* ---------------------------------------------------- validating reader *)

type error = { offset : int; message : string }

exception Parse_failure of error

let error_to_string e =
  Printf.sprintf "byte %d: %s" e.offset e.message

type reader = { src : string; mutable pos : int }

let reader_of_string src = { src; pos = 0 }
let reader_pos r = r.pos
let parse_fail r message = raise (Parse_failure { offset = r.pos; message })
let fail_at offset message = raise (Parse_failure { offset; message })

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let read_word r =
  let len = String.length r.src in
  while r.pos < len && is_ws r.src.[r.pos] do
    r.pos <- r.pos + 1
  done;
  if r.pos >= len then parse_fail r "unexpected end of input";
  let start = r.pos in
  while r.pos < len && not (is_ws r.src.[r.pos]) do
    r.pos <- r.pos + 1
  done;
  String.sub r.src start (r.pos - start)

let read_int r =
  let start = r.pos in
  let w = read_word r in
  match int_of_string_opt w with
  | Some v -> v
  | None -> fail_at start (Printf.sprintf "expected integer, got %S" w)

let read_float r =
  let start = r.pos in
  let w = read_word r in
  match float_of_string_opt w with
  | Some v -> v
  | None -> fail_at start (Printf.sprintf "expected float, got %S" w)

let read_bool r =
  let start = r.pos in
  match read_word r with
  | "true" -> true
  | "false" -> false
  | w -> fail_at start (Printf.sprintf "expected bool, got %S" w)

let expect r token =
  let start = r.pos in
  let w = read_word r in
  if w <> token then
    fail_at start (Printf.sprintf "expected %S, got %S" token w)

let read_int_in r ~what lo hi =
  let start = r.pos in
  let v = read_int r in
  if v < lo || v > hi then
    fail_at start (Printf.sprintf "%s %d out of range [%d, %d]" what v lo hi);
  v

let read_finite_scale r ~what =
  let start = r.pos in
  let v = read_float r in
  if not (Float.is_finite v) || v <= 0.0 then
    fail_at start (Printf.sprintf "%s must be a positive finite float" what);
  v

let remaining r = String.length r.src - r.pos

(* Element counts are validated against the number of bytes left in the
   input before anything is allocated: every serialized element costs at
   least two bytes (value + separator), so a malformed header cannot make
   us allocate huge arrays or overflow the element product. *)
let max_rank = 8

let read_count r ~what n_dims read_dim =
  let budget = remaining r in
  let total = ref 1 in
  let dims =
    Array.init n_dims (fun _ ->
        let start = r.pos in
        let d = read_dim () in
        if d <= 0 then
          fail_at start (Printf.sprintf "%s dimension %d must be positive" what d);
        if d > budget || !total > budget / d then
          fail_at start (Printf.sprintf "%s larger than remaining input" what);
        total := !total * d;
        d)
  in
  (dims, !total)

let read_shape r =
  let rank_start = r.pos in
  let rank = read_int r in
  if rank < 1 || rank > max_rank then
    fail_at rank_start (Printf.sprintf "invalid tensor rank %d" rank);
  let shape, numel = read_count r ~what:"tensor" rank (fun () -> read_int r) in
  (shape, numel)

let read_tensor r =
  let shape, numel = read_shape r in
  let data = Array.init numel (fun _ -> read_float r) in
  Tensor.of_array shape data

let read_itensor r =
  let shape, numel = read_shape r in
  let data = Array.init numel (fun _ -> read_int r) in
  Itensor.of_array shape data

let read_grid r =
  let dims, _ = read_count r ~what:"grid" 2 (fun () -> read_int r) in
  Array.init dims.(0) (fun _ -> Array.init dims.(1) (fun _ -> read_float r))

let read_scale_grid r ~what ~t =
  let start = r.pos in
  let g = read_grid r in
  if Array.length g <> t || Array.length g.(0) <> t then
    fail_at start
      (Printf.sprintf "%s grid is %dx%d, expected %dx%d" what (Array.length g)
         (Array.length g.(0)) t t);
  Array.iter
    (Array.iter (fun v ->
         if not (Float.is_finite v) || v <= 0.0 then
           fail_at start (what ^ " grid entries must be positive finite floats")))
    g;
  g

(* ------------------------------------------------------ tapwise layers *)

let granularity_name = function
  | Tapwise.Single_scale -> "single"
  | Tapwise.Tap_wise -> "tap"
  | Tapwise.Channel_tap_wise -> "channel-tap"

let granularity_of_name r = function
  | "single" -> Tapwise.Single_scale
  | "tap" -> Tapwise.Tap_wise
  | "channel-tap" -> Tapwise.Channel_tap_wise
  | s -> parse_fail r (Printf.sprintf "unknown granularity %S" s)

let variant_of_name r = function
  | "F2" -> Transform.F2
  | "F4" -> Transform.F4
  | "F6" -> Transform.F6
  | s -> parse_fail r (Printf.sprintf "unknown variant %S" s)

let layer_to_string (l : Tapwise.layer) =
  let buf = Buffer.create 4096 in
  let c = l.Tapwise.config in
  Buffer.add_string buf "tapwise-layer v1\n";
  (* The [true] token is the retired pow2 flag: every layer has pow2
     scales, and the token keeps the format unchanged. *)
  Buffer.add_string buf
    (Printf.sprintf "config %s %d %d true %s\n"
       (Transform.name c.Tapwise.variant)
       c.Tapwise.act_bits c.Tapwise.wino_bits
       (granularity_name c.Tapwise.granularity));
  Buffer.add_string buf
    (Printf.sprintf "scales %d %h %h %h\n" l.Tapwise.pad l.Tapwise.s_x
       l.Tapwise.s_w l.Tapwise.s_y);
  write_grid buf l.Tapwise.s_b;
  write_grid buf l.Tapwise.s_g;
  (match l.Tapwise.s_g_channel with
  | None -> Buffer.add_string buf "per-channel 0\n"
  | Some grids ->
      Buffer.add_string buf (Printf.sprintf "per-channel %d\n" (Array.length grids));
      Array.iter (write_grid buf) grids);
  write_itensor buf l.Tapwise.wq;
  (match l.Tapwise.bias with
  | None -> Buffer.add_string buf "bias 0\n"
  | Some b ->
      Buffer.add_string buf "bias 1\n";
      write_tensor buf b);
  Buffer.contents buf

(* Stored weights must lie in the range [Quantizer.quantize ~bits]
   produces: a wider one would wrap the int accumulators of the GEMMs
   and of the oracle alike.  [wq] is [cout; cin; kh; kw]; [what] names
   the position within a kernel (a Winograd tap or a spatial offset). *)
let check_weight_range ~start ~bits ~what (wq : Itensor.t) =
  let lo = Quantizer.qmin ~bits and hi = Quantizer.qmax ~bits in
  let cin = Itensor.dim wq 1 and kh = Itensor.dim wq 2 and kw = Itensor.dim wq 3 in
  let d = wq.Itensor.data in
  for idx = 0 to Array.length d - 1 do
    let v = d.(idx) in
    if v < lo || v > hi then
      let pos = idx mod (kh * kw) and c = idx / (kh * kw) in
      fail_at start
        (Printf.sprintf
           "weight %d at output channel %d, input channel %d, %s (%d,%d) \
            is outside the %d-bit range [%d, %d]"
           v (c / cin) (c mod cin) what (pos / kw) (pos mod kw) bits lo hi)
  done

let read_bias_flag r =
  expect r "bias";
  match read_int_in r ~what:"bias flag" 0 1 with
  | 1 -> Some (read_tensor r)
  | _ -> None

let read_layer_body r =
  expect r "config";
  let variant = variant_of_name r (read_word r) in
  let act_bits = read_int_in r ~what:"act_bits" 1 30 in
  let wino_bits = read_int_in r ~what:"wino_bits" 1 30 in
  let pow2_start = r.pos in
  if not (read_bool r) then
    fail_at pow2_start
      "pow2 false is not supported: the integer datapath requires \
       power-of-two tap scales";
  let granularity = granularity_of_name r (read_word r) in
  let config = { Tapwise.variant; act_bits; wino_bits; granularity } in
  let t = Transform.t variant in
  expect r "scales";
  let pad = read_int_in r ~what:"pad" 0 64 in
  let s_x = read_finite_scale r ~what:"s_x" in
  let s_w = read_finite_scale r ~what:"s_w" in
  let s_y = read_finite_scale r ~what:"s_y" in
  let s_b_start = r.pos in
  let s_b = read_scale_grid r ~what:"s_b" ~t in
  (* The forward requantizes each input tap with a shift of
     log2 (s_b/s_x); an inexact ratio would be silently rounded. *)
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          let mant, e = Float.frexp (v /. s_x) in
          if mant <> 0.5 || Float.ldexp s_x (e - 1) <> v then
            fail_at s_b_start
              (Printf.sprintf
                 "tap scale s_b(%d,%d) = %h is not a power-of-two multiple \
                  of s_x = %h"
                 i j v s_x))
        row)
    s_b;
  (* The gather folds s_b·s_g into one rescale at [Tapwise.pack], which
     is exact only when every weight tap scale is a power of two. *)
  let read_pow2_grid ~what =
    let start = r.pos in
    let g = read_scale_grid r ~what ~t in
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j v ->
            if fst (Float.frexp v) <> 0.5 then
              fail_at start
                (Printf.sprintf
                   "weight tap scale %s(%d,%d) = %h is not a power of two"
                   what i j v))
          row)
      g;
    g
  in
  let s_g = read_pow2_grid ~what:"s_g" in
  expect r "per-channel";
  let n_channel_start = r.pos in
  let n_channel = read_int r in
  if n_channel < 0 || n_channel > remaining r then
    fail_at n_channel_start "invalid per-channel count";
  let s_g_channel =
    if n_channel = 0 then None
    else Some (Array.init n_channel (fun _ -> read_pow2_grid ~what:"s_g_channel"))
  in
  let wq_start = r.pos in
  let wq = read_itensor r in
  if Array.length wq.Itensor.shape <> 4 then
    fail_at wq_start "quantized weights must have rank 4";
  if Itensor.dim wq 2 <> t || Itensor.dim wq 3 <> t then
    fail_at wq_start
      (Printf.sprintf "quantized weight taps are %dx%d, expected %dx%d"
         (Itensor.dim wq 2) (Itensor.dim wq 3) t t);
  check_weight_range ~start:wq_start ~bits:wino_bits ~what:"tap" wq;
  (match s_g_channel with
  | Some grids when Array.length grids <> Itensor.dim wq 0 ->
      fail_at wq_start
        (Printf.sprintf "%d per-channel grids for %d output channels"
           (Array.length grids) (Itensor.dim wq 0))
  | _ -> ());
  let bias = read_bias_flag r in
  (match bias with
  | Some b when Tensor.numel b <> Itensor.dim wq 0 ->
      parse_fail r "bias length does not match output channels"
  | _ -> ());
  { Tapwise.config; pad; s_x; s_w; s_y; s_b; s_g; s_g_channel; wq; bias }

(* ------------------------------------------------------- spatial layers *)

let qconv_to_buffer buf (l : Qconv.layer) =
  Buffer.add_string buf "qconv-layer v1\n";
  Buffer.add_string buf
    (Printf.sprintf "params %d %d %d %h %h %h\n" l.Qconv.act_bits l.Qconv.stride
       l.Qconv.pad l.Qconv.s_x l.Qconv.s_w l.Qconv.s_y);
  (match l.Qconv.s_w_channel with
  | None -> Buffer.add_string buf "per-channel 0\n"
  | Some s ->
      Buffer.add_string buf (Printf.sprintf "per-channel %d\n" (Array.length s));
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h " v)) s;
      Buffer.add_char buf '\n');
  write_itensor buf l.Qconv.wq;
  match l.Qconv.bias with
  | None -> Buffer.add_string buf "bias 0\n"
  | Some b ->
      Buffer.add_string buf "bias 1\n";
      write_tensor buf b

let read_qconv_body r =
  expect r "params";
  let act_bits = read_int_in r ~what:"act_bits" 1 30 in
  let stride = read_int_in r ~what:"stride" 1 64 in
  let pad = read_int_in r ~what:"pad" 0 64 in
  let s_x = read_finite_scale r ~what:"s_x" in
  let s_w = read_finite_scale r ~what:"s_w" in
  let s_y = read_finite_scale r ~what:"s_y" in
  expect r "per-channel";
  let n_channel_start = r.pos in
  let n_channel = read_int r in
  if n_channel < 0 || n_channel > remaining r then
    fail_at n_channel_start "invalid per-channel count";
  let s_w_channel =
    if n_channel = 0 then None
    else
      Some
        (Array.init n_channel (fun _ -> read_finite_scale r ~what:"s_w_channel"))
  in
  let wq_start = r.pos in
  let wq = read_itensor r in
  if Array.length wq.Itensor.shape <> 4 then
    fail_at wq_start "quantized weights must have rank 4";
  check_weight_range ~start:wq_start ~bits:act_bits ~what:"offset" wq;
  (match s_w_channel with
  | Some s when Array.length s <> Itensor.dim wq 0 ->
      fail_at wq_start
        (Printf.sprintf "%d per-channel scales for %d output channels"
           (Array.length s) (Itensor.dim wq 0))
  | _ -> ());
  let bias = read_bias_flag r in
  (match bias with
  | Some b when Tensor.numel b <> Itensor.dim wq 0 ->
      parse_fail r "bias length does not match output channels"
  | _ -> ());
  { Qconv.act_bits; stride; pad; s_x; s_w; s_w_channel; s_y; wq; bias }

(* ----------------------------------------------------------- top level *)

(* Constructor sanity checks ([Tensor.of_array], [Shape.validate]) are a
   second line of defence behind the reader's own validation; fold them
   into the typed error rather than letting them escape. *)
let protect r f =
  match f () with
  | v -> Ok v
  | exception Parse_failure e -> Error e
  | exception (Invalid_argument m | Failure m) ->
      Error { offset = r.pos; message = m }

let layer_of_string_result s =
  let r = reader_of_string s in
  protect r (fun () ->
      expect r "tapwise-layer";
      expect r "v1";
      read_layer_body r)

let qconv_of_string_result s =
  let r = reader_of_string s in
  protect r (fun () ->
      expect r "qconv-layer";
      expect r "v1";
      read_qconv_body r)

let lift_error = function
  | Ok v -> v
  | Error e -> failwith ("Serialize: " ^ error_to_string e)

let layer_of_string s = lift_error (layer_of_string_result s)
let qconv_of_string s = lift_error (qconv_of_string_result s)

let qconv_to_string l =
  let buf = Buffer.create 2048 in
  qconv_to_buffer buf l;
  Buffer.contents buf

let save_layer path layer =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (layer_to_string layer))

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let load_layer_result path =
  match read_whole_file path with
  | s -> layer_of_string_result s
  | exception Sys_error msg -> Error { offset = 0; message = msg }

let load_layer path = lift_error (load_layer_result path)
