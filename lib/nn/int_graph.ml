module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops
module Transform = Twq_winograd.Transform
module Tapwise = Twq_quant.Tapwise
module Qconv = Twq_quant.Qconv
module Quantizer = Twq_quant.Quantizer

type node = Plan.node = { prim : Plan.prim; inputs : int list; scale : float }
type t = { nodes : node array; out : int; plans : Plan.cache }

(* [Tapwise]'s input contract: a Winograd layer's input lies within its
   act_bits, which its scatter range proof assumes.  Each node's output
   width in signed bits: the input quantizes at 8 bits, a conv saturates
   at its act_bits, an add at 8, and no other op widens its operands. *)
let check_input_widths nodes =
  let bits = Array.make (Array.length nodes) 0 in
  Array.iteri
    (fun i { prim; inputs; _ } ->
      let widest = List.fold_left (fun a j -> max a bits.(j)) 0 inputs in
      bits.(i) <-
        (match prim with
        | Plan.P_quantize _ | P_add _ -> 8
        | P_wino p ->
            let a = (Tapwise.packed_layer p).config.act_bits in
            if a < widest then
              invalid_arg
                (Printf.sprintf
                   "Int_graph: node %d: act_bits %d is narrower than its \
                    %d-bit input"
                   i a widest);
            a
        | P_spatial p -> (Qconv.packed_layer p).act_bits
        | P_relu | P_leaky _ | P_max_pool _ | P_avg_pool2 | P_upsample _
        | P_concat _ | P_head _ ->
            widest))
    nodes

(* Every graph has a head at [out] ([quantize] builds one, [of_string]
   rejects files without one), so every graph runs a compiled plan. *)
let make nodes out =
  check_input_widths nodes;
  { nodes; out; plans = Plan.cache nodes ~out }

let plans t = Some t.plans
let plan t ~input_shape = Plan.plan t.plans ~input_shape

type link = Wino of Tapwise.layer | Relu | Avg_pool2

(* A linear chain input → links → head.  Each node carries the scale of
   the last Winograd layer at or before it, which is also the head's. *)
let chain ~input_scale links ~w ~bias =
  let input =
    { prim = Plan.P_quantize input_scale; inputs = []; scale = input_scale }
  in
  let nodes, scale =
    List.fold_left
      (fun (nodes, scale) link ->
        let prim, scale =
          match link with
          | Wino l -> (Plan.P_wino (Tapwise.pack l), l.Tapwise.s_y)
          | Relu -> (Plan.P_relu, scale)
          | Avg_pool2 -> (Plan.P_avg_pool2, scale)
        in
        ({ prim; inputs = [ List.length nodes - 1 ]; scale } :: nodes, scale))
      ([ input ], input_scale) links
  in
  let last = List.length nodes - 1 in
  let head =
    { prim = Plan.P_head { w; bias; in_scale = scale }; inputs = [ last ]; scale = 1.0 }
  in
  make (Array.of_list (List.rev (head :: nodes))) (last + 1)

let pow2_scale ~bits x_max =
  Quantizer.pow2_round_up (Quantizer.scale_for ~bits ~max_abs:(Float.max 1e-9 x_max))

let log2_ratio a b =
  let k = Float.log2 (a /. b) in
  let r = Float.round k in
  if Float.abs (k -. r) > 1e-9 then
    invalid_arg "Int_graph: scales are not power-of-two aligned";
  int_of_float r

let quantize g ~calibration ?(variant = Transform.F4) ?(wino_bits = 8) () =
  let values = Graph.run_all g calibration in
  let nodes = Graph.nodes g in
  let n = List.length nodes in
  let inodes = Array.make n None in
  let scale_of j =
    match inodes.(j) with Some i -> i.scale | None -> assert false
  in
  List.iter
    (fun ((id : Graph.id), { Graph.op; inputs }) ->
      let id = (id :> int) in
      let inputs = (inputs :> int list) in
      let cal_out = values.(id) in
      let inode =
        match op with
        | Graph.Input ->
            let s = pow2_scale ~bits:8 (Tensor.max_abs cal_out) in
            { prim = Plan.P_quantize s; inputs = []; scale = s }
        | Graph.Conv { w; bias; stride; pad } ->
            let src = List.hd inputs in
            let in_scale = scale_of src in
            let cal_in = values.(src) in
            if Tensor.dim w 2 = 3 && Tensor.dim w 3 = 3 && stride = 1 then begin
              let config =
                { (Tapwise.default_config variant) with Tapwise.wino_bits }
              in
              let layer =
                Tapwise.calibrate ~config ~w ?bias ~input_scale:in_scale
                  ~sample_inputs:[ cal_in ] ~pad ()
              in
              { prim = Plan.P_wino (Tapwise.pack layer); inputs; scale = layer.Tapwise.s_y }
            end
            else begin
              let layer =
                Qconv.calibrate ~pow2:true ~w ?bias ~input_scale:in_scale
                  ~sample_inputs:[ cal_in ] ~stride ~pad ()
              in
              { prim = Plan.P_spatial (Qconv.pack layer); inputs; scale = layer.Qconv.s_y }
            end
        | Graph.Bn _ ->
            invalid_arg "Int_graph.quantize: run Passes.fold_bn first"
        | Graph.Relu -> { prim = Plan.P_relu; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Leaky_relu k ->
            { prim = Plan.P_leaky k; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Max_pool { k; stride } ->
            {
              prim = Plan.P_max_pool { k; stride };
              inputs;
              scale = scale_of (List.hd inputs);
            }
        | Graph.Avg_pool { k; stride } ->
            if k <> 2 || stride <> 2 then
              invalid_arg "Int_graph.quantize: only 2x2/2 average pooling";
            { prim = Plan.P_avg_pool2; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Upsample f ->
            { prim = Plan.P_upsample f; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Add ->
            let a = List.nth inputs 0 and b = List.nth inputs 1 in
            let s_a = scale_of a and s_b = scale_of b in
            (* Common output grid from the calibrated sum range; at least as
               coarse as both operands so the alignment shifts are right
               shifts. *)
            let s_out =
              Float.max
                (pow2_scale ~bits:8 (Tensor.max_abs cal_out))
                (Float.max s_a s_b)
            in
            {
              prim =
                Plan.P_add
                  { shift_a = log2_ratio s_out s_a; shift_b = log2_ratio s_out s_b };
              inputs;
              scale = s_out;
            }
        | Graph.Concat ->
            let a = List.nth inputs 0 and b = List.nth inputs 1 in
            let s_a = scale_of a and s_b = scale_of b in
            let s_out = Float.max s_a s_b in
            {
              prim =
                Plan.P_concat
                  { shift_a = log2_ratio s_out s_a; shift_b = log2_ratio s_out s_b };
              inputs;
              scale = s_out;
            }
        | Graph.Global_avg_pool | Graph.Linear _ ->
            (* Placeholders: the head below absorbs both. *)
            { prim = Plan.P_relu; inputs; scale = scale_of (List.hd inputs) }
      in
      inodes.(id) <- Some inode)
    nodes;
  (* Patch the GAP→Linear head: find the output Linear and its GAP input. *)
  let out = (Graph.output g :> int) in
  let inodes = Array.map Option.get inodes in
  let op_of i =
    let _, n =
      List.find (fun ((id : Graph.id), _) -> (id :> int) = i) nodes
    in
    n.Graph.op
  in
  (match op_of out with
  | Graph.Linear { w; bias } -> (
      let gap = List.hd inodes.(out).inputs in
      match op_of gap with
      | Graph.Global_avg_pool ->
          let feat = List.hd inodes.(gap).inputs in
          inodes.(out) <-
            {
              prim = Plan.P_head { w; bias; in_scale = inodes.(feat).scale };
              inputs = [ feat ];
              scale = 1.0;
            }
      | _ -> invalid_arg "Int_graph.quantize: expected GAP before the head")
  | _ -> invalid_arg "Int_graph.quantize: expected a Linear output head");
  (* The head reads the feature map, so the GAP node is dead: keep only
     what the head reaches, renumbered in order. *)
  let reach = Plan.reachable inodes out in
  let kept = List.filter (fun i -> reach.(i)) (List.init n Fun.id) in
  let renum = Array.make n (-1) in
  List.iteri (fun k i -> renum.(i) <- k) kept;
  let node i =
    { (inodes.(i)) with inputs = List.map (fun j -> renum.(j)) inodes.(i).inputs }
  in
  make (Array.of_list (List.map node kept)) renum.(out)

let int_relu = Itensor.map (fun v -> Stdlib.max 0 v)

let int_leaky k =
  Itensor.map (fun v -> if v >= 0 then v else -Itensor.round_shift (-v) k)

let int_max_pool ~k ~stride x =
  let n = Itensor.dim x 0 and c = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  let ho = ((h - k) / stride) + 1 and wo = ((w - k) / stride) + 1 in
  Itensor.init [| n; c; ho; wo |] (fun idx ->
      let best = ref min_int in
      for di = 0 to k - 1 do
        for dj = 0 to k - 1 do
          best :=
            Stdlib.max !best
              (Itensor.get4 x idx.(0) idx.(1) ((stride * idx.(2)) + di)
                 ((stride * idx.(3)) + dj))
        done
      done;
      !best)

let int_avg_pool2 x =
  let n = Itensor.dim x 0 and c = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  Itensor.init [| n; c; h / 2; w / 2 |] (fun idx ->
      let s = ref 0 in
      for di = 0 to 1 do
        for dj = 0 to 1 do
          s := !s + Itensor.get4 x idx.(0) idx.(1) ((2 * idx.(2)) + di) ((2 * idx.(3)) + dj)
        done
      done;
      Itensor.round_shift !s 2)

let int_upsample f x =
  let n = Itensor.dim x 0 and c = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  Itensor.init [| n; c; h * f; w * f |] (fun idx ->
      Itensor.get4 x idx.(0) idx.(1) (idx.(2) / f) (idx.(3) / f))

let run_ref t x =
  let n = Array.length t.nodes in
  let int_values : Itensor.t option array = Array.make n None in
  (* Last consumer of each node, so dead intermediate activations are
     dropped as the interpreter walks forward — the reference stays an
     oracle but no longer retains the whole network's activations. *)
  let last_use = Array.make n (-1) in
  Array.iteri
    (fun i { inputs; _ } ->
      List.iter (fun j -> if i > last_use.(j) then last_use.(j) <- i) inputs)
    t.nodes;
  let float_out = ref None in
  Array.iteri
    (fun i { prim; inputs; _ } ->
      let arg j = Option.get int_values.(j) in
      (match prim with
      | Plan.P_quantize s ->
          int_values.(i) <- Some (Quantizer.quantize_tensor ~bits:8 ~scale:s x)
      | P_wino p ->
          int_values.(i) <-
            Some
              (Tapwise.forward_int_ref (Tapwise.packed_layer p)
                 (arg (List.hd inputs)))
      | P_spatial p ->
          int_values.(i) <-
            Some (Qconv.forward_int (Qconv.packed_layer p) (arg (List.hd inputs)))
      | P_relu -> int_values.(i) <- Some (int_relu (arg (List.hd inputs)))
      | P_leaky k -> int_values.(i) <- Some (int_leaky k (arg (List.hd inputs)))
      | P_max_pool { k; stride } ->
          int_values.(i) <- Some (int_max_pool ~k ~stride (arg (List.hd inputs)))
      | P_avg_pool2 -> int_values.(i) <- Some (int_avg_pool2 (arg (List.hd inputs)))
      | P_upsample f -> int_values.(i) <- Some (int_upsample f (arg (List.hd inputs)))
      | P_add { shift_a; shift_b } ->
          let a = arg (List.nth inputs 0) and b = arg (List.nth inputs 1) in
          int_values.(i) <-
            Some
              (Itensor.map2
                 (fun va vb ->
                   Itensor.clamp_int ~bits:8
                     (Itensor.round_shift va shift_a + Itensor.round_shift vb shift_b))
                 a b)
      | P_concat { shift_a; shift_b } ->
          let a = arg (List.nth inputs 0) and b = arg (List.nth inputs 1) in
          let a = Itensor.map (fun v -> Itensor.round_shift v shift_a) a in
          let b = Itensor.map (fun v -> Itensor.round_shift v shift_b) b in
          let n = Itensor.dim a 0 and ca = Itensor.dim a 1 in
          let cb = Itensor.dim b 1 in
          let h = Itensor.dim a 2 and w = Itensor.dim a 3 in
          int_values.(i) <-
            Some
              (Itensor.init [| n; ca + cb; h; w |] (fun idx ->
                   if idx.(1) < ca then Itensor.get4 a idx.(0) idx.(1) idx.(2) idx.(3)
                   else Itensor.get4 b idx.(0) (idx.(1) - ca) idx.(2) idx.(3)))
      | P_head { w; bias; in_scale } ->
          let feat =
            Quantizer.dequantize_tensor ~scale:in_scale (arg (List.hd inputs))
          in
          let pooled = Ops.global_avg_pool feat in
          float_out := Some (Ops.linear ~x:pooled ~w ?b:bias ()));
      List.iter
        (fun j -> if last_use.(j) = i then int_values.(j) <- None)
        inputs;
      if last_use.(i) < 0 then int_values.(i) <- None)
    t.nodes;
  match !float_out with
  | Some v -> v
  | None -> invalid_arg "Int_graph.run: graph has no head"

let run t x = Plan.run t.plans x

let noise_vs_float t g x =
  let reference = Graph.run g x in
  let quantized = run t x in
  let err = Tensor.sub reference quantized in
  sqrt (Tensor.sumsq err /. Float.max 1e-30 (Tensor.sumsq reference))

let wino_layers t =
  List.filter_map
    (fun n ->
      match n.prim with Plan.P_wino p -> Some (Tapwise.packed_layer p) | _ -> None)
    (Array.to_list t.nodes)

module Synth = Twq_dataset.Synth_images

let accuracy t split =
  let n = Array.length split in
  let correct = ref 0 and i = ref 0 in
  while !i < n do
    let size = Stdlib.min 32 (n - !i) in
    let image = split.(0).Synth.image in
    let numel = Tensor.numel image in
    let xb = Tensor.zeros (Array.append [| size |] image.Tensor.shape) in
    for bi = 0 to size - 1 do
      Array.blit split.(!i + bi).Synth.image.Tensor.data 0 xb.Tensor.data
        (bi * numel) numel
    done;
    let out = run t xb in
    for bi = 0 to size - 1 do
      if Ops.argmax_row out bi = split.(!i + bi).Synth.label then incr correct
    done;
    i := !i + size
  done;
  float_of_int !correct /. float_of_int n

let winograd_layer_count t = List.length (wino_layers t)

let spatial_layer_count t =
  Array.fold_left
    (fun a n -> match n.prim with Plan.P_spatial _ -> a + 1 | _ -> a)
    0 t.nodes

(* ------------------------------------------------------------- pruning *)

module Pruning = Twq_quant.Pruning

(* Winograd-domain magnitude pruning over the whole graph: every
   tap-wise layer's quantized Winograd weights go through
   [Pruning.prune_quantized] at the requested density and is re-packed
   — which is where the per-tap sparse/dense execution decision is
   taken from the pruned zeros.  Spatial layers and the float head are
   untouched. *)
let prune t ~density =
  let nodes =
    Array.map
      (fun n ->
        match n.prim with
        | Plan.P_wino p ->
            let l = Pruning.prune_layer (Tapwise.packed_layer p) ~density in
            { n with prim = Plan.P_wino (Tapwise.pack l) }
        | _ -> n)
      t.nodes
  in
  make nodes t.out

let winograd_density t =
  let weights = List.map (fun l -> l.Tapwise.wq.Itensor.data) (wino_layers t) in
  let total = List.fold_left (fun a d -> a + Array.length d) 0 weights in
  let nz =
    List.fold_left
      (fun a d -> Array.fold_left (fun a v -> if v <> 0 then a + 1 else a) a d)
      0 weights
  in
  if total = 0 then 1.0 else float_of_int nz /. float_of_int total

let wino_sparsity t = Plan.wino_sparsity t.plans
let wino_pairing t = Plan.wino_pairing t.plans

(* --------------------------------------------------------------- file I/O *)

module Serialize = Twq_quant.Serialize

let to_string t =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "twq-int8-graph v1\n";
  Buffer.add_string buf
    (Printf.sprintf "meta %d %d\n" (Array.length t.nodes) t.out);
  Array.iter
    (fun { prim; inputs; scale } ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %h " (List.length inputs) scale);
      List.iter (fun i -> Buffer.add_string buf (string_of_int i ^ " ")) inputs;
      Buffer.add_char buf '\n';
      match prim with
      | Plan.P_quantize s -> Buffer.add_string buf (Printf.sprintf "input %h\n" s)
      | P_wino p ->
          Buffer.add_string buf "wino\n";
          Buffer.add_string buf (Serialize.layer_to_string (Tapwise.packed_layer p))
      | P_spatial p ->
          Buffer.add_string buf "spatial\n";
          Buffer.add_string buf (Serialize.qconv_to_string (Qconv.packed_layer p))
      | P_relu -> Buffer.add_string buf "relu\n"
      | P_leaky k -> Buffer.add_string buf (Printf.sprintf "leaky %d\n" k)
      | P_max_pool { k; stride } ->
          Buffer.add_string buf (Printf.sprintf "max-pool %d %d\n" k stride)
      | P_avg_pool2 -> Buffer.add_string buf "avg-pool2\n"
      | P_upsample f -> Buffer.add_string buf (Printf.sprintf "upsample %d\n" f)
      | P_add { shift_a; shift_b } ->
          (* The sum's scale is the node's; the format spells it again. *)
          Buffer.add_string buf (Printf.sprintf "add %d %d %h\n" shift_a shift_b scale)
      | P_concat { shift_a; shift_b } ->
          Buffer.add_string buf (Printf.sprintf "concat %d %d\n" shift_a shift_b)
      | P_head { w; bias; in_scale } ->
          Buffer.add_string buf (Printf.sprintf "head %h %d\n" in_scale
                                   (match bias with Some _ -> 1 | None -> 0));
          Serialize.write_tensor buf w;
          (match bias with Some b -> Serialize.write_tensor buf b | None -> ()))
    t.nodes;
  Buffer.contents buf

(* Structure is validated here, naming the offending node, so a loaded
   graph always compiles to a plan: the output is the one head, every input
   is an earlier integer node, each op has its arity and its parameters
   are in range. *)
let of_string s =
  let r = Serialize.reader_of_string s in
  try
    Serialize.expect r "twq-int8-graph";
    Serialize.expect r "v1";
    Serialize.expect r "meta";
    let n = Serialize.read_int r in
    let out = Serialize.read_int r in
    if n < 0 || n > String.length s then
      Serialize.parse_fail r "invalid node count";
    if out < 0 || out >= n then Serialize.parse_fail r "output id out of range";
    (* Layers are packed in node order once the whole file is read:
       packing each one between reads placed the packed panels so that
       a ResNet-20 forward ran about 3% slower. *)
    let packs = ref [] in
    let inodes =
      Array.init n (fun i ->
          let fail fmt =
            Printf.ksprintf
              (fun m -> Serialize.parse_fail r (Printf.sprintf "node %d: %s" i m))
              fmt
          in
          let shift what =
            Serialize.read_int_in r ~what:(Printf.sprintf "node %d: %s" i what) 0 62
          in
          (* A layer body's own errors, and its packing's, gain the
             node's name too.  [P_relu] stands in until [packs] runs. *)
          let layer read pack =
            let start = Serialize.reader_pos r in
            let named offset m =
              Serialize.Parse_failure
                { offset; message = Printf.sprintf "node %d: %s" i m }
            in
            let l =
              try read r
              with Serialize.Parse_failure e -> raise (named e.offset e.message)
            in
            let pack () =
              try pack l with Invalid_argument m -> raise (named start m)
            in
            packs := (i, pack) :: !packs;
            Plan.P_relu
          in
          let positive what =
            let v = Serialize.read_int r in
            if v < 1 then fail "%s %d is not positive" what v;
            v
          in
          Serialize.expect r "node";
          let n_inputs = Serialize.read_int r in
          if n_inputs < 0 || n_inputs > String.length s then
            fail "invalid input count";
          let scale = Serialize.read_float r in
          let inputs = List.init n_inputs (fun _ -> Serialize.read_int r) in
          List.iter
            (fun j ->
              if j < 0 || j >= i then fail "input %d is not an earlier node" j;
              if j = out then fail "input %d is the float head" j)
            inputs;
          let tag = Serialize.read_word r in
          let arity =
            match tag with "input" -> 0 | "add" | "concat" -> 2 | _ -> 1
          in
          if n_inputs <> arity then
            fail "%s takes %d inputs, got %d" tag arity n_inputs;
          if (tag = "head") <> (i = out) then
            if i = out then fail "the output must be a head, got %s" tag
            else fail "head is not the output (node %d)" out;
          let prim =
            match tag with
            | "input" -> Plan.P_quantize (Serialize.read_float r)
            | "wino" ->
                Serialize.expect r "tapwise-layer";
                Serialize.expect r "v1";
                layer Serialize.read_layer_body (fun l -> Plan.P_wino (Tapwise.pack l))
            | "spatial" ->
                Serialize.expect r "qconv-layer";
                Serialize.expect r "v1";
                layer Serialize.read_qconv_body (fun l -> Plan.P_spatial (Qconv.pack l))
            | "relu" -> Plan.P_relu
            | "leaky" -> Plan.P_leaky (shift "leaky shift")
            | "max-pool" ->
                let k = positive "pool k" in
                let stride = positive "pool stride" in
                Plan.P_max_pool { k; stride }
            | "avg-pool2" -> Plan.P_avg_pool2
            | "upsample" -> Plan.P_upsample (positive "upsample factor")
            | "add" ->
                let a = shift "shift_a" in
                let b = shift "shift_b" in
                let o = Serialize.read_float r in
                if not (Float.equal o scale) then
                  fail "add out_scale %h differs from the node's scale %h" o scale;
                Plan.P_add { shift_a = a; shift_b = b }
            | "concat" ->
                let a = shift "shift_a" in
                let b = shift "shift_b" in
                Plan.P_concat { shift_a = a; shift_b = b }
            | "head" ->
                let in_scale = Serialize.read_float r in
                let has_bias = Serialize.read_int r in
                let w = Serialize.read_tensor r in
                let bias =
                  if has_bias = 1 then Some (Serialize.read_tensor r) else None
                in
                Plan.P_head { w; bias; in_scale }
            | tag -> Serialize.parse_fail r ("unknown op " ^ tag)
          in
          { prim; inputs; scale })
    in
    List.iter
      (fun (i, pack) -> inodes.(i) <- { (inodes.(i)) with prim = pack () })
      (List.rev !packs);
    make inodes out
  with
  | Serialize.Parse_failure e ->
      failwith ("Int_graph.of_string: " ^ Serialize.error_to_string e)
  | Invalid_argument m -> failwith ("Int_graph.of_string: " ^ m)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
