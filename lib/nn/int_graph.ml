module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops
module Transform = Twq_winograd.Transform
module Tapwise = Twq_quant.Tapwise
module Qconv = Twq_quant.Qconv
module Quantizer = Twq_quant.Quantizer

type iop =
  | IInput of float  (* input scale *)
  | IWino of Tapwise.layer
  | ISpatial of Qconv.layer
  | IRelu
  | ILeaky of int  (* negative branch right-shifted by k *)
  | IMax_pool of { k : int; stride : int }
  | IAvg_pool2
  | IUpsample of int
  | IAdd of { shift_a : int; shift_b : int; out_scale : float }
      (* operands shifted right onto the common grid, saturated to int8 *)
  | IConcat of { shift_a : int; shift_b : int }
      (* both operands aligned to the coarser scale before concatenation *)
  | IHead of { w : Tensor.t; bias : Tensor.t option; in_scale : float }
      (* dequantize → global-average-pool → linear *)

type inode = { iop : iop; inputs : int list; scale : float }

type t = { inodes : inode array; out : int; plans : Plan.cache }

(* Lower the graph to the planner IR once at load time: Winograd and
   spatial layers are pre-packed (once, shared by every batch size's
   plan) and the GAP→Linear head becomes an explicit [P_head].  Every
   graph has a head at [out] ([quantize] builds one, [of_string]
   rejects files without one), so every graph runs a compiled plan. *)
let lower inodes out =
  let pnodes =
    Array.map
      (fun { iop; inputs; _ } ->
        let prim =
          match iop with
          | IInput s -> Plan.P_quantize s
          | IWino l -> Plan.P_wino (Tapwise.pack l)
          | ISpatial l -> Plan.P_spatial (Qconv.pack l)
          | IRelu -> Plan.P_relu
          | ILeaky k -> Plan.P_leaky k
          | IMax_pool { k; stride } -> Plan.P_max_pool { k; stride }
          | IAvg_pool2 -> Plan.P_avg_pool2
          | IUpsample f -> Plan.P_upsample f
          | IAdd { shift_a; shift_b; _ } -> Plan.P_add { shift_a; shift_b }
          | IConcat { shift_a; shift_b } -> Plan.P_concat { shift_a; shift_b }
          | IHead { w; bias; in_scale } -> Plan.P_head { w; bias; in_scale }
        in
        { Plan.prim; args = inputs })
      inodes
  in
  Plan.cache { Plan.pnodes; out }

let make inodes out = { inodes; out; plans = lower inodes out }

let plans t = Some t.plans
let plan t ~input_shape = Plan.plan t.plans ~input_shape

type link = Wino of Tapwise.layer | Relu | Avg_pool2

(* A linear chain input → links → head.  Each node carries the scale of
   the last Winograd layer at or before it, which is also the head's. *)
let chain ~input_scale links ~w ~bias =
  let input = { iop = IInput input_scale; inputs = []; scale = input_scale } in
  let nodes, scale =
    List.fold_left
      (fun (nodes, scale) link ->
        let iop, scale =
          match link with
          | Wino l -> (IWino l, l.Tapwise.s_y)
          | Relu -> (IRelu, scale)
          | Avg_pool2 -> (IAvg_pool2, scale)
        in
        ({ iop; inputs = [ List.length nodes - 1 ]; scale } :: nodes, scale))
      ([ input ], input_scale) links
  in
  let last = List.length nodes - 1 in
  let head =
    { iop = IHead { w; bias; in_scale = scale }; inputs = [ last ]; scale = 1.0 }
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
            { iop = IInput s; inputs = []; scale = s }
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
              { iop = IWino layer; inputs; scale = layer.Tapwise.s_y }
            end
            else begin
              let layer =
                Qconv.calibrate ~pow2:true ~w ?bias ~input_scale:in_scale
                  ~sample_inputs:[ cal_in ] ~stride ~pad ()
              in
              { iop = ISpatial layer; inputs; scale = layer.Qconv.s_y }
            end
        | Graph.Bn _ ->
            invalid_arg "Int_graph.quantize: run Passes.fold_bn first"
        | Graph.Relu -> { iop = IRelu; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Leaky_relu k ->
            { iop = ILeaky k; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Max_pool { k; stride } ->
            { iop = IMax_pool { k; stride }; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Avg_pool { k; stride } ->
            if k <> 2 || stride <> 2 then
              invalid_arg "Int_graph.quantize: only 2x2/2 average pooling";
            { iop = IAvg_pool2; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Upsample f ->
            { iop = IUpsample f; inputs; scale = scale_of (List.hd inputs) }
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
              iop =
                IAdd
                  {
                    shift_a = log2_ratio s_out s_a;
                    shift_b = log2_ratio s_out s_b;
                    out_scale = s_out;
                  };
              inputs;
              scale = s_out;
            }
        | Graph.Concat ->
            let a = List.nth inputs 0 and b = List.nth inputs 1 in
            let s_a = scale_of a and s_b = scale_of b in
            let s_out = Float.max s_a s_b in
            {
              iop =
                IConcat
                  { shift_a = log2_ratio s_out s_a; shift_b = log2_ratio s_out s_b };
              inputs;
              scale = s_out;
            }
        | Graph.Global_avg_pool ->
            (* Absorbed by the head; stands alone only if the output — treat
               as the start of the float head. Marked by a dummy scale. *)
            { iop = IRelu; inputs; scale = scale_of (List.hd inputs) }
        | Graph.Linear _ ->
            { iop = IRelu; inputs; scale = scale_of (List.hd inputs) }
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
              iop = IHead { w; bias; in_scale = inodes.(feat).scale };
              inputs = [ feat ];
              scale = 1.0;
            };
          (* The stray GAP placeholder must not run on integers. *)
          inodes.(gap) <- { (inodes.(gap)) with iop = IRelu }
      | _ -> invalid_arg "Int_graph.quantize: expected GAP before the head")
  | _ -> invalid_arg "Int_graph.quantize: expected a Linear output head");
  make inodes out

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
  let n = Array.length t.inodes in
  let int_values : Itensor.t option array = Array.make n None in
  (* Last consumer of each node, so dead intermediate activations are
     dropped as the interpreter walks forward — the reference stays an
     oracle but no longer retains the whole network's activations. *)
  let last_use = Array.make n (-1) in
  Array.iteri
    (fun i { inputs; _ } ->
      List.iter (fun j -> if i > last_use.(j) then last_use.(j) <- i) inputs)
    t.inodes;
  let float_out = ref None in
  Array.iteri
    (fun i { iop; inputs; _ } ->
      let arg j = Option.get int_values.(j) in
      (match iop with
      | IInput s ->
          int_values.(i) <- Some (Quantizer.quantize_tensor ~bits:8 ~scale:s x)
      | IWino layer ->
          int_values.(i) <- Some (Tapwise.forward_int layer (arg (List.hd inputs)))
      | ISpatial layer ->
          int_values.(i) <- Some (Qconv.forward_int layer (arg (List.hd inputs)))
      | IRelu -> int_values.(i) <- Some (int_relu (arg (List.hd inputs)))
      | ILeaky k -> int_values.(i) <- Some (int_leaky k (arg (List.hd inputs)))
      | IMax_pool { k; stride } ->
          int_values.(i) <- Some (int_max_pool ~k ~stride (arg (List.hd inputs)))
      | IAvg_pool2 -> int_values.(i) <- Some (int_avg_pool2 (arg (List.hd inputs)))
      | IUpsample f -> int_values.(i) <- Some (int_upsample f (arg (List.hd inputs)))
      | IAdd { shift_a; shift_b; _ } ->
          let a = arg (List.nth inputs 0) and b = arg (List.nth inputs 1) in
          int_values.(i) <-
            Some
              (Itensor.map2
                 (fun va vb ->
                   Itensor.clamp_int ~bits:8
                     (Itensor.round_shift va shift_a + Itensor.round_shift vb shift_b))
                 a b)
      | IConcat { shift_a; shift_b } ->
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
      | IHead { w; bias; in_scale } ->
          let feat =
            Quantizer.dequantize_tensor ~scale:in_scale (arg (List.hd inputs))
          in
          let pooled = Ops.global_avg_pool feat in
          float_out := Some (Ops.linear ~x:pooled ~w ?b:bias ()));
      List.iter
        (fun j -> if last_use.(j) = i then int_values.(j) <- None)
        inputs;
      if last_use.(i) < 0 then int_values.(i) <- None)
    t.inodes;
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
    (fun n -> match n.iop with IWino l -> Some l | _ -> None)
    (Array.to_list t.inodes)

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
    (fun a n -> match n.iop with ISpatial _ -> a + 1 | _ -> a)
    0 t.inodes

(* ------------------------------------------------------------- pruning *)

module Pruning = Twq_quant.Pruning

(* Winograd-domain magnitude pruning over the whole graph: every
   tap-wise layer's quantized Winograd weights go through
   [Pruning.prune_quantized] at the requested density, then the graph
   is re-made so lowering re-packs the panels — which is where the
   per-tap sparse/dense execution decision is taken from the pruned
   zeros.  Spatial layers and the float head are untouched. *)
let prune t ~density =
  let inodes =
    Array.map
      (fun n ->
        match n.iop with
        | IWino l -> { n with iop = IWino (Pruning.prune_layer l ~density) }
        | _ -> n)
      t.inodes
  in
  make inodes t.out

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
    (Printf.sprintf "meta %d %d\n" (Array.length t.inodes) t.out);
  Array.iter
    (fun { iop; inputs; scale } ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %h " (List.length inputs) scale);
      List.iter (fun i -> Buffer.add_string buf (string_of_int i ^ " ")) inputs;
      Buffer.add_char buf '\n';
      match iop with
      | IInput s -> Buffer.add_string buf (Printf.sprintf "input %h\n" s)
      | IWino layer ->
          Buffer.add_string buf "wino\n";
          Buffer.add_string buf (Serialize.layer_to_string layer)
      | ISpatial layer ->
          Buffer.add_string buf "spatial\n";
          Buffer.add_string buf (Serialize.qconv_to_string layer)
      | IRelu -> Buffer.add_string buf "relu\n"
      | ILeaky k -> Buffer.add_string buf (Printf.sprintf "leaky %d\n" k)
      | IMax_pool { k; stride } ->
          Buffer.add_string buf (Printf.sprintf "max-pool %d %d\n" k stride)
      | IAvg_pool2 -> Buffer.add_string buf "avg-pool2\n"
      | IUpsample f -> Buffer.add_string buf (Printf.sprintf "upsample %d\n" f)
      | IAdd { shift_a; shift_b; out_scale } ->
          Buffer.add_string buf
            (Printf.sprintf "add %d %d %h\n" shift_a shift_b out_scale)
      | IConcat { shift_a; shift_b } ->
          Buffer.add_string buf (Printf.sprintf "concat %d %d\n" shift_a shift_b)
      | IHead { w; bias; in_scale } ->
          Buffer.add_string buf (Printf.sprintf "head %h %d\n" in_scale
                                   (match bias with Some _ -> 1 | None -> 0));
          Serialize.write_tensor buf w;
          (match bias with Some b -> Serialize.write_tensor buf b | None -> ()))
    t.inodes;
  Buffer.contents buf

(* Structure is validated here, naming the offending node, so a loaded
   graph always lowers to a plan: the output is the one head, every input
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
          let iop =
            match tag with
            | "input" -> IInput (Serialize.read_float r)
            | "wino" ->
                Serialize.expect r "tapwise-layer";
                Serialize.expect r "v1";
                IWino (Serialize.read_layer_body r)
            | "spatial" ->
                Serialize.expect r "qconv-layer";
                Serialize.expect r "v1";
                ISpatial (Serialize.read_qconv_body r)
            | "relu" -> IRelu
            | "leaky" -> ILeaky (shift "leaky shift")
            | "max-pool" ->
                let k = positive "pool k" in
                let stride = positive "pool stride" in
                IMax_pool { k; stride }
            | "avg-pool2" -> IAvg_pool2
            | "upsample" -> IUpsample (positive "upsample factor")
            | "add" ->
                let a = shift "shift_a" in
                let b = shift "shift_b" in
                let o = Serialize.read_float r in
                IAdd { shift_a = a; shift_b = b; out_scale = o }
            | "concat" ->
                let a = shift "shift_a" in
                let b = shift "shift_b" in
                IConcat { shift_a = a; shift_b = b }
            | "head" ->
                let in_scale = Serialize.read_float r in
                let has_bias = Serialize.read_int r in
                let w = Serialize.read_tensor r in
                let bias =
                  if has_bias = 1 then Some (Serialize.read_tensor r) else None
                in
                IHead { w; bias; in_scale }
            | tag -> Serialize.parse_fail r ("unknown op " ^ tag)
          in
          { iop; inputs; scale })
    in
    make inodes out
  with Serialize.Parse_failure e ->
    failwith ("Int_graph.of_string: " ^ Serialize.error_to_string e)

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
