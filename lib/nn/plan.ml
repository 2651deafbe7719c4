(* Compiled execution plans for the integer inference graphs.

   [Int_graph.run] used to interpret its graph node by node, allocating
   a fresh tensor per node per forward and sweeping activations again
   for every elementwise epilogue — exactly the inter-stage traffic the
   paper's FixPipe fuses away in hardware.
   A plan compiles the graph's [node]s for one concrete input shape:

   - the schedule is the topological node order, restricted to nodes
     reachable from the output (dead nodes of a loaded file are dropped);
   - elementwise epilogues (requant already lives in the conv store;
     ReLU and the saturating residual add) are fused into the producing
     conv's output loop when the producer has no other consumer, so the
     activation is written once instead of swept up to three times;
   - every intermediate activation gets a liveness interval
     [def step, last read step] on the fused schedule and a greedy
     best-fit assignment onto a small set of reusable arena buffers —
     two live intervals never share a buffer, so planned execution is
     bit-identical to the interpreter;
   - buffers (and per-step epilogue descriptors) are materialized once
     per domain via [Domain.DLS], so concurrent server workers share the
     plan but never a buffer, and steady-state forwards allocate almost
     nothing (just the returned logits).

   Plans are cached per input shape ([cache]), which is what the serving
   layer keys on batch size. *)

module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops
module Shape = Twq_tensor.Shape
module Tapwise = Twq_quant.Tapwise
module Qconv = Twq_quant.Qconv
module Quantizer = Twq_quant.Quantizer
module Kernels = Twq_winograd.Kernels

(* ----------------------------------------------------------- integer ops *)

type prim =
  | P_quantize of float  (* float input -> int8 at the given scale *)
  | P_wino of Tapwise.packed
  | P_spatial of Qconv.packed
  | P_relu
  | P_leaky of int
  | P_max_pool of { k : int; stride : int }
  | P_avg_pool2
  | P_upsample of int
  | P_add of { shift_a : int; shift_b : int }
  | P_concat of { shift_a : int; shift_b : int }
  | P_head of { w : Tensor.t; bias : Tensor.t option; in_scale : float }

type node = { prim : prim; inputs : int list; scale : float }

let is_conv_prim = function P_wino _ | P_spatial _ -> true | _ -> false

(* ------------------------------------------------------- compiled plans *)

(* Fused epilogue spec in node-id space; materialized per domain into a
   [Kernels.epilogue] pointing at that domain's arena buffers. *)
type epi_spec = {
  e_relu : bool;
  e_add : (int * int * int) option;  (* other node, shift_self, shift_other *)
}

(* One scheduled node: [src] are its resolved operands (the nodes whose
   buffers hold its inputs' values), [fuse] the epilogue folded into a
   conv's store (always empty for the other prims). *)
type step = { prim : prim; src : int array; dst : int; fuse : epi_spec }

type head_spec = {
  h_wt : Tensor.t;  (* pre-transposed weights, so the forward only matmuls *)
  h_bias : Tensor.t option;
  h_in_scale : float;
  h_src : int;
}

(* Per-domain execution state: exact-size arena buffers, per-node tensor
   views into them, and per-step epilogue descriptors bound to this
   domain's buffers.  Built lazily on each domain's first run. *)
type dstate = {
  slots : int array array;
  view : Itensor.t array;
  epi : Kernels.epilogue array;  (* indexed by step *)
  pooled : float array;  (* head GAP scratch, [n * c_feat] *)
}

type assignment = { node : int; slot : int; birth : int; death : int; words : int }

type t = {
  input_shape : int array;
  steps : step array;
  head : head_spec;
  shapes : int array array;
  slot_of : int array;  (* node -> buffer id; -1 = no buffer *)
  buf_sizes : int array;
  dls : dstate Domain.DLS.key;
  assignments : assignment array;
  fused : int;
  naive_words : int;  (* sum of all live activations without reuse *)
}

let input_shape t = t.input_shape
let num_steps t = Array.length t.steps
let num_buffers t = Array.length t.buf_sizes
let arena_words t = Array.fold_left ( + ) 0 t.buf_sizes
let naive_words t = t.naive_words
let fused_epilogues t = t.fused
let assignments t = Array.to_list t.assignments

(* ------------------------------------------------------ shape inference *)

let infer_shapes (nodes : node array) ~input_shape =
  let shapes = Array.make (Array.length nodes) [||] in
  let dims i = (shapes.(i).(0), shapes.(i).(1), shapes.(i).(2), shapes.(i).(3)) in
  Array.iteri
    (fun i ({ prim; inputs; _ } : node) ->
      let arg k = List.nth inputs k in
      shapes.(i) <-
        (match prim with
        | P_quantize _ -> Array.copy input_shape
        | P_wino p ->
            let l = Tapwise.packed_layer p in
            let n, _, h, w = dims (arg 0) in
            let cout = Itensor.dim l.Tapwise.wq 0 in
            let ho, wo =
              Shape.conv2d_out ~h ~w ~kh:3 ~kw:3 ~stride:1 ~pad:l.Tapwise.pad
            in
            [| n; cout; ho; wo |]
        | P_spatial p ->
            let l = Qconv.packed_layer p in
            let n, _, h, w = dims (arg 0) in
            let cout = Itensor.dim l.Qconv.wq 0 in
            let kh = Itensor.dim l.Qconv.wq 2 and kw = Itensor.dim l.Qconv.wq 3 in
            let ho, wo =
              Shape.conv2d_out ~h ~w ~kh ~kw ~stride:l.Qconv.stride
                ~pad:l.Qconv.pad
            in
            [| n; cout; ho; wo |]
        | P_relu | P_leaky _ -> Array.copy shapes.(arg 0)
        | P_max_pool { k; stride } ->
            let n, c, h, w = dims (arg 0) in
            [| n; c; ((h - k) / stride) + 1; ((w - k) / stride) + 1 |]
        | P_avg_pool2 ->
            let n, c, h, w = dims (arg 0) in
            [| n; c; h / 2; w / 2 |]
        | P_upsample f ->
            let n, c, h, w = dims (arg 0) in
            [| n; c; h * f; w * f |]
        | P_add _ -> Array.copy shapes.(arg 0)
        | P_concat _ ->
            let n, ca, h, w = dims (arg 0) in
            let cb = shapes.(arg 1).(1) in
            [| n; ca + cb; h; w |]
        | P_head { w; _ } -> [| shapes.(arg 0).(0); Tensor.dim w 0 |]))
    nodes;
  shapes

(* ------------------------------------------------------------- compile *)

(* Inputs name earlier nodes, so one backward sweep marks them all. *)
let reachable (nodes : node array) out =
  let reach = Array.make (Array.length nodes) false in
  reach.(out) <- true;
  for i = out downto 0 do
    if reach.(i) then List.iter (fun j -> reach.(j) <- true) nodes.(i).inputs
  done;
  reach

let compile (nodes : node array) out ~input_shape =
  if Array.length input_shape <> 4 then
    invalid_arg "Plan.compile: input shape must be [| n; c; h; w |]";
  let n = Array.length nodes in
  let shapes = infer_shapes nodes ~input_shape in
  (* Dead nodes (a loaded file may hold them) are neither scheduled nor
     given buffers. *)
  let reach = reachable nodes out in
  (* Consumer multiplicity over reachable nodes — fusion requires the
     producer to have exactly one consumer. *)
  let cons = Array.make n 0 in
  Array.iteri
    (fun i ({ inputs; _ } : node) ->
      if reach.(i) then List.iter (fun j -> cons.(j) <- cons.(j) + 1) inputs)
    nodes;
  (* Epilogue fusion.  [alias.(i)] names the node whose buffer holds
     node [i]'s value; fused adds/relus are skipped as steps and their
     effect moves into the producing conv's output loop.  An add can
     only fuse into an operand that is itself a conv with no other
     consumer, and only if the *other* operand's representative is
     computed before that conv runs. *)
  let alias = Array.init n (fun i -> i) in
  let skip = Array.make n false in
  let epi_relu = Array.make n false in
  let epi_add = Array.make n None in
  Array.iteri
    (fun i ({ prim; inputs; _ } : node) ->
      if reach.(i) then
        match (prim, inputs) with
        | P_relu, [ j ] ->
            let p = alias.(j) in
            if is_conv_prim nodes.(p).prim && cons.(j) = 1 && not epi_relu.(p)
            then begin
              epi_relu.(p) <- true;
              skip.(i) <- true;
              alias.(i) <- p
            end
        | P_add { shift_a; shift_b }, [ a; b ] when a <> b ->
            let try_fuse x sx y sy =
              if
                is_conv_prim nodes.(x).prim
                && cons.(x) = 1
                && (not epi_relu.(x))
                && epi_add.(x) = None
                && alias.(y) < x
              then begin
                epi_add.(x) <- Some (alias.(y), sx, sy);
                skip.(i) <- true;
                alias.(i) <- x;
                true
              end
              else false
            in
            let hi, s_hi, lo, s_lo =
              if b > a then (b, shift_b, a, shift_a) else (a, shift_a, b, shift_b)
            in
            ignore (try_fuse hi s_hi lo s_lo || try_fuse lo s_lo hi s_hi)
        | _ -> ())
    nodes;
  let fused =
    Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 skip
  in
  (* Schedule: reachable, unfused, non-head nodes in topological order. *)
  let sched = ref [] in
  for i = n - 1 downto 0 do
    if reach.(i) && (not skip.(i)) && i <> out then sched := i :: !sched
  done;
  let resolve j = alias.(j) in
  let steps =
    Array.map
      (fun i ->
        let { prim; inputs; _ } = nodes.(i) in
        {
          prim;
          src = Array.of_list (List.map resolve inputs);
          dst = i;
          fuse = { e_relu = epi_relu.(i); e_add = epi_add.(i) };
        })
      (Array.of_list !sched)
  in
  let nsteps = Array.length steps in
  let head =
    match nodes.(out) with
    | { prim = P_head { w; bias; in_scale }; inputs; _ } ->
        {
          h_wt = Ops.transpose w;
          h_bias = bias;
          h_in_scale = in_scale;
          h_src = resolve (List.hd inputs);
        }
    | _ -> invalid_arg "Plan.compile: the output must be a head node"
  in
  (* Liveness on the fused schedule.  A step reads its resolved operands
     (a fused residual add reads the other operand inside the conv's
     step); the head reads its feature map at step [nsteps]. *)
  let def = Array.make n (-1) and last_read = Array.make n (-1) in
  let read s j = if s > last_read.(j) then last_read.(j) <- s in
  Array.iteri
    (fun s { src; dst; fuse; _ } ->
      def.(dst) <- s;
      Array.iter (read s) src;
      Option.iter (fun (other, _, _) -> read s other) fuse.e_add)
    steps;
  last_read.(head.h_src) <- nsteps;
  (* Greedy best-fit assignment of node buffers onto a reusable arena.
     At each step, buffers whose owner's last read is strictly past are
     released; the new output takes the smallest free buffer that fits,
     grows the largest free one if none fits, or opens a fresh buffer. *)
  let slot_of = Array.make n (-1) in
  let buf_sizes = ref [] (* reversed: slot id = length - 1 - position *)
  and nbufs = ref 0 in
  let size_of = Array.make n 0 in
  let free = ref [] and active = ref [] in
  let sizes_arr () = Array.of_list (List.rev !buf_sizes) in
  let grow slot need =
    buf_sizes :=
      List.mapi
        (fun k sz ->
          if !nbufs - 1 - k = slot then Stdlib.max sz need else sz)
        !buf_sizes
  in
  let assignments = ref [] in
  Array.iteri
    (fun s { dst = node; _ } ->
      let dead, live =
        List.partition (fun node -> last_read.(node) < s) !active
      in
      active := live;
      List.iter (fun node -> free := slot_of.(node) :: !free) dead;
      let need = Shape.numel shapes.(node) in
      size_of.(node) <- need;
      let sizes = sizes_arr () in
      let fits =
        List.filter (fun slot -> sizes.(slot) >= need) !free
      in
      let slot =
        match fits with
        | _ :: _ ->
            (* best fit: smallest free buffer that already fits *)
            let best =
              List.fold_left
                (fun acc slot ->
                  if sizes.(slot) < sizes.(acc) then slot else acc)
                (List.hd fits) fits
            in
            free := List.filter (fun sl -> sl <> best) !free;
            best
        | [] -> (
            match !free with
            | _ :: _ ->
                (* grow the largest free buffer instead of opening a new
                   one — keeps the arena count minimal *)
                let best =
                  List.fold_left
                    (fun acc slot ->
                      if sizes.(slot) > sizes.(acc) then slot else acc)
                    (List.hd !free) !free
                in
                free := List.filter (fun sl -> sl <> best) !free;
                grow best need;
                best
            | [] ->
                buf_sizes := need :: !buf_sizes;
                incr nbufs;
                !nbufs - 1)
      in
      slot_of.(node) <- slot;
      active := node :: !active;
      assignments :=
        { node; slot; birth = s; death = last_read.(node); words = need }
        :: !assignments)
    steps;
  let buf_sizes = sizes_arr () in
  let naive_words =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i sz -> if def.(i) >= 0 then sz else 0) size_of)
  in
  let head_n = input_shape.(0) in
  let head_c = shapes.(head.h_src).(1) in
  let dummy_view = Itensor.zeros [| 1 |] in
  let dls =
    Domain.DLS.new_key (fun () ->
        let slots =
          Array.map (fun sz -> Array.make (Stdlib.max 1 sz) 0) buf_sizes
        in
        let view =
          Array.init n (fun i ->
              if slot_of.(i) >= 0 then
                { Itensor.shape = shapes.(i); data = slots.(slot_of.(i)) }
              else dummy_view)
        in
        let epi =
          Array.map
            (fun { fuse = { e_relu; e_add }; _ } ->
              {
                Kernels.relu = e_relu;
                add =
                  Option.map
                    (fun (other, shift_self, shift_other) ->
                      {
                        Kernels.other = view.(other).Itensor.data;
                        shift_self;
                        shift_other;
                        bits = 8;
                      })
                    e_add;
              })
            steps
        in
        { slots; view; epi; pooled = Array.make (Stdlib.max 1 (head_n * head_c)) 0.0 })
  in
  {
    input_shape = Array.copy input_shape;
    steps;
    head;
    shapes;
    slot_of;
    buf_sizes;
    dls;
    assignments = Array.of_list (List.rev !assignments);
    fused;
    naive_words;
  }

(* ------------------------------------------------------------ execution *)

(* The elementwise steps replicate the [Int_graph] interpreter's integer
   ops loop for loop (all-integer arithmetic, so iteration order cannot
   change results); the head replicates dequantize → global-average-pool
   → linear with the exact float operation sequence of the reference. *)

let exec_step t d x s { prim; src; dst; _ } =
  let numel node = Shape.numel t.shapes.(node) in
  match prim with
  | P_quantize scale ->
      let dd = d.view.(dst).Itensor.data and xd = x.Tensor.data in
      for i = 0 to numel dst - 1 do
        dd.(i) <- Quantizer.quantize ~bits:8 ~scale xd.(i)
      done
  | P_wino p ->
      (* Runs the register-tiled microkernel GEMM path: [p] carries the
         packed Winograd weight panels from [Tapwise.pack]. *)
      Tapwise.forward_int_into ~epilogue:d.epi.(s) p d.view.(src.(0))
        ~out:d.view.(dst)
  | P_spatial p ->
      (* The im2col GEMM path on the same microkernel: [p] carries the
         NR-packed weight panel from [Qconv.pack]. *)
      Qconv.forward_int_into ~epilogue:d.epi.(s) p d.view.(src.(0))
        ~out:d.view.(dst)
  | P_relu ->
      let sd = d.view.(src.(0)).Itensor.data and dd = d.view.(dst).Itensor.data in
      (* The sign mask of [Kernels.epilogue_store]'s fused ReLU. *)
      for i = 0 to numel dst - 1 do
        let v = sd.(i) in
        dd.(i) <- v land lnot (v asr 62)
      done
  | P_leaky k ->
      let sd = d.view.(src.(0)).Itensor.data and dd = d.view.(dst).Itensor.data in
      for i = 0 to numel dst - 1 do
        let v = sd.(i) in
        dd.(i) <- (if v >= 0 then v else -Itensor.round_shift (-v) k)
      done
  | P_max_pool { k; stride } ->
      let sd = d.view.(src.(0)).Itensor.data and dd = d.view.(dst).Itensor.data in
      let sh = t.shapes.(src.(0)) and dh = t.shapes.(dst) in
      let n = dh.(0) and c = dh.(1) and ho = dh.(2) and wo = dh.(3) in
      let h = sh.(2) and w = sh.(3) in
      for nc = 0 to (n * c) - 1 do
        let sbase = nc * h * w and dbase = nc * ho * wo in
        for oh = 0 to ho - 1 do
          for ow = 0 to wo - 1 do
            let best = ref min_int in
            for di = 0 to k - 1 do
              let row = sbase + (((stride * oh) + di) * w) + (stride * ow) in
              for dj = 0 to k - 1 do
                if sd.(row + dj) > !best then best := sd.(row + dj)
              done
            done;
            dd.(dbase + (oh * wo) + ow) <- !best
          done
        done
      done
  | P_avg_pool2 ->
      let sd = d.view.(src.(0)).Itensor.data and dd = d.view.(dst).Itensor.data in
      let sh = t.shapes.(src.(0)) and dh = t.shapes.(dst) in
      let n = dh.(0) and c = dh.(1) and ho = dh.(2) and wo = dh.(3) in
      let h = sh.(2) and w = sh.(3) in
      for nc = 0 to (n * c) - 1 do
        let sbase = nc * h * w and dbase = nc * ho * wo in
        for oh = 0 to ho - 1 do
          for ow = 0 to wo - 1 do
            let r0 = sbase + (2 * oh * w) + (2 * ow) in
            let s = sd.(r0) + sd.(r0 + 1) + sd.(r0 + w) + sd.(r0 + w + 1) in
            dd.(dbase + (oh * wo) + ow) <- Itensor.round_shift s 2
          done
        done
      done
  | P_upsample f ->
      let sd = d.view.(src.(0)).Itensor.data and dd = d.view.(dst).Itensor.data in
      let sh = t.shapes.(src.(0)) and dh = t.shapes.(dst) in
      let n = dh.(0) and c = dh.(1) and ho = dh.(2) and wo = dh.(3) in
      let h = sh.(2) and w = sh.(3) in
      ignore h;
      for nc = 0 to (n * c) - 1 do
        let sbase = nc * h * w and dbase = nc * ho * wo in
        for oh = 0 to ho - 1 do
          let srow = sbase + (oh / f * w) in
          let drow = dbase + (oh * wo) in
          for ow = 0 to wo - 1 do
            dd.(drow + ow) <- sd.(srow + (ow / f))
          done
        done
      done
  | P_add { shift_a; shift_b } ->
      let ad = d.view.(src.(0)).Itensor.data
      and bd = d.view.(src.(1)).Itensor.data
      and dd = d.view.(dst).Itensor.data in
      for i = 0 to numel dst - 1 do
        dd.(i) <-
          Itensor.clamp_int ~bits:8
            (Itensor.round_shift ad.(i) shift_a
            + Itensor.round_shift bd.(i) shift_b)
      done
  | P_concat { shift_a; shift_b } ->
      let a = src.(0) and b = src.(1) in
      let ad = d.view.(a).Itensor.data
      and bd = d.view.(b).Itensor.data
      and dd = d.view.(dst).Itensor.data in
      let sa = t.shapes.(a) and sb = t.shapes.(b) in
      let n = sa.(0) and ca = sa.(1) and cb = sb.(1) in
      let hw = sa.(2) * sa.(3) in
      for ni = 0 to n - 1 do
        let abase = ni * ca * hw
        and bbase = ni * cb * hw
        and dbase = ni * (ca + cb) * hw in
        for i = 0 to (ca * hw) - 1 do
          dd.(dbase + i) <- Itensor.round_shift ad.(abase + i) shift_a
        done;
        for i = 0 to (cb * hw) - 1 do
          dd.(dbase + (ca * hw) + i) <- Itensor.round_shift bd.(bbase + i) shift_b
        done
      done
  | P_head _ -> invalid_arg "Plan.execute: a head is not a step"

let execute t x =
  if not (Shape.equal x.Tensor.shape t.input_shape) then
    invalid_arg
      (Printf.sprintf "Plan.execute: input shape %s, plan expects %s"
         (Shape.to_string x.Tensor.shape)
         (Shape.to_string t.input_shape));
  let d = Domain.DLS.get t.dls in
  Array.iteri (fun s st -> exec_step t d x s st) t.steps;
  (* Head: dequantize → global-average-pool (same float accumulation
     order as [Ops.global_avg_pool] over the dequantized map) → linear
     against the pre-transposed weights (identical to [Ops.linear]). *)
  let { h_wt; h_bias; h_in_scale; h_src } = t.head in
  let feat = d.view.(h_src) in
  let sh = t.shapes.(h_src) in
  let n = sh.(0) and c = sh.(1) and h = sh.(2) and w = sh.(3) in
  let inv = 1.0 /. float_of_int (h * w) in
  let fd = feat.Itensor.data and pd = d.pooled in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let base = ((ni * c) + ci) * h * w in
      let acc = ref 0.0 in
      for i = 0 to (h * w) - 1 do
        acc := !acc +. (float_of_int fd.(base + i) *. h_in_scale)
      done;
      pd.((ni * c) + ci) <- !acc *. inv
    done
  done;
  let pooled = { Tensor.shape = [| n; c |]; data = pd } in
  let out = Ops.matmul pooled h_wt in
  (match h_bias with
  | None -> ()
  | Some b ->
      let classes = Tensor.dim out 1 in
      for i = 0 to n - 1 do
        for j = 0 to classes - 1 do
          Tensor.set2 out i j (Tensor.get2 out i j +. b.Tensor.data.(j))
        done
      done);
  out

(* -------------------------------------------------------- shape cache *)

type cache = {
  nodes : node array;
  out : int;
  mutex : Mutex.t;
  mutable plans : (int array * t) list;  (* most recently used first *)
}

let max_cached = 16

let cache (nodes : node array) ~out =
  (match nodes.(out).prim with
  | P_head _ -> ()
  | _ -> invalid_arg "Plan.cache: the output must be a head node");
  { nodes; out; mutex = Mutex.create (); plans = [] }

let plan c ~input_shape =
  Mutex.lock c.mutex;
  let r =
    match List.find_opt (fun (s, _) -> Shape.equal s input_shape) c.plans with
    | Some (_, t) -> t
    | None ->
        let t = compile c.nodes c.out ~input_shape in
        let keep =
          if List.length c.plans >= max_cached then
            List.filteri (fun k _ -> k < max_cached - 1) c.plans
          else c.plans
        in
        c.plans <- (Array.copy input_shape, t) :: keep;
        t
  in
  Mutex.unlock c.mutex;
  r

let cached_shapes c =
  Mutex.lock c.mutex;
  let s = List.map fst c.plans in
  Mutex.unlock c.mutex;
  s

(* Per-tap sparse/dense decisions are frozen into the packed layers by
   [Tapwise.pack]; summing them over the nodes reports what a compiled
   plan will actually execute. *)
let wino_sparsity c =
  Array.fold_left
    (fun (sparse, total) ({ prim; _ } : node) ->
      match prim with
      | P_wino p ->
          ( sparse + Tapwise.sparse_tap_count p,
            total + Array.length (Tapwise.tap_densities p) )
      | _ -> (sparse, total))
    (0, 0) c.nodes

(* The per-layer kernel-width decisions, also frozen by the pack:
   which layers' range proofs let their dense taps run two products
   per word, and the widest accumulator any proof had to allow. *)
let wino_pairing c =
  Array.fold_left
    (fun (paired, layers, bits) ({ prim; _ } : node) ->
      match prim with
      | P_wino p ->
          ( (paired + if Tapwise.paired p then 1 else 0),
            layers + 1,
            max bits (Tapwise.acc_bits p) )
      | _ -> (paired, layers, bits))
    (0, 0, 0) c.nodes

let run c x =
  if Tensor.rank x <> 4 then invalid_arg "Plan.run: input must be NCHW";
  execute (plan c ~input_shape:x.Tensor.shape) x
