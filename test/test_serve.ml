(* Tests for the serving subsystem (PR 4): batching equivalence (any
   interleaving of requests through the dynamic batcher yields
   bit-identical outputs to sequential single-image execution), admission
   control (overload shedding, deadline expiry, post-shutdown submits —
   all typed, never exceptions), registry integrity (CRC, orphan-tmp
   cleanup, hot-swap) and the metrics layer. *)

module Tensor = Twq_tensor.Tensor
module Rng = Twq_util.Rng
module Parallel = Twq_util.Parallel
module Crc32 = Twq_util.Crc32
module Checkpoint = Twq_util.Checkpoint
module Metrics = Twq_serve.Metrics
module Model = Twq_serve.Model
module Registry = Twq_serve.Registry
module Batcher = Twq_serve.Batcher
module Server = Twq_serve.Server
module Loadgen = Twq_serve.Loadgen
module Serialize = Twq_quant.Serialize

let tmp_dir prefix =
  let p = Filename.temp_file prefix "" in
  Sys.remove p;
  Unix.mkdir p 0o755;
  p

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* A small servable model: resnet20/4 at low resolution keeps each test
   in the tens of milliseconds while still crossing Winograd, spatial,
   residual-add and head paths. *)
let make_model ?(res = 8) ?(width_div = 4) ~seed () =
  let rng = Rng.create seed in
  let g =
    Twq_nn.Passes.fold_bn (Twq_nn.Gmodels.resnet20 ~rng ~width_div ())
  in
  let cal = Tensor.rand_gaussian rng [| 2; 3; res; res |] ~mu:0.0 ~sigma:1.0 in
  (Model.Graph (Twq_nn.Int_graph.quantize g ~calibration:cal ()), [| 3; res; res |])

let the_model, the_dims = make_model ~seed:3 ()

let rand_input ?(dims = the_dims) seed =
  let rng = Rng.create seed in
  Tensor.rand_gaussian rng dims ~mu:0.0 ~sigma:1.0

let tensor_equal_bits a b =
  Tensor.numel a = Tensor.numel b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Tensor.data b.Tensor.data

(* Reference: the model run on the single image alone. *)
let reference_row model dims x =
  let c = dims.(0) and h = dims.(1) and w = dims.(2) in
  let x1 = Tensor.zeros [| 1; c; h; w |] in
  Array.blit x.Tensor.data 0 x1.Tensor.data 0 (c * h * w);
  let y = Model.run_batch model x1 in
  let classes = Tensor.dim y 1 in
  let row = Tensor.zeros [| classes |] in
  Array.blit y.Tensor.data 0 row.Tensor.data 0 classes;
  row

(* ------------------------------------------------ batching equivalence *)

let prop_batching_bit_identical =
  QCheck.Test.make
    ~name:"server batching == sequential single-image execution (bit-exact)"
    ~count:12
    QCheck.(triple (int_range 1 20) (int_range 1 8) (int_range 0 10_000))
    (fun (n_req, max_batch, seed) ->
      let config =
        {
          Server.default_config with
          Server.max_batch;
          max_delay = (if seed mod 2 = 0 then 0.0 else 0.001);
          capacity = n_req + 8;
        }
      in
      let server = Server.for_model ~config the_model ~input_dims:the_dims () in
      let inputs = Array.init n_req (fun i -> rand_input (seed + (17 * i))) in
      (* Submitting from one domain while the worker drains concurrently
         yields whatever interleaving the scheduler produces; batch
         shapes vary with max_batch/max_delay/timing. *)
      let tickets = Array.map (Server.submit server) inputs in
      let outcomes = Array.map Server.await tickets in
      Server.shutdown server;
      Array.for_all2
        (fun x outcome ->
          match outcome with
          | Server.Output row ->
              tensor_equal_bits row (reference_row the_model the_dims x)
          | _ -> false)
        inputs outcomes)

let test_batch_submit_after_await () =
  (* Several waves through the same server: batches of earlier waves must
     not perturb later ones. *)
  let server = Server.for_model the_model ~input_dims:the_dims () in
  for wave = 0 to 2 do
    let inputs = Array.init 5 (fun i -> rand_input ((100 * wave) + i)) in
    let tickets = Array.map (Server.submit server) inputs in
    Array.iteri
      (fun i ticket ->
        match Server.await ticket with
        | Server.Output row ->
            Alcotest.(check bool)
              (Printf.sprintf "wave %d req %d bit-identical" wave i)
              true
              (tensor_equal_bits row (reference_row the_model the_dims inputs.(i)))
        | o -> Alcotest.failf "unexpected outcome %s" (Server.outcome_label o))
      tickets
  done;
  Server.shutdown server

(* --------------------------------------------------- admission control *)

let count_outcomes outcomes =
  Array.fold_left
    (fun (ok, shed, exp, other) o ->
      match o with
      | Server.Output _ -> (ok + 1, shed, exp, other)
      | Server.Rejected_overload -> (ok, shed + 1, exp, other)
      | Server.Deadline_expired -> (ok, shed, exp + 1, other)
      | _ -> (ok, shed, exp, other + 1))
    (0, 0, 0, 0) outcomes

let test_overload_sheds_typed () =
  (* Tiny queue, batch-1 server, a flood of instant submits: almost all
     must shed as typed Rejected_overload; every request still gets
     exactly one outcome and nothing raises. *)
  let config =
    { Server.default_config with Server.max_batch = 1; max_delay = 0.0;
      capacity = 2 }
  in
  let server = Server.for_model ~config the_model ~input_dims:the_dims () in
  let n = 40 in
  let tickets = Array.init n (fun i -> Server.submit server (rand_input i)) in
  let outcomes = Array.map Server.await tickets in
  Server.shutdown server;
  let ok, shed, expired, other = count_outcomes outcomes in
  Alcotest.(check int) "all requests resolved" n (ok + shed + expired + other);
  Alcotest.(check int) "no expiries or failures" 0 (expired + other);
  Alcotest.(check bool) "some requests shed" true (shed > 0);
  Alcotest.(check bool) "some requests served" true (ok > 0);
  let m = Server.metrics server in
  Alcotest.(check int) "metrics shed count" shed
    (Metrics.Counter.value m.Metrics.rejected_overload);
  Alcotest.(check int) "metrics completed count" ok
    (Metrics.Counter.value m.Metrics.completed)

let test_deadline_expiry () =
  let server = Server.for_model the_model ~input_dims:the_dims () in
  (match Server.infer ~deadline:(-1.0) server (rand_input 1) with
  | Server.Deadline_expired -> ()
  | o -> Alcotest.failf "expected expiry, got %s" (Server.outcome_label o));
  (match Server.infer ~deadline:30.0 server (rand_input 2) with
  | Server.Output _ -> ()
  | o -> Alcotest.failf "expected output, got %s" (Server.outcome_label o));
  Server.shutdown server;
  let m = Server.metrics server in
  Alcotest.(check int) "expiry counted" 1
    (Metrics.Counter.value m.Metrics.deadline_expired)

let test_invalid_shape_and_closed () =
  let server = Server.for_model the_model ~input_dims:the_dims () in
  (match Server.infer server (Tensor.zeros [| 3; 4; 4 |]) with
  | Server.Rejected_invalid _ -> ()
  | o -> Alcotest.failf "expected invalid, got %s" (Server.outcome_label o));
  Server.shutdown server;
  Server.shutdown server (* idempotent *);
  match Server.infer server (rand_input 3) with
  | Server.Rejected_closed -> ()
  | o -> Alcotest.failf "expected closed, got %s" (Server.outcome_label o)

let test_shutdown_drains () =
  (* Everything accepted before shutdown completes with a real output. *)
  let config =
    { Server.default_config with Server.max_batch = 4; max_delay = 0.002;
      capacity = 64 }
  in
  let server = Server.for_model ~config the_model ~input_dims:the_dims () in
  let inputs = Array.init 12 (fun i -> rand_input (500 + i)) in
  let tickets = Array.map (Server.submit server) inputs in
  Server.shutdown server;
  Array.iteri
    (fun i ticket ->
      match Server.await ticket with
      | Server.Output row ->
          Alcotest.(check bool) "drained output bit-identical" true
            (tensor_equal_bits row (reference_row the_model the_dims inputs.(i)))
      | o -> Alcotest.failf "request %d: %s after drain" i (Server.outcome_label o))
    tickets

let test_shutdown_releases_server () =
  (* Once [shutdown] returns, nothing keeps the server reachable, so one
     full major GC frees it, every time: a cold start right after a
     shutdown never holds two models.  An 8 MB ballast behind the model
     closure makes a server that outlives its shutdown show in the heap;
     it comes in 1024 pieces, like a model's tensors (a single 8 MB block
     did not show a server kept alive by its worker domain's start
     closure). *)
  let heap_mb () =
    float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8. /. 1048576.
  in
  Gc.full_major ();
  let base = heap_mb () in
  for round = 1 to 10 do
    (let ballast = Array.init 1024 (fun _ -> Array.make 1024 round) in
     let model () =
       ignore (Sys.opaque_identity ballast);
       the_model
     in
     Server.shutdown (Server.start ~model ~input_dims:the_dims ()));
    Gc.full_major ();
    let h = heap_mb () in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: heap %.1f MB within 4 MB of %.1f MB" round h
         base)
      true
      (h < base +. 4.)
  done

let test_loadgen_closed_loop () =
  let server = Server.for_model the_model ~input_dims:the_dims () in
  let s =
    Loadgen.run ~server ~make_input:rand_input ~requests:20 ~concurrency:4 ()
  in
  Server.shutdown server;
  Alcotest.(check int) "all completed" 20 s.Loadgen.completed;
  Alcotest.(check int) "none shed" 0 s.Loadgen.rejected_overload;
  Alcotest.(check bool) "throughput positive" true (s.Loadgen.throughput > 0.0);
  Alcotest.(check bool) "p50 <= p99" true
    (s.Loadgen.latency_p50 <= s.Loadgen.latency_p99);
  let json = Loadgen.summary_to_json s in
  let contains needle =
    let ln = String.length needle and lj = String.length json in
    let rec go i = i + ln <= lj && (String.sub json i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary json has completed count" true
    (contains "\"completed\": 20")

(* A model that is cheap to run on a large image: one 4×4 stride-4
   conv (3→4 channels) into the GAP→Linear head. *)
let large_input_model () =
  let rng = Rng.create 17 in
  let g = Twq_nn.Graph.create () in
  let x = Twq_nn.Graph.input g in
  let c =
    Twq_nn.Graph.add g
      (Twq_nn.Graph.Conv
         {
           w = Tensor.rand_gaussian rng [| 4; 3; 4; 4 |] ~mu:0.0 ~sigma:0.3;
           bias = None;
           stride = 4;
           pad = 0;
         })
      [ x ]
  in
  let gap = Twq_nn.Graph.add g Twq_nn.Graph.Global_avg_pool [ c ] in
  let fc =
    Twq_nn.Graph.add g
      (Twq_nn.Graph.Linear
         { w = Tensor.rand_gaussian rng [| 2; 4 |] ~mu:0.0 ~sigma:0.5;
           bias = None })
      [ gap ]
  in
  Twq_nn.Graph.set_output g fc;
  let dims = [| 3; 128; 128 |] in
  let cal =
    Tensor.rand_gaussian rng (Array.append [| 1 |] dims) ~mu:0.0 ~sigma:1.0
  in
  (Model.Graph (Twq_nn.Int_graph.quantize g ~calibration:cal ()), dims)

(* Steady-state serving must not grow the heap.  Each batch input here
   (3×128×128 floats, 49152 words) is far above the minor-heap size
   limit, so a per-batch staging tensor would go straight to the major
   heap, which the GC barely advances while the only other domain idles
   in [await]: 400 batches would grow [heap_words] by many inputs.  With
   the staging tensors reused per worker, it must grow by less than
   one.  What does still grow comes in whole 4096-word pools (request
   bookkeeping promoted by minor collections), hence the large input.
   The kernel pool is pinned to one domain: with more, per-domain
   arenas fill in lazily as chunks first land on each domain, which
   says nothing about the server. *)
let test_staging_heap_flat () =
  Parallel.set_num_domains 1;
  Fun.protect ~finally:Parallel.clear_num_domains_override @@ fun () ->
  let model, dims = large_input_model () in
  let config =
    { Server.default_config with Server.max_batch = 1; max_delay = 0.0 }
  in
  let server = Server.for_model ~config model ~input_dims:dims () in
  let inputs = Array.init 4 (fun i -> rand_input ~dims (700 + i)) in
  let serve count =
    for i = 0 to count - 1 do
      match Server.await (Server.submit server inputs.(i mod 4)) with
      | Server.Output _ -> ()
      | o -> Alcotest.failf "request %d: %s" i (Server.outcome_label o)
    done
  in
  serve 50;
  (* Finish the major cycle earlier tests left running, so pools their
     garbage still holds do not count against this loop. *)
  Gc.full_major ();
  let h0 = (Gc.quick_stat ()).Gc.heap_words in
  serve 400;
  let h1 = (Gc.quick_stat ()).Gc.heap_words in
  Server.shutdown server;
  let input_words = Array.fold_left ( * ) 1 dims in
  if h1 - h0 >= input_words then
    Alcotest.failf "heap grew %d words over 400 batches (one input is %d)"
      (h1 - h0) input_words

(* -------------------------------------------------------------- batcher *)

let test_batcher_fifo_and_bounds () =
  let b = Batcher.create ~capacity:3 ~max_batch:2 ~max_delay:0.0 () in
  Alcotest.(check bool) "accept 1" true (Batcher.submit b 1 = Batcher.Accepted);
  Alcotest.(check bool) "accept 2" true (Batcher.submit b 2 = Batcher.Accepted);
  Alcotest.(check bool) "accept 3" true (Batcher.submit b 3 = Batcher.Accepted);
  Alcotest.(check bool) "overflow sheds" true
    (Batcher.submit b 4 = Batcher.Overloaded);
  (match Batcher.next_batch b with
  | Some ([ 1; 2 ], _) -> ()
  | Some (l, _) ->
      Alcotest.failf "wrong batch [%s]"
        (String.concat ";" (List.map string_of_int l))
  | None -> Alcotest.fail "no batch");
  (match Batcher.next_batch b with
  | Some ([ 3 ], _) -> ()
  | _ -> Alcotest.fail "expected tail batch [3]");
  Batcher.shutdown b;
  Alcotest.(check bool) "closed rejects" true (Batcher.submit b 5 = Batcher.Closed);
  Alcotest.(check bool) "drained -> None" true (Batcher.next_batch b = None)

let test_batcher_delay_window () =
  let b = Batcher.create ~capacity:16 ~max_batch:4 ~max_delay:0.05 () in
  ignore (Batcher.submit b 1);
  (* A second producer lands inside the window: the batch must contain
     both even though they were not simultaneous. *)
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.005;
        ignore (Batcher.submit b 2))
  in
  (match Batcher.next_batch b with
  | Some (l, _) ->
      Alcotest.(check (list int)) "window collects both" [ 1; 2 ] l
  | None -> Alcotest.fail "no batch");
  Domain.join d;
  Batcher.shutdown b

let test_batcher_close_submit_race () =
  (* Producers hammer submit while shutdown lands mid-stream: every
     submit must return a typed verdict (never raise, never block
     forever), and every Accepted item must be delivered by next_batch
     before it returns None — accepted work is never silently dropped. *)
  for trial = 0 to 7 do
    let b = Batcher.create ~capacity:64 ~max_batch:8 ~max_delay:0.0 () in
    let accepted = Atomic.make 0 in
    let drained = Atomic.make 0 in
    let consumer =
      Domain.spawn (fun () ->
          let rec go () =
            match Batcher.next_batch b with
            | Some (l, _) ->
                ignore (Atomic.fetch_and_add drained (List.length l));
                go ()
            | None -> ()
          in
          go ())
    in
    let producers =
      List.init 4 (fun p ->
          Domain.spawn (fun () ->
              for i = 0 to 63 do
                match Batcher.submit b ((p * 1000) + i) with
                | Batcher.Accepted -> Atomic.incr accepted
                | Batcher.Overloaded | Batcher.Closed -> ()
              done))
    in
    Unix.sleepf 0.002;
    Batcher.shutdown b;
    List.iter Domain.join producers;
    Domain.join consumer;
    Alcotest.(check int)
      (Printf.sprintf "trial %d: accepted = drained" trial)
      (Atomic.get accepted) (Atomic.get drained)
  done

(* ------------------------------------------------------------- registry *)

let publish_tiny reg ~name ~version ~seed =
  let model, dims = make_model ~res:8 ~width_div:4 ~seed () in
  match Registry.publish reg ~name ~version ~input_dims:dims model with
  | Ok e -> e
  | Error e -> Alcotest.failf "publish: %s" (Registry.error_to_string e)

let with_registry f =
  let dir = tmp_dir "twq_registry" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_registry_roundtrip () =
  with_registry (fun dir ->
      let reg =
        match Registry.open_dir dir with
        | Ok r -> r
        | Error e -> Alcotest.failf "open: %s" (Registry.error_to_string e)
      in
      let e = publish_tiny reg ~name:"m" ~version:1 ~seed:11 in
      (* Reload from disk in a fresh registry: the model must produce
         bit-identical outputs. *)
      let reg2 =
        match Registry.open_dir dir with
        | Ok r -> r
        | Error e -> Alcotest.failf "reopen: %s" (Registry.error_to_string e)
      in
      match Registry.lookup reg2 "m" with
      | Error e -> Alcotest.failf "lookup: %s" (Registry.error_to_string e)
      | Ok e2 ->
          Alcotest.(check int) "version" 1 e2.Registry.version;
          Alcotest.(check int) "crc stable" e.Registry.crc e2.Registry.crc;
          let x = Tensor.zeros [| 1; 3; 8; 8 |] in
          Alcotest.(check bool) "reloaded model bit-identical" true
            (tensor_equal_bits
               (Model.run_batch e.Registry.model x)
               (Model.run_batch e2.Registry.model x)))

let test_registry_orphan_tmp_cleanup () =
  with_registry (fun dir ->
      let reg =
        match Registry.open_dir dir with
        | Ok r -> r
        | Error e -> Alcotest.failf "open: %s" (Registry.error_to_string e)
      in
      ignore (publish_tiny reg ~name:"m" ~version:1 ~seed:11);
      (* Simulate a writer killed mid-publish. *)
      write_raw (Filename.concat dir "m@v2.twqm.tmp") "half-written";
      write_raw (Filename.concat dir "other@v1.twqm.tmp") "also dead";
      let reg2 =
        match Registry.open_dir dir with
        | Ok r -> r
        | Error e -> Alcotest.failf "reopen: %s" (Registry.error_to_string e)
      in
      Alcotest.(check int) "orphans removed" 2
        (List.length (Registry.orphans_removed reg2));
      Alcotest.(check bool) "tmp files gone" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir));
      Alcotest.(check bool) "real artifact survives" true
        (Result.is_ok (Registry.lookup reg2 "m")))

let test_registry_corrupt_artifact_skipped () =
  with_registry (fun dir ->
      let reg = Result.get_ok (Registry.open_dir dir) in
      ignore (publish_tiny reg ~name:"m" ~version:1 ~seed:11);
      let file = Filename.concat dir "m@v1.twqm" in
      let raw = read_raw file in
      (* Flip one payload byte, far from the header. *)
      let b = Bytes.of_string raw in
      let pos = Bytes.length b - 7 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
      write_raw file (Bytes.to_string b);
      let reg2 = Result.get_ok (Registry.open_dir dir) in
      Alcotest.(check bool) "lookup fails" true
        (Result.is_error (Registry.lookup reg2 "m"));
      match Registry.skipped reg2 with
      | [ (_, Registry.Corrupt_artifact _) ] -> ()
      | [ (_, e) ] ->
          Alcotest.failf "wrong error: %s" (Registry.error_to_string e)
      | l -> Alcotest.failf "expected one skipped artifact, got %d" (List.length l))

(* --------------------------------------------- legacy net artifacts *)

(* A registry artifact written by the retired Deploy runtime: header kind
   [net], payload [twq-int8-net v1] (a VGG-mini), committed with the
   logits that runtime's planned forward gave on a recorded batch.  It
   must still open, serve exactly those logits, and run a compiled plan
   that agrees with the graph oracle. *)
let test_legacy_net_artifact () =
  let reg =
    match Registry.open_dir "legacy_net" with
    | Ok r -> r
    | Error e -> Alcotest.failf "open: %s" (Registry.error_to_string e)
  in
  Alcotest.(check int) "nothing skipped" 0 (List.length (Registry.skipped reg));
  let e =
    match Registry.lookup reg "vgg-mini" with
    | Ok e -> e
    | Error e -> Alcotest.failf "lookup: %s" (Registry.error_to_string e)
  in
  let g =
    match e.Registry.model with
    | Model.Graph g -> g
    | Model.Net _ -> Alcotest.fail "legacy payload loaded as Net"
  in
  let r = Serialize.reader_of_string (read_raw "legacy_net_logits.txt") in
  let x = Serialize.read_tensor r in
  let expected = Serialize.read_tensor r in
  Alcotest.(check bool) "batch logits bit-identical to the recorded ones" true
    (tensor_equal_bits expected (Model.run_batch e.Registry.model x));
  Alcotest.(check bool) "run == run_ref" true
    (tensor_equal_bits (Twq_nn.Int_graph.run_ref g x) (Twq_nn.Int_graph.run g x));
  let dims = e.Registry.input_dims in
  let server = Server.for_model e.Registry.model ~input_dims:dims () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let classes = Tensor.dim expected 1 and numel = Array.fold_left ( * ) 1 dims in
      for i = 0 to Tensor.dim x 0 - 1 do
        let xi = Tensor.zeros dims in
        Array.blit x.Tensor.data (i * numel) xi.Tensor.data 0 numel;
        match Server.infer server xi with
        | Server.Output row ->
            Alcotest.(check bool)
              (Printf.sprintf "served row %d bit-identical" i)
              true
              (tensor_equal_bits
                 (Tensor.of_array [| classes |]
                    (Array.sub expected.Tensor.data (i * classes) classes))
                 row)
        | o -> Alcotest.failf "infer %d: %s" i (Server.outcome_label o)
      done)

(* ----------------------------------------- graph structure validation *)

(* A small quantized graph crossing every parameterized op: Winograd
   conv, ReLU, max-pool, upsample, leaky ReLU, residual add, 1x1 spatial
   conv, concat and the head. *)
let structure_graph =
  lazy
    (let module G = Twq_nn.Graph in
     let rng = Rng.create 71 in
     let g = G.create () in
     let conv ~k src cin cout =
       G.add g
         (G.Conv
            { w = Tensor.rand_gaussian rng [| cout; cin; k; k |] ~mu:0.0 ~sigma:0.3;
              bias = None; stride = 1; pad = k / 2 })
         [ src ]
     in
     let r = G.add g G.Relu [ conv ~k:3 (G.input g) 3 4 ] in
     let p = G.add g (G.Max_pool { k = 2; stride = 2 }) [ r ] in
     let u = G.add g (G.Upsample 2) [ p ] in
     let l = G.add g (G.Leaky_relu 2) [ u ] in
     let a = G.add g G.Add [ r; l ] in
     let c = G.add g G.Concat [ a; conv ~k:1 a 4 2 ] in
     let gap = G.add g G.Global_avg_pool [ c ] in
     G.set_output g
       (G.add g (G.Linear { w = Tensor.rand_gaussian rng [| 3; 6 |] ~mu:0.0 ~sigma:0.5;
                            bias = None }) [ gap ]);
     let cal = Tensor.rand_gaussian rng [| 2; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
     Twq_nn.Int_graph.to_string (Twq_nn.Int_graph.quantize g ~calibration:cal ()))

let token k line = List.nth (String.split_on_char ' ' line) k

(* Replace token [k] of a space-separated line. *)
let set_token k v line =
  String.concat " "
    (List.mapi (fun i t -> if i = k then v else t) (String.split_on_char ' ' line))

(* Apply [edit] to the serialized graph at the first node whose op line
   starts with [tag]; [edit lines ~id ~h] sees the text's lines, the
   node's id and the index of its header line "node <n_inputs> <scale>
   <inputs> " (the op line follows it).  Returns the id and the text. *)
let mutate tag edit text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let headers =
    List.filter (fun h -> token 0 lines.(h) = "node")
      (List.init (Array.length lines - 1) Fun.id)
  in
  let id, h =
    List.find (fun (_, h) -> token 0 lines.(h + 1) = tag)
      (List.mapi (fun id h -> (id, h)) headers)
  in
  edit lines ~id ~h;
  (id, String.concat "\n" (Array.to_list lines))

let on_header f lines ~id:_ ~h = lines.(h) <- f lines.(h)
let on_op f lines ~id:_ ~h = lines.(h + 1) <- f lines.(h + 1)

(* Line 1 is "meta <nodes> <out>". *)
let graph_mutations =
  [
    ( "output names a non-head node",
      "relu",
      fun lines ~id ~h:_ -> lines.(1) <- set_token 2 (string_of_int id) lines.(1) );
    ( "input from a later node",
      "relu",
      fun lines ~id:_ ~h ->
        let later = int_of_string (token 1 lines.(1)) - 2 in
        lines.(h) <- set_token 3 (string_of_int later) lines.(h) );
    ("relu with no input", "relu", on_header (fun h -> "node 0 " ^ token 2 h ^ " "));
    ("add with one input", "add", on_header (fun h -> set_token 1 "1" (set_token 4 "" h)));
    ("max-pool k 0", "max-pool", on_op (set_token 1 "0"));
    ("max-pool stride 0", "max-pool", on_op (set_token 2 "0"));
    ("upsample factor 0", "upsample", on_op (set_token 1 "0"));
    ("leaky shift 63", "leaky", on_op (set_token 1 "63"));
    ("add shift 63", "add", on_op (set_token 1 "63"));
    ("concat shift -1", "concat", on_op (set_token 2 "-1"));
  ]

let contains s needle =
  let n = String.length needle in
  let rec at i = i + n <= String.length s && (String.sub s i n = needle || at (i + 1)) in
  at 0

(* Each mutation loads at the parse layer as an error naming the node,
   and a registry holding it skips it as a bad artifact. *)
let test_graph_mutation (tag, edit) () =
  let node, payload = mutate tag edit (Lazy.force structure_graph) in
  (match Model.of_string payload with
  | Ok _ -> Alcotest.fail "mutated graph accepted"
  | Error msg ->
      let needle = Printf.sprintf "node %d" node in
      if not (contains msg needle) then Alcotest.failf "message %S lacks %S" msg needle);
  with_registry (fun dir ->
      write_raw
        (Filename.concat dir "bad@v1.twqm")
        (Printf.sprintf "twq-model v1 bad 1 graph 3 8 8 %d %08x\n%s"
           (String.length payload) (Crc32.digest payload) payload);
      match Registry.skipped (Result.get_ok (Registry.open_dir dir)) with
      | [ (_, Registry.Bad_artifact _) ] -> ()
      | [ (_, e) ] -> Alcotest.failf "wrong error: %s" (Registry.error_to_string e)
      | l -> Alcotest.failf "expected one skipped artifact, got %d" (List.length l))

let test_structure_graph_loads () =
  match Model.of_string (Lazy.force structure_graph) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "unmutated graph rejected: %s" msg

let test_registry_hot_swap () =
  with_registry (fun dir ->
      let reg = Result.get_ok (Registry.open_dir dir) in
      let e1 = publish_tiny reg ~name:"m" ~version:1 ~seed:11 in
      let e2 = publish_tiny reg ~name:"m" ~version:2 ~seed:99 in
      Alcotest.(check bool) "distinct models" true (e1.Registry.crc <> e2.Registry.crc);
      (match Registry.lookup reg "m" with
      | Ok e -> Alcotest.(check int) "newest wins" 2 e.Registry.version
      | Error e -> Alcotest.failf "lookup: %s" (Registry.error_to_string e));
      (match Registry.lookup ~version:1 reg "m" with
      | Ok e -> Alcotest.(check int) "pinned version" 1 e.Registry.version
      | Error e -> Alcotest.failf "lookup v1: %s" (Registry.error_to_string e));
      (* A server resolving through the registry flips between batches. *)
      let x = rand_input 5 in
      let resolve () = (Result.get_ok (Registry.lookup reg "m")).Registry.model in
      let server = Server.start ~model:resolve ~input_dims:the_dims () in
      let y2 =
        match Server.infer server x with
        | Server.Output row -> row
        | o -> Alcotest.failf "infer: %s" (Server.outcome_label o)
      in
      Alcotest.(check bool) "serves v2" true
        (tensor_equal_bits y2 (reference_row e2.Registry.model the_dims x));
      Server.shutdown server;
      Alcotest.(check bool) "names lists both versions" true
        (Registry.names reg = [ ("m", [ 2; 1 ]) ]))

(* Hot-swapping must leave the server with compiled plans for the new
   artifact: the initial model is warmed at [start], a swapped-in model
   at its first batch — after that no request plans anything. *)
let plan_shapes (Model.Graph g | Model.Net g) =
  Twq_nn.Plan.cached_shapes (Option.get (Twq_nn.Int_graph.plans g))

let test_hot_swap_rebuilds_plans () =
  with_registry (fun dir ->
      let reg = Result.get_ok (Registry.open_dir dir) in
      let e1 = publish_tiny reg ~name:"m" ~version:1 ~seed:11 in
      let resolve () = (Result.get_ok (Registry.lookup reg "m")).Registry.model in
      let config = { Server.default_config with Server.max_batch = 4 } in
      let server = Server.start ~config ~model:resolve ~input_dims:the_dims () in
      (* Initial model warmed at start: one plan per servable batch size. *)
      Alcotest.(check int) "v1 warmed for all batch sizes" 4
        (List.length (plan_shapes e1.Registry.model));
      let x = rand_input 5 in
      (match Server.infer server x with
      | Server.Output _ -> ()
      | o -> Alcotest.failf "infer v1: %s" (Server.outcome_label o));
      (* Swap in v2: a fresh artifact with no compiled plans yet. *)
      let e2 = publish_tiny reg ~name:"m" ~version:2 ~seed:99 in
      Alcotest.(check int) "v2 starts unplanned" 0
        (List.length (plan_shapes e2.Registry.model));
      let y2 =
        match Server.infer server x with
        | Server.Output row -> row
        | o -> Alcotest.failf "infer v2: %s" (Server.outcome_label o)
      in
      Server.shutdown server;
      (* The swapped model got its own plans, and the served row is
         bit-identical to running the new artifact directly. *)
      Alcotest.(check int) "v2 warmed after swap" 4
        (List.length (plan_shapes e2.Registry.model));
      Alcotest.(check bool) "serves v2 bit-identically" true
        (tensor_equal_bits y2 (reference_row e2.Registry.model the_dims x)))

(* Two-phase publish, registry side: [resolve] follows the newest
   version until one is pinned, staging never shifts a pinned pointer,
   and [activate] only flips to versions that actually exist. *)
let test_registry_activate_resolve () =
  with_registry (fun dir ->
      let reg = Result.get_ok (Registry.open_dir dir) in
      ignore (publish_tiny reg ~name:"m" ~version:1 ~seed:11);
      (match Registry.resolve reg "m" with
      | Ok e -> Alcotest.(check int) "unpinned resolves newest" 1 e.Registry.version
      | Error e -> Alcotest.failf "resolve: %s" (Registry.error_to_string e));
      Alcotest.(check (option int)) "nothing active yet" None
        (Registry.active_version reg "m");
      (match Registry.activate reg ~name:"m" ~version:1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "activate: %s" (Registry.error_to_string e));
      Alcotest.(check (option int)) "v1 pinned" (Some 1)
        (Registry.active_version reg "m");
      (* Staging v2 must not move the pinned pointer (phase one of a
         fleet publish leaves every shard serving its old version). *)
      ignore (publish_tiny reg ~name:"m" ~version:2 ~seed:99);
      (match Registry.resolve reg "m" with
      | Ok e -> Alcotest.(check int) "staged v2 doesn't serve" 1 e.Registry.version
      | Error e -> Alcotest.failf "resolve: %s" (Registry.error_to_string e));
      (* Phase two flips it. *)
      (match Registry.activate reg ~name:"m" ~version:2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "activate v2: %s" (Registry.error_to_string e));
      (match Registry.resolve reg "m" with
      | Ok e -> Alcotest.(check int) "flipped to v2" 2 e.Registry.version
      | Error e -> Alcotest.failf "resolve: %s" (Registry.error_to_string e));
      (* Only staged versions may be activated. *)
      match Registry.activate reg ~name:"m" ~version:7 with
      | Error (Registry.No_such_model _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Registry.error_to_string e)
      | Ok () -> Alcotest.fail "activated a version that was never staged")

let test_registry_refresh_prunes_active () =
  with_registry (fun dir ->
      let reg = Result.get_ok (Registry.open_dir dir) in
      ignore (publish_tiny reg ~name:"m" ~version:1 ~seed:11);
      ignore (publish_tiny reg ~name:"m" ~version:2 ~seed:99);
      (match Registry.activate reg ~name:"m" ~version:2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "activate: %s" (Registry.error_to_string e));
      (* Delete the active artifact behind the registry's back; refresh
         must drop the dangling pointer, and resolve falls back to the
         newest surviving version instead of erroring. *)
      Sys.remove (Filename.concat dir "m@v2.twqm");
      (match Registry.refresh reg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "refresh: %s" (Registry.error_to_string e));
      Alcotest.(check (option int)) "dangling pointer pruned" None
        (Registry.active_version reg "m");
      match Registry.resolve reg "m" with
      | Ok e -> Alcotest.(check int) "falls back to v1" 1 e.Registry.version
      | Error e -> Alcotest.failf "resolve: %s" (Registry.error_to_string e))

let test_registry_rejects_bad_names () =
  with_registry (fun dir ->
      let reg = Result.get_ok (Registry.open_dir dir) in
      let model, dims = (the_model, the_dims) in
      match Registry.publish reg ~name:"bad name" ~version:1 ~input_dims:dims model with
      | Error (Registry.Bad_name _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Registry.error_to_string e)
      | Ok _ -> Alcotest.fail "accepted a name with spaces")

(* ------------------------------------------------------- crc32 / metrics *)

let test_crc32_known_vector () =
  Alcotest.(check int) "crc32 check vector" 0xCBF43926 (Crc32.digest "123456789");
  Alcotest.(check int) "checkpoint delegates to Crc32" (Crc32.digest "payload")
    (Checkpoint.crc32 "payload");
  Alcotest.(check int) "digest_sub windows" (Crc32.digest "345")
    (Crc32.digest_sub "123456789" ~pos:2 ~len:3)

let test_histogram_quantiles () =
  let h = Metrics.Histogram.create "t" in
  for i = 1 to 100 do
    Metrics.Histogram.observe h (float_of_int i *. 1e-3)
  done;
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
  let within q lo hi =
    let v = Metrics.Histogram.quantile h q in
    v >= lo && v <= hi
  in
  (* Log buckets are exact to within one bucket width (2^1/4 ≈ 19%). *)
  Alcotest.(check bool) "p50 near 50ms" true (within 0.50 0.045 0.065);
  Alcotest.(check bool) "p99 near 99ms" true (within 0.99 0.09 0.125);
  Alcotest.(check bool) "mean exact" true
    (Float.abs (Metrics.Histogram.mean h -. 0.0505) < 1e-9)

let test_metrics_json_snapshot () =
  let server = Server.for_model the_model ~input_dims:the_dims () in
  (match Server.infer server (rand_input 9) with
  | Server.Output _ -> ()
  | o -> Alcotest.failf "infer: %s" (Server.outcome_label o));
  Server.shutdown server;
  let json = Metrics.to_json (Server.metrics server) in
  List.iter
    (fun needle ->
      let contains =
        let ln = String.length needle and lj = String.length json in
        let rec go i = i + ln <= lj && (String.sub json i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("json contains " ^ needle) true contains)
    [
      "\"counters\""; "\"completed\": 1"; "\"histograms\""; "\"queue_wait\"";
      "\"batch_assembly\""; "\"compute\""; "\"p99"; "\"batch_size\"";
    ]

let () =
  Alcotest.run "serve"
    [
      ( "batching",
        [
          QCheck_alcotest.to_alcotest prop_batching_bit_identical;
          Alcotest.test_case "waves stay bit-identical" `Quick
            test_batch_submit_after_await;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overload sheds typed" `Quick
            test_overload_sheds_typed;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "invalid shape + closed" `Quick
            test_invalid_shape_and_closed;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
          Alcotest.test_case "shutdown releases the server" `Quick
            test_shutdown_releases_server;
          Alcotest.test_case "loadgen closed loop" `Quick
            test_loadgen_closed_loop;
          Alcotest.test_case "steady state keeps the heap flat" `Quick
            test_staging_heap_flat;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "fifo + bounds" `Quick test_batcher_fifo_and_bounds;
          Alcotest.test_case "delay window" `Quick test_batcher_delay_window;
          Alcotest.test_case "close/submit race" `Quick
            test_batcher_close_submit_race;
        ] );
      ( "registry",
        [
          Alcotest.test_case "roundtrip" `Quick test_registry_roundtrip;
          Alcotest.test_case "orphan tmp cleanup" `Quick
            test_registry_orphan_tmp_cleanup;
          Alcotest.test_case "corrupt artifact skipped" `Quick
            test_registry_corrupt_artifact_skipped;
          Alcotest.test_case "hot swap" `Quick test_registry_hot_swap;
          Alcotest.test_case "hot swap rebuilds plans" `Quick
            test_hot_swap_rebuilds_plans;
          Alcotest.test_case "activate + resolve" `Quick
            test_registry_activate_resolve;
          Alcotest.test_case "refresh prunes active" `Quick
            test_registry_refresh_prunes_active;
          Alcotest.test_case "bad names rejected" `Quick
            test_registry_rejects_bad_names;
          Alcotest.test_case "legacy net artifact serves its logits" `Quick
            test_legacy_net_artifact;
        ] );
      ( "structure",
        Alcotest.test_case "unmutated graph loads" `Quick test_structure_graph_loads
        :: List.map
             (fun (name, tag, edit) ->
               Alcotest.test_case ("rejects " ^ name) `Quick
                 (test_graph_mutation (tag, edit)))
             graph_mutations );
      ( "metrics",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_known_vector;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "metrics json snapshot" `Quick
            test_metrics_json_snapshot;
        ] );
    ]
