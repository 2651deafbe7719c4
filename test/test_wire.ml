(* Wire-protocol tests (PR 6): qcheck round-trips of arbitrary messages
   (floats compared bit-for-bit, specials included), resumable decoding
   under arbitrary chunking, typed errors for truncation / corruption /
   oversize / unknown tags — and the acceptance property: a request
   served over the socket is bit-identical to the same input run through
   the model directly. *)

module Tensor = Twq_tensor.Tensor
module Rng = Twq_util.Rng
module Crc32 = Twq_util.Crc32
module Wire = Twq_serve.Wire
module Model = Twq_serve.Model
module Registry = Twq_serve.Registry
module Server = Twq_serve.Server
module Shard_client = Twq_serve.Shard_client
module Router = Twq_serve.Router
module Microkernel = Twq_winograd.Microkernel

(* ------------------------------------------------------------- gens *)

(* Floats that must survive bit-exactly, not just approximately. *)
let special_floats =
  [|
    0.0; -0.0; 1.0; -1.0; Float.infinity; Float.neg_infinity; Float.nan;
    Float.min_float; Float.max_float; 4.9e-324 (* subnormal *); 0.1; -3.25e17;
  |]

let gen_float =
  QCheck.Gen.(
    oneof
      [
        (fun st ->
          special_floats.(int_bound (Array.length special_floats - 1) st));
        float;
      ])

let gen_farr = QCheck.Gen.(array_size (int_bound 40) gen_float)
let gen_str = QCheck.Gen.(string_size (int_bound 60))
let gen_dims = QCheck.Gen.(array_size (int_bound 4) (int_range 0 4096))

let gen_outcome =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun queue_wait service data ->
            Wire.Logits { queue_wait; service; data })
          gen_float gen_float gen_farr;
        return Wire.Overloaded;
        return Wire.Expired;
        map (fun m -> Wire.Invalid m) gen_str;
        return Wire.Closed;
        map (fun m -> Wire.Failed m) gen_str;
        return Wire.No_model;
        map (fun m -> Wire.Unavailable m) gen_str;
      ])

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        (let* key = gen_str in
         let* deadline = opt gen_float in
         let* dims = gen_dims in
         let* data = gen_farr in
         return (Wire.Infer { key; deadline; dims; data }));
        map (fun o -> Wire.Infer_reply o) gen_outcome;
        return Wire.Ping;
        (let* healthy = bool in
         let* queue_depth = int_bound 10_000 in
         let* capacity = int_bound 10_000 in
         let* draining = bool in
         return (Wire.Pong { healthy; queue_depth; capacity; draining }));
        (let* name = gen_str in
         let* version = int_bound 1000 in
         let* input_dims = gen_dims in
         let* payload = string_size (int_bound 500) in
         return (Wire.Publish { name; version; input_dims; payload }));
        (let* ok = bool in
         let* reason = gen_str in
         return (Wire.Publish_reply { ok; reason }));
        (let* name = gen_str in
         let* version = int_bound 1000 in
         return (Wire.Activate { name; version }));
        (let* ok = bool in
         let* reason = gen_str in
         return (Wire.Activate_reply { ok; reason }));
        map (fun name -> Wire.Model_info { name }) gen_str;
        (let* active = opt (int_bound 1000) in
         let* versions = list_size (int_bound 8) (int_bound 1000) in
         return (Wire.Model_info_reply { active; versions }));
        return Wire.Stats;
        map (fun s -> Wire.Stats_reply s) (string_size (int_bound 300));
        return Wire.Drain;
        return Wire.Drain_reply;
        map (fun s -> Wire.Nack s) gen_str;
      ])

let gen_id = QCheck.Gen.(map Int64.of_int int)
let arb_msg = QCheck.make QCheck.Gen.(pair gen_id gen_msg)

(* Structural equality with bit-exact floats (nan <> nan under [=]). *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let farr_eq a b = Array.length a = Array.length b && Array.for_all2 feq a b

let opt_feq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> feq x y
  | _ -> false

let outcome_eq a b =
  match (a, b) with
  | ( Wire.Logits { queue_wait = q1; service = s1; data = d1 },
      Wire.Logits { queue_wait = q2; service = s2; data = d2 } ) ->
      feq q1 q2 && feq s1 s2 && farr_eq d1 d2
  | Wire.Overloaded, Wire.Overloaded
  | Wire.Expired, Wire.Expired
  | Wire.Closed, Wire.Closed
  | Wire.No_model, Wire.No_model ->
      true
  | Wire.Invalid a, Wire.Invalid b
  | Wire.Failed a, Wire.Failed b
  | Wire.Unavailable a, Wire.Unavailable b ->
      a = b
  | _ -> false

let msg_eq a b =
  match (a, b) with
  | ( Wire.Infer { key = k1; deadline = dl1; dims = di1; data = da1 },
      Wire.Infer { key = k2; deadline = dl2; dims = di2; data = da2 } ) ->
      k1 = k2 && opt_feq dl1 dl2 && di1 = di2 && farr_eq da1 da2
  | Wire.Infer_reply a, Wire.Infer_reply b -> outcome_eq a b
  | a, b -> a = b (* remaining constructors carry no floats *)

(* -------------------------------------------------------- roundtrip *)

let prop_roundtrip =
  QCheck.Test.make ~name:"wire: encode/decode round-trips bit-exactly"
    ~count:500 arb_msg (fun (id, msg) ->
      match Wire.decode_string (Wire.encode ~id msg) with
      | Ok (id', msg') -> Int64.equal id id' && msg_eq msg msg'
      | Error e -> QCheck.Test.fail_reportf "%s" (Wire.error_to_string e))

let prop_chunked_resumption =
  QCheck.Test.make
    ~name:"wire: decoder resumes across arbitrary chunk boundaries" ~count:60
    QCheck.(
      make
        Gen.(
          let* msgs = list_size (int_range 1 5) (pair gen_id gen_msg) in
          let* chunk = int_range 1 7 in
          return (msgs, chunk)))
    (fun (msgs, chunk) ->
      let stream =
        String.concat "" (List.map (fun (id, m) -> Wire.encode ~id m) msgs)
      in
      let d = Wire.decoder () in
      let got = ref [] in
      let pos = ref 0 in
      let drain () =
        let continue = ref true in
        while !continue do
          match Wire.next d with
          | `Frame f -> got := f :: !got
          | `Need_more -> continue := false
          | `Error e -> QCheck.Test.fail_reportf "%s" (Wire.error_to_string e)
        done
      in
      while !pos < String.length stream do
        let len = min chunk (String.length stream - !pos) in
        Wire.feed d ~pos:!pos ~len stream;
        pos := !pos + len;
        drain ()
      done;
      let got = List.rev !got in
      List.length got = List.length msgs
      && List.for_all2
           (fun (id, m) (id', m') -> Int64.equal id id' && msg_eq m m')
           msgs got)

(* ------------------------------------------------------ typed errors *)

let prop_truncation =
  QCheck.Test.make ~name:"wire: every proper prefix is Truncated" ~count:100
    arb_msg (fun (id, msg) ->
      let s = Wire.encode ~id msg in
      (* Check a handful of prefix lengths, always including the
         near-complete one. *)
      let cuts =
        [ 0; 1; 4; 5; 17; String.length s / 2; String.length s - 1 ]
        |> List.filter (fun n -> n >= 0 && n < String.length s)
      in
      List.for_all
        (fun n ->
          match Wire.decode_string (String.sub s 0 n) with
          | Error Wire.Truncated -> true
          | Error e ->
              QCheck.Test.fail_reportf "prefix %d: %s" n
                (Wire.error_to_string e)
          | Ok _ -> QCheck.Test.fail_reportf "prefix %d decoded" n)
        cuts)

let prop_byte_flip =
  QCheck.Test.make ~name:"wire: any single flipped byte is a typed error"
    ~count:150
    QCheck.(
      make
        Gen.(
          let* id_msg = pair gen_id gen_msg in
          let* pos = int_bound 10_000 in
          let* bit = int_range 0 7 in
          return (id_msg, pos, bit)))
    (fun ((id, msg), pos, bit) ->
      let s = Wire.encode ~id msg in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match Wire.decode_string (Bytes.to_string b) with
      | Error _ -> true (* which error depends on where the flip landed *)
      | Ok (id', msg') ->
          (* A flip inside the id field keeps the CRC over it... no — the
             CRC covers bytes [4, end), so any flip must be caught. *)
          QCheck.Test.fail_reportf "flip at %d accepted (id %Ld->%Ld, eq %b)"
            pos id id' (msg_eq msg msg'))

let test_trailing () =
  let s = Wire.encode ~id:7L Wire.Ping ^ "xx" in
  match Wire.decode_string s with
  | Error (Wire.Trailing 2) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "decoded with trailing bytes"

let test_oversized () =
  let s = Wire.encode ~id:1L (Wire.Nack (String.make 256 'a')) in
  match Wire.decode_string ~max_frame:64 s with
  | Error (Wire.Oversized { limit = 64; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame decoded"

(* Rewrite one header byte and fix the CRC back up, so the *semantic*
   check (not the checksum) must catch the problem. *)
let patch_byte_and_fix_crc s ~pos ~value =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr value);
  let crc = Crc32.digest_sub (Bytes.to_string b) ~pos:4 ~len:(Bytes.length b - 8) in
  for i = 0 to 3 do
    Bytes.set b (Bytes.length b - 4 + i) (Char.chr ((crc lsr (8 * i)) land 0xff))
  done;
  Bytes.to_string b

let test_unknown_tag_valid_crc () =
  let s = patch_byte_and_fix_crc (Wire.encode ~id:1L Wire.Ping) ~pos:5 ~value:200 in
  match Wire.decode_string s with
  | Error (Wire.Unknown_tag 200) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "unknown tag decoded"

let test_bad_version_valid_crc () =
  let s = patch_byte_and_fix_crc (Wire.encode ~id:1L Wire.Ping) ~pos:4 ~value:9 in
  match Wire.decode_string s with
  | Error (Wire.Unsupported_version 9) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad version decoded"

let test_bad_magic () =
  let b = Bytes.of_string (Wire.encode ~id:1L Wire.Ping) in
  Bytes.set b 0 'X';
  match Wire.decode_string (Bytes.to_string b) with
  | Error Wire.Bad_magic -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "bad magic decoded"

let test_decoder_poisons () =
  let d = Wire.decoder () in
  Wire.feed d "not a frame at all!!";
  (match Wire.next d with
  | `Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (* Feeding a perfectly good frame afterwards must not resurrect it. *)
  Wire.feed d (Wire.encode ~id:1L Wire.Ping);
  match Wire.next d with
  | `Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "poisoned decoder accepted input"

(* ------------------------------------------- daemon: wire == in-process *)

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

let make_model ?(res = 8) ?(width_div = 4) ~seed () =
  let rng = Rng.create seed in
  let g = Twq_nn.Passes.fold_bn (Twq_nn.Gmodels.resnet20 ~rng ~width_div ()) in
  let cal = Tensor.rand_gaussian rng [| 2; 3; res; res |] ~mu:0.0 ~sigma:1.0 in
  ( Model.Graph (Twq_nn.Int_graph.quantize g ~calibration:cal ()),
    [| 3; res; res |] )

let reference_row model dims x =
  let c = dims.(0) and h = dims.(1) and w = dims.(2) in
  let x1 = Tensor.zeros [| 1; c; h; w |] in
  Array.blit x.Tensor.data 0 x1.Tensor.data 0 (c * h * w);
  let y = Model.run_batch model x1 in
  let classes = Tensor.dim y 1 in
  Array.sub y.Tensor.data 0 classes

let with_daemon ?config f =
  let dir = tmp_dir "twq_wire" in
  let sock = Filename.temp_file "twq_wire" ".sock" in
  Sys.remove sock;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let model, dims = make_model ~seed:3 () in
      let reg = Result.get_ok (Registry.open_dir dir) in
      (match Registry.publish reg ~name:"m" ~version:1 ~input_dims:dims model with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "publish: %s" (Registry.error_to_string e));
      match Server.listen ?config ~registry:reg ~path:sock () with
      | Error e -> Alcotest.failf "listen: %s" e
      | Ok d ->
          Fun.protect
            ~finally:(fun () -> Server.stop_daemon d)
            (fun () -> f d ~sock ~model ~dims))

let connect sock =
  match Shard_client.connect sock with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Shard_client.error_to_string e)

let prop_daemon_bit_identical () =
  (* The acceptance criterion: logits served over the socket are
     bit-identical to in-process execution of the same input. *)
  with_daemon (fun _d ~sock ~model ~dims ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          QCheck.Test.check_exn
            (QCheck.Test.make ~name:"wire infer == direct run_batch"
               ~count:25
               QCheck.(make Gen.(int_bound 100_000))
               (fun seed ->
                 let rng = Rng.create seed in
                 let x =
                   Tensor.rand_gaussian rng dims ~mu:0.0 ~sigma:1.0
                 in
                 match Shard_client.infer c x with
                 | Ok { outcome = Wire.Logits { data; _ }; _ } ->
                     farr_eq data (reference_row model dims x)
                 | Ok { outcome; _ } ->
                     QCheck.Test.fail_reportf "outcome %s"
                       (match outcome with
                       | Wire.Overloaded -> "overloaded"
                       | Wire.Expired -> "expired"
                       | Wire.Invalid m -> "invalid: " ^ m
                       | Wire.Closed -> "closed"
                       | Wire.Failed m -> "failed: " ^ m
                       | Wire.No_model -> "no model"
                       | Wire.Unavailable m -> "unavailable: " ^ m
                       | Wire.Logits _ -> assert false)
                 | Error e ->
                     QCheck.Test.fail_reportf "%s"
                       (Shard_client.error_to_string e)))))

let test_daemon_control_plane () =
  with_daemon (fun _d ~sock ~model:_ ~dims:_ ->
      let c = connect sock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          (match Shard_client.ping c with
          | Ok (Wire.Pong { healthy; draining; _ }) ->
              Alcotest.(check bool) "healthy" true healthy;
              Alcotest.(check bool) "not draining" false draining
          | Ok _ -> Alcotest.fail "expected Pong"
          | Error e -> Alcotest.failf "ping: %s" (Shard_client.error_to_string e));
          (match Shard_client.model_info c ~name:"m" with
          | Ok (active, versions) ->
              Alcotest.(check (option int)) "active v1" (Some 1) active;
              Alcotest.(check (list int)) "versions" [ 1 ] versions
          | Error e ->
              Alcotest.failf "model_info: %s" (Shard_client.error_to_string e));
          (match Shard_client.stats c with
          | Ok json ->
              Alcotest.(check bool) "stats mentions serving" true
                (String.length json > 0
                && String.sub json 0 1 = "{")
          | Error e -> Alcotest.failf "stats: %s" (Shard_client.error_to_string e));
          (match Shard_client.drain c with
          | Ok () -> ()
          | Error e -> Alcotest.failf "drain: %s" (Shard_client.error_to_string e));
          (* After drain: infers refused (typed), pong reports draining. *)
          let x = Tensor.zeros [| 3; 8; 8 |] in
          (match Shard_client.infer c x with
          | Ok { outcome = Wire.Closed; _ } -> ()
          | Ok _ -> Alcotest.fail "expected Closed after drain"
          | Error e -> Alcotest.failf "infer: %s" (Shard_client.error_to_string e));
          match Shard_client.ping c with
          | Ok (Wire.Pong { draining; _ }) ->
              Alcotest.(check bool) "draining" true draining
          | Ok _ -> Alcotest.fail "expected Pong"
          | Error e -> Alcotest.failf "ping: %s" (Shard_client.error_to_string e)))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A client that breaks framing gets dropped without a reply and counted
   as a decode error; a fresh connection still works (per-connection
   decoder state).  Shard and router share the front end, so both are
   driven the same way. *)
let test_daemon_rejects_garbage () =
  with_daemon (fun _d ~sock ~model:_ ~dims:_ ->
      let rsock = Filename.temp_file "twq_wire_rt" ".sock" in
      Sys.remove rsock;
      match Router.start ~shards:[ sock ] ~path:rsock () with
      | Error e -> Alcotest.failf "router: %s" e
      | Ok r ->
          Fun.protect
            ~finally:(fun () ->
              Router.stop r;
              if Sys.file_exists rsock then Sys.remove rsock)
            (fun () ->
              List.iter
                (fun (what, path) ->
                  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                  Unix.connect fd (Unix.ADDR_UNIX path);
                  let junk = Bytes.of_string "GARBAGEGARBAGEGARBAGE" in
                  ignore (Unix.write fd junk 0 (Bytes.length junk));
                  let buf = Bytes.create 64 in
                  let n = try Unix.read fd buf 0 64 with Unix.Unix_error _ -> 0 in
                  Alcotest.(check int) (what ^ ": dropped without reply") 0 n;
                  Unix.close fd;
                  let c = connect path in
                  (match Shard_client.ping c with
                  | Ok _ -> ()
                  | Error e ->
                      Alcotest.failf "%s: fresh connection: %s" what
                        (Shard_client.error_to_string e));
                  (match Shard_client.stats c with
                  | Ok json ->
                      Alcotest.(check bool)
                        (what ^ ": one decode error in the wire stats")
                        true
                        (contains json "\"decode_errors\": 1}")
                  | Error e ->
                      Alcotest.failf "%s: stats: %s" what
                        (Shard_client.error_to_string e));
                  Shard_client.close c)
                [ ("shard", sock); ("router", rsock) ]))

let test_kill_daemon_severs () =
  with_daemon (fun d ~sock ~model:_ ~dims:_ ->
      let c = connect sock in
      Server.kill_daemon d;
      (match Shard_client.ping c with
      | Error (Shard_client.Io _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Shard_client.error_to_string e)
      | Ok _ -> Alcotest.fail "ping succeeded against killed daemon");
      Shard_client.close c;
      match Shard_client.connect sock with
      | Error (Shard_client.Connect _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Shard_client.error_to_string e)
      | Ok c2 ->
          Shard_client.close c2;
          Alcotest.fail "connected to killed daemon")

let test_daemon_sparse_bit_identical () =
  (* Sparse Winograd execution served over the wire is bit-identical to
     dense execution of the same pruned weights.  The registry keeps the
     in-memory model it was published with, so we pack the published
     graph under a permissive sparse threshold (guaranteeing compressed
     panels are actually in play) and compute the reference from an
     identical deterministic prune packed with sparsity disabled. *)
  let dir = tmp_dir "twq_wire_sp" in
  let sock = Filename.temp_file "twq_wire_sp" ".sock" in
  Sys.remove sock;
  let saved_threshold = Microkernel.sparse_threshold () in
  Fun.protect
    ~finally:(fun () ->
      Microkernel.set_sparse_threshold saved_threshold;
      rm_rf dir;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let res = 8 in
      let dims = [| 3; res; res |] in
      let rng = Rng.create 17 in
      let g = Twq_nn.Passes.fold_bn (Twq_nn.Gmodels.resnet20 ~rng ~width_div:4 ()) in
      let cal = Tensor.rand_gaussian rng [| 2; 3; res; res |] ~mu:0.0 ~sigma:1.0 in
      let ig = Twq_nn.Int_graph.quantize g ~calibration:cal () in
      Microkernel.set_sparse_threshold 0.0;
      let dense = Model.Graph (Twq_nn.Int_graph.prune ig ~density:0.3) in
      Microkernel.set_sparse_threshold 0.9;
      let sparse_ig = Twq_nn.Int_graph.prune ig ~density:0.3 in
      let sparse_taps, total_taps = Twq_nn.Int_graph.wino_sparsity sparse_ig in
      Alcotest.(check bool)
        (Printf.sprintf "sparse taps selected (%d/%d)" sparse_taps total_taps)
        true (sparse_taps > 0);
      let reg = Result.get_ok (Registry.open_dir dir) in
      (match
         Registry.publish reg ~name:"rn20s" ~version:1 ~input_dims:dims
           (Model.Graph sparse_ig)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "publish: %s" (Registry.error_to_string e));
      match Server.listen ~registry:reg ~path:sock () with
      | Error e -> Alcotest.failf "listen: %s" e
      | Ok d ->
          Fun.protect
            ~finally:(fun () -> Server.stop_daemon d)
            (fun () ->
              let c = connect sock in
              Fun.protect
                ~finally:(fun () -> Shard_client.close c)
                (fun () ->
                  QCheck.Test.check_exn
                    (QCheck.Test.make
                       ~name:"wire sparse infer == dense run_batch" ~count:15
                       QCheck.(make Gen.(int_bound 100_000))
                       (fun seed ->
                         let rng = Rng.create seed in
                         let x =
                           Tensor.rand_gaussian rng dims ~mu:0.0 ~sigma:1.0
                         in
                         match Shard_client.infer c x with
                         | Ok { outcome = Wire.Logits { data; _ }; _ } ->
                             farr_eq data (reference_row dense dims x)
                         | Ok _ -> QCheck.Test.fail_reportf "non-logits outcome"
                         | Error e ->
                             QCheck.Test.fail_reportf "%s"
                               (Shard_client.error_to_string e))))))

let () =
  Alcotest.run "wire"
    [
      ( "framing",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_chunked_resumption;
          QCheck_alcotest.to_alcotest prop_truncation;
          QCheck_alcotest.to_alcotest prop_byte_flip;
          Alcotest.test_case "trailing bytes" `Quick test_trailing;
          Alcotest.test_case "oversized" `Quick test_oversized;
          Alcotest.test_case "unknown tag, valid crc" `Quick
            test_unknown_tag_valid_crc;
          Alcotest.test_case "bad version, valid crc" `Quick
            test_bad_version_valid_crc;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "decoder poisons" `Quick test_decoder_poisons;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "wire infer bit-identical" `Quick
            prop_daemon_bit_identical;
          Alcotest.test_case "control plane" `Quick test_daemon_control_plane;
          Alcotest.test_case "garbage dropped" `Quick
            test_daemon_rejects_garbage;
          Alcotest.test_case "kill severs connections" `Quick
            test_kill_daemon_severs;
          Alcotest.test_case "sparse wire infer bit-identical" `Quick
            test_daemon_sparse_bit_identical;
        ] );
    ]
