(* Synchronous request/reply client over the Wire framing.

   The discipline is strictly one outstanding request per connection:
   write a frame with a fresh id, block until the peer's next frame,
   check the echoed id.  That keeps the client trivially correct (no
   demultiplexer) and pushes pipelining where it belongs — many
   connections, which is also the shape that feeds the shard's dynamic
   batcher.

   Sockets carry send/receive timeouts so a wedged peer turns into a
   typed [Io] error instead of a hung caller; every connect makes sure
   SIGPIPE is ignored ({!Wire.ignore_sigpipe}) so a dead peer turns
   into EPIPE.

   Every IO step consults the [Fault] hook (one Atomic.get when
   disarmed): connects can be refused or severed, sends and receives
   can stall, and a [drop] at the send site writes half the encoded
   frame before closing — the worst case for a framed protocol, which
   the peer's CRC/length checks must absorb as a decode error rather
   than a wrong answer. *)

module Tensor = Twq_tensor.Tensor
module Mclock = Twq_util.Mclock

type error =
  | Connect of string
  | Io of string
  | Decode of Wire.error
  | Unexpected_reply of string
  | Remote of string

let error_to_string = function
  | Connect m -> "connect: " ^ m
  | Io m -> "io: " ^ m
  | Decode e -> "decode: " ^ Wire.error_to_string e
  | Unexpected_reply m -> "unexpected reply: " ^ m
  | Remote m -> "remote: " ^ m

type t = {
  endpoint : string;
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable next_id : int64;
  mutable closed : bool;
}

let connect ?(timeout = 30.0) path =
  Wire.ignore_sigpipe ();
  let fault = Fault.probe Fault.Connect ~peer:path in
  (match fault with
  | Some (Fault.Stall d | Fault.Delay d) -> Unix.sleepf d
  | _ -> ());
  match fault with
  | Some Fault.Refuse -> Error (Connect (path ^ ": injected refusal"))
  | _ -> (
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Connect (Unix.error_message e))
      | fd -> (
          match
            if timeout > 0.0 then begin
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
            end;
            Unix.connect fd (Unix.ADDR_UNIX path)
          with
          | () ->
              (* Injected drop at the connect site: the handshake worked
                 but the link is already dead — like a peer that accepts
                 and immediately resets.  The first roundtrip gets EPIPE. *)
              (match fault with
              | Some Fault.Drop -> (
                  try Unix.shutdown fd Unix.SHUTDOWN_ALL
                  with Unix.Unix_error _ -> ())
              | _ -> ());
              Ok
                {
                  endpoint = path;
                  fd;
                  dec = Wire.decoder ();
                  next_id = 1L;
                  closed = false;
                }
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error
                (Connect (Printf.sprintf "%s: %s" path (Unix.error_message e)))))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let endpoint t = t.endpoint

(* One request/reply exchange.  Any IO failure leaves the stream in an
   unknown state, so the caller must treat the connection as dead. *)
let roundtrip t msg =
  if t.closed then Error (Io "connection closed")
  else begin
    let id = t.next_id in
    t.next_id <- Int64.add id 1L;
    match Fault.probe Fault.Send ~peer:t.endpoint with
    | Some Fault.Refuse ->
        (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        Error (Io "injected send refusal")
    | Some Fault.Drop ->
        Wire.write_torn_frame t.fd ~id msg;
        Error (Io "injected mid-frame drop")
    | fault -> (
        (match fault with
        | Some (Fault.Stall d | Fault.Delay d) -> Unix.sleepf d
        | _ -> ());
        match
          Wire.write_frame t.fd ~id msg;
          (match Fault.probe Fault.Recv ~peer:t.endpoint with
          | Some (Fault.Stall d | Fault.Delay d) -> Unix.sleepf d
          | Some (Fault.Drop | Fault.Refuse) ->
              (* The request is already on the wire; losing the read half
                 here is exactly a lost ack. *)
              (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL
               with Unix.Unix_error _ -> ());
              raise (Unix.Unix_error (Unix.ECONNRESET, "recv", "injected"))
          | None -> ());
          Wire.read_frame t.fd t.dec
        with
        | exception Unix.Unix_error (e, _, _) ->
            Error (Io (Unix.error_message e))
        | Error `Eof -> Error (Io "peer closed the connection")
        | Error (`Error e) -> Error (Decode e)
        | Ok (rid, reply) ->
            if rid <> id then
              Error
                (Unexpected_reply
                   (Printf.sprintf "reply id %Ld for request %Ld" rid id))
            else Ok reply)
  end

type infer_reply = { outcome : Wire.outcome; wire_latency : float }

let infer_raw ?deadline ~key ~dims ~data t =
  let t0 = Mclock.now () in
  match roundtrip t (Wire.Infer { key; deadline; dims; data }) with
  | Error _ as e -> e
  | Ok (Wire.Infer_reply outcome) ->
      Ok { outcome; wire_latency = Mclock.elapsed t0 }
  | Ok (Wire.Nack m) -> Error (Remote m)
  | Ok _ -> Error (Unexpected_reply "infer expected Infer_reply")

let infer ?deadline ?(key = "") t x =
  let dims = Array.init (Tensor.rank x) (Tensor.dim x) in
  infer_raw ?deadline ~key ~dims ~data:x.Tensor.data t

let ping t =
  match roundtrip t Wire.Ping with
  | Error _ as e -> e
  | Ok (Wire.Pong _ as pong) -> Ok pong
  | Ok (Wire.Nack m) -> Error (Remote m)
  | Ok _ -> Error (Unexpected_reply "ping expected Pong")

let ack_reply what = function
  | Error _ as e -> e
  | Ok (Wire.Publish_reply { ok; reason } | Wire.Activate_reply { ok; reason })
    ->
      if ok then Ok () else Error (Remote reason)
  | Ok (Wire.Nack m) -> Error (Remote m)
  | Ok _ -> Error (Unexpected_reply (what ^ " expected an ack reply"))

let publish t ~name ~version ~input_dims ~payload =
  ack_reply "publish"
    (roundtrip t (Wire.Publish { name; version; input_dims; payload }))

let activate t ~name ~version =
  ack_reply "activate" (roundtrip t (Wire.Activate { name; version }))

let model_info t ~name =
  match roundtrip t (Wire.Model_info { name }) with
  | Error _ as e -> e
  | Ok (Wire.Model_info_reply { active; versions }) -> Ok (active, versions)
  | Ok (Wire.Nack m) -> Error (Remote m)
  | Ok _ -> Error (Unexpected_reply "model_info expected Model_info_reply")

let stats t =
  match roundtrip t Wire.Stats with
  | Error _ as e -> e
  | Ok (Wire.Stats_reply s) -> Ok s
  | Ok (Wire.Nack m) -> Error (Remote m)
  | Ok _ -> Error (Unexpected_reply "stats expected Stats_reply")

let drain t =
  match roundtrip t Wire.Drain with
  | Error _ as e -> e
  | Ok Wire.Drain_reply -> Ok ()
  | Ok (Wire.Nack m) -> Error (Remote m)
  | Ok _ -> Error (Unexpected_reply "drain expected Drain_reply")
