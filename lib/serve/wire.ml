(* Length-prefixed binary framing for the serving fleet.

   Frame = "TWQW" | version u8 | tag u8 | id i64 | len u32 | payload |
   crc32 u32, all integers little-endian, the CRC covering everything
   after the magic.  Floats are carried as IEEE-754 bit patterns
   (Int64.bits_of_float), so tensors and deadlines round-trip
   bit-exactly — the fleet-wide analogue of the hex-float convention the
   checkpoint/serializer formats use.

   Decoding is a resumable pull parser over an append-only buffer:
   [feed] any chunking (down to one byte at a time), [next] consumes a
   frame only when all of it has arrived.  Validation order is magic ->
   version -> length bound -> (wait for the full frame) -> CRC -> tag ->
   payload body, so a flipped byte anywhere surfaces as the most
   specific typed error and never as a successfully decoded frame (the
   CRC covers all of them).  Errors poison the decoder: once framing is
   lost there is no resynchronization, the connection must be dropped. *)

module Crc32 = Twq_util.Crc32

let magic = "TWQW"
let version = 1
let header_len = 18
let trailer_len = 4
let default_max_frame = 64 * 1024 * 1024

type error =
  | Bad_magic
  | Unsupported_version of int
  | Unknown_tag of int
  | Oversized of { len : int; limit : int }
  | Crc_mismatch of { expected : int; got : int }
  | Malformed of string
  | Truncated
  | Trailing of int

let error_to_string = function
  | Bad_magic -> "bad frame magic"
  | Unsupported_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Unknown_tag t -> Printf.sprintf "unknown message tag %d" t
  | Oversized { len; limit } ->
      Printf.sprintf "frame payload %d exceeds limit %d" len limit
  | Crc_mismatch { expected; got } ->
      Printf.sprintf "frame crc mismatch: frame says %08x, computed %08x"
        expected got
  | Malformed m -> "malformed payload: " ^ m
  | Truncated -> "input ended mid-frame"
  | Trailing n -> Printf.sprintf "%d trailing bytes after frame" n

type outcome =
  | Logits of { queue_wait : float; service : float; data : float array }
  | Overloaded
  | Expired
  | Invalid of string
  | Closed
  | Failed of string
  | No_model
  | Unavailable of string

type msg =
  | Infer of {
      key : string;
      deadline : float option;
      dims : int array;
      data : float array;
    }
  | Infer_reply of outcome
  | Ping
  | Pong of {
      healthy : bool;
      queue_depth : int;
      capacity : int;
      draining : bool;
    }
  | Publish of {
      name : string;
      version : int;
      input_dims : int array;
      payload : string;
    }
  | Publish_reply of { ok : bool; reason : string }
  | Activate of { name : string; version : int }
  | Activate_reply of { ok : bool; reason : string }
  | Model_info of { name : string }
  | Model_info_reply of { active : int option; versions : int list }
  | Stats
  | Stats_reply of string
  | Drain
  | Drain_reply
  | Nack of string

let tag_of_msg = function
  | Infer _ -> 1
  | Infer_reply _ -> 2
  | Ping -> 3
  | Pong _ -> 4
  | Publish _ -> 5
  | Publish_reply _ -> 6
  | Activate _ -> 7
  | Activate_reply _ -> 8
  | Model_info _ -> 9
  | Model_info_reply _ -> 10
  | Stats -> 11
  | Stats_reply _ -> 12
  | Drain -> 13
  | Drain_reply -> 14
  | Nack _ -> 15

let known_tag t = t >= 1 && t <= 15

(* ------------------------------------------------------------ writers *)

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_u32 b v =
  w_u8 b v;
  w_u8 b (v lsr 8);
  w_u8 b (v lsr 16);
  w_u8 b (v lsr 24)

let w_i64 b v =
  for i = 0 to 7 do
    w_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let w_f64 b f = w_i64 b (Int64.bits_of_float f)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_dims b dims =
  w_u8 b (Array.length dims);
  Array.iter (fun d -> w_u32 b d) dims

let w_farr b a =
  w_u32 b (Array.length a);
  Array.iter (fun f -> w_f64 b f) a

let w_opt_f64 b = function
  | None -> w_u8 b 0
  | Some f ->
      w_u8 b 1;
      w_f64 b f

let w_opt_u32 b = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      w_u32 b v

let w_u32_list b l =
  w_u32 b (List.length l);
  List.iter (fun v -> w_u32 b v) l

let outcome_tag = function
  | Logits _ -> 0
  | Overloaded -> 1
  | Expired -> 2
  | Invalid _ -> 3
  | Closed -> 4
  | Failed _ -> 5
  | No_model -> 6
  | Unavailable _ -> 7

let w_outcome b o =
  w_u8 b (outcome_tag o);
  match o with
  | Logits { queue_wait; service; data } ->
      w_f64 b queue_wait;
      w_f64 b service;
      w_farr b data
  | Overloaded | Expired | Closed | No_model -> ()
  | Invalid m | Failed m | Unavailable m -> w_str b m

let encode_payload b = function
  | Infer { key; deadline; dims; data } ->
      w_str b key;
      w_opt_f64 b deadline;
      w_dims b dims;
      w_farr b data
  | Infer_reply o -> w_outcome b o
  | Ping | Stats | Drain | Drain_reply -> ()
  | Pong { healthy; queue_depth; capacity; draining } ->
      w_bool b healthy;
      w_u32 b queue_depth;
      w_u32 b capacity;
      w_bool b draining
  | Publish { name; version; input_dims; payload } ->
      w_str b name;
      w_u32 b version;
      w_dims b input_dims;
      w_str b payload
  | Publish_reply { ok; reason } | Activate_reply { ok; reason } ->
      w_bool b ok;
      w_str b reason
  | Activate { name; version } ->
      w_str b name;
      w_u32 b version
  | Model_info { name } -> w_str b name
  | Model_info_reply { active; versions } ->
      w_opt_u32 b active;
      w_u32_list b versions
  | Stats_reply s | Nack s -> w_str b s

let encode ~id msg =
  let pb = Buffer.create 256 in
  encode_payload pb msg;
  let payload = Buffer.contents pb in
  let n = String.length payload in
  let b = Buffer.create (header_len + n + trailer_len) in
  Buffer.add_string b magic;
  w_u8 b version;
  w_u8 b (tag_of_msg msg);
  w_i64 b id;
  w_u32 b n;
  Buffer.add_string b payload;
  let body = Buffer.contents b in
  w_u32 b (Crc32.digest_sub body ~pos:4 ~len:(String.length body - 4));
  Buffer.contents b

(* ------------------------------------------------------------ readers *)

exception Bad_payload of string

type reader = { src : string; mutable pos : int }

let r_need r n =
  if r.pos + n > String.length r.src then raise (Bad_payload "short payload")

let r_u8 r =
  r_need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  let a = r_u8 r in
  let b = r_u8 r in
  let c = r_u8 r in
  let d = r_u8 r in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

let r_i64 r =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (r_u8 r)) (8 * i))
  done;
  !v

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_str r =
  let n = r_u32 r in
  r_need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> raise (Bad_payload (Printf.sprintf "bad bool byte %d" v))

let r_dims r =
  let rank = r_u8 r in
  Array.init rank (fun _ -> r_u32 r)

let r_farr r =
  let n = r_u32 r in
  (* 8 bytes per element: bound before allocating. *)
  r_need r (8 * n);
  Array.init n (fun _ -> r_f64 r)

let r_opt_f64 r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (r_f64 r)
  | v -> raise (Bad_payload (Printf.sprintf "bad option byte %d" v))

let r_opt_u32 r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (r_u32 r)
  | v -> raise (Bad_payload (Printf.sprintf "bad option byte %d" v))

let r_u32_list r =
  let n = r_u32 r in
  r_need r (4 * n);
  List.init n (fun _ -> r_u32 r)

let r_outcome r =
  match r_u8 r with
  | 0 ->
      let queue_wait = r_f64 r in
      let service = r_f64 r in
      Logits { queue_wait; service; data = r_farr r }
  | 1 -> Overloaded
  | 2 -> Expired
  | 3 -> Invalid (r_str r)
  | 4 -> Closed
  | 5 -> Failed (r_str r)
  | 6 -> No_model
  | 7 -> Unavailable (r_str r)
  | t -> raise (Bad_payload (Printf.sprintf "bad outcome tag %d" t))

let decode_payload tag payload =
  let r = { src = payload; pos = 0 } in
  let msg =
    match tag with
    | 1 ->
        let key = r_str r in
        let deadline = r_opt_f64 r in
        let dims = r_dims r in
        Infer { key; deadline; dims; data = r_farr r }
    | 2 -> Infer_reply (r_outcome r)
    | 3 -> Ping
    | 4 ->
        let healthy = r_bool r in
        let queue_depth = r_u32 r in
        let capacity = r_u32 r in
        Pong { healthy; queue_depth; capacity; draining = r_bool r }
    | 5 ->
        let name = r_str r in
        let version = r_u32 r in
        let input_dims = r_dims r in
        Publish { name; version; input_dims; payload = r_str r }
    | 6 ->
        let ok = r_bool r in
        Publish_reply { ok; reason = r_str r }
    | 7 ->
        let name = r_str r in
        Activate { name; version = r_u32 r }
    | 8 ->
        let ok = r_bool r in
        Activate_reply { ok; reason = r_str r }
    | 9 -> Model_info { name = r_str r }
    | 10 ->
        let active = r_opt_u32 r in
        Model_info_reply { active; versions = r_u32_list r }
    | 11 -> Stats
    | 12 -> Stats_reply (r_str r)
    | 13 -> Drain
    | 14 -> Drain_reply
    | 15 -> Nack (r_str r)
    | _ -> assert false (* caller checked [known_tag] *)
  in
  if r.pos <> String.length payload then
    raise (Bad_payload "trailing bytes in payload");
  msg

(* ---------------------------------------------------- incremental decode *)

type decoder = {
  max_frame : int;
  pending : Buffer.t;
  mutable off : int; (* consumed prefix of [pending] *)
  mutable failed : error option;
}

let decoder ?(max_frame = default_max_frame) () =
  { max_frame; pending = Buffer.create 4096; off = 0; failed = None }

let feed d ?(pos = 0) ?len s =
  if d.failed = None then
    let len = match len with Some l -> l | None -> String.length s - pos in
    Buffer.add_substring d.pending s pos len

let available d = Buffer.length d.pending - d.off

(* Drop the consumed prefix once it dominates the buffer, so a
   long-lived connection does not hold every frame it ever saw. *)
let compact d =
  if d.off > 0 && (available d = 0 || d.off > 1 lsl 20) then begin
    let rest = Buffer.sub d.pending d.off (available d) in
    Buffer.clear d.pending;
    Buffer.add_string d.pending rest;
    d.off <- 0
  end

let le32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let next d =
  match d.failed with
  | Some e -> `Error e
  | None ->
      let fail e =
        d.failed <- Some e;
        `Error e
      in
      if available d < header_len then `Need_more
      else begin
        let hdr = Buffer.sub d.pending d.off header_len in
        if String.sub hdr 0 4 <> magic then fail Bad_magic
        else begin
          let v = Char.code hdr.[4] in
          if v <> version then fail (Unsupported_version v)
          else begin
            let len = le32 hdr 14 in
            if len > d.max_frame || len < 0 then
              fail (Oversized { len; limit = d.max_frame })
            else if available d < header_len + len + trailer_len then
              `Need_more
            else begin
              let total = header_len + len + trailer_len in
              let frame = Buffer.sub d.pending d.off total in
              let stored = le32 frame (header_len + len) in
              let computed =
                Crc32.digest_sub frame ~pos:4 ~len:(header_len + len - 4)
              in
              if stored <> computed then
                fail (Crc_mismatch { expected = stored; got = computed })
              else begin
                let tag = Char.code frame.[5] in
                if not (known_tag tag) then fail (Unknown_tag tag)
                else begin
                  let id = { src = frame; pos = 6 } |> r_i64 in
                  match decode_payload tag (String.sub frame header_len len) with
                  | exception Bad_payload m -> fail (Malformed m)
                  | msg ->
                      d.off <- d.off + total;
                      compact d;
                      `Frame (id, msg)
                end
              end
            end
          end
        end
      end

let decode_string ?max_frame s =
  let d = decoder ?max_frame () in
  feed d s;
  match next d with
  | `Frame f -> if available d > 0 then Error (Trailing (available d)) else Ok f
  | `Need_more -> Error Truncated
  | `Error e -> Error e

(* ------------------------------------------------------------------ io *)

let rec write_all fd b pos len =
  if len > 0 then
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos len

let write_frame fd ~id msg =
  let s = encode ~id msg in
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* The injected mid-frame drop: half the encoded frame, then the socket
   dies.  The peer's CRC/length checks must turn it into a typed error,
   never a wrong answer. *)
let write_torn_frame fd ~id msg =
  let s = encode ~id msg in
  (try write_all fd (Bytes.unsafe_of_string s) 0 (String.length s / 2)
   with Unix.Unix_error _ -> ());
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let io_chunk = 65536

let read_frame fd d =
  let buf = Bytes.create io_chunk in
  let rec loop () =
    match next d with
    | `Frame f -> Ok f
    | `Error e -> Error (`Error e)
    | `Need_more -> (
        match Unix.read fd buf 0 io_chunk with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | 0 -> if available d > 0 then Error (`Error Truncated) else Error `Eof
        | n ->
            feed d (Bytes.sub_string buf 0 n);
            loop ())
  in
  loop ()

(* A write to a peer that hung up must fail with EPIPE instead of
   killing the process.  Setting the disposition again is harmless. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()
