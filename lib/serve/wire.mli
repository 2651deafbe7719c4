(** Length-prefixed binary wire protocol for the serving fleet.

    Every message travels in one frame:

    {v
      offset size
      0      4    magic "TWQW"
      4      1    protocol version (1)
      5      1    message tag
      6      8    request id (little-endian int64, echoed in replies)
      14     4    payload length N (little-endian uint32)
      18     N    payload (per-tag binary body)
      18+N   4    CRC-32 of bytes [4, 18+N) (little-endian)
    v}

    Integers are little-endian; floats travel as their IEEE-754 bit
    patterns, so tensors round-trip bit-exactly.  The CRC
    ({!Twq_util.Crc32}) covers everything after the magic, so any
    single-byte corruption of header or payload is detected.

    Decoding is incremental: {!feed} arbitrary chunks (a byte at a time
    if the socket delivers them that way) into a {!decoder} and {!next}
    resumes exactly where the previous call stopped.  Malformed input
    never raises — it surfaces as a typed {!error}, after which the
    decoder is poisoned (framing is lost, the connection must be
    dropped). *)

type error =
  | Bad_magic
  | Unsupported_version of int
  | Unknown_tag of int
  | Oversized of { len : int; limit : int }
  | Crc_mismatch of { expected : int; got : int }
      (** [expected] is the CRC stored in the frame, [got] the one
          computed over the received bytes. *)
  | Malformed of string  (** payload body fails validation *)
  | Truncated  (** input ended mid-frame ({!decode_string} / EOF) *)
  | Trailing of int  (** bytes left after the frame ({!decode_string}) *)

val error_to_string : error -> string

(** Result of one inference, as carried on the wire.  [queue_wait] and
    [service] are the server-side phase durations in seconds, so a
    client can attribute latency without trusting its own clock. *)
type outcome =
  | Logits of { queue_wait : float; service : float; data : float array }
  | Overloaded  (** typed backpressure: admission queue full *)
  | Expired
  | Invalid of string
  | Closed
  | Failed of string
  | No_model  (** shard is up but nothing has been activated yet *)
  | Unavailable of string  (** router: no live shard for this key *)

type msg =
  | Infer of {
      key : string;  (** routing key (consistent-hashed by the router) *)
      deadline : float option;  (** relative seconds *)
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
      payload : string;  (** serialized model ({!Model.to_string}) *)
    }
  | Publish_reply of { ok : bool; reason : string }
  | Activate of { name : string; version : int }
  | Activate_reply of { ok : bool; reason : string }
  | Model_info of { name : string }
  | Model_info_reply of { active : int option; versions : int list }
  | Stats
  | Stats_reply of string  (** JSON snapshot *)
  | Drain
  | Drain_reply
  | Nack of string  (** receiver cannot serve this message type *)

val encode : id:int64 -> msg -> string
(** One complete frame. *)

(** {2 Incremental decoding} *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] bounds the payload length (default 64 MiB) so a corrupt
    length field cannot allocate unboundedly. *)

val feed : decoder -> ?pos:int -> ?len:int -> string -> unit
(** Append bytes.  No-op once the decoder is poisoned. *)

val available : decoder -> int
(** Unconsumed buffered bytes (a partially received frame counts). *)

val next : decoder -> [ `Frame of int64 * msg | `Need_more | `Error of error ]
(** Consume and return the next complete frame.  [`Need_more] means the
    buffered bytes form only a prefix; feeding more input and calling
    {!next} again resumes the parse.  After [`Error], every subsequent
    call returns the same error. *)

val decode_string : ?max_frame:int -> string -> (int64 * msg, error) result
(** The whole string must be exactly one frame: a prefix yields
    [Truncated], leftover bytes yield [Trailing]. *)

(** {2 Blocking framed IO over a file descriptor}

    Both may raise [Unix.Unix_error] (e.g. [EPIPE], or [EAGAIN] when a
    receive timeout is set on the socket); callers own the policy. *)

val write_frame : Unix.file_descr -> id:int64 -> msg -> unit

val write_torn_frame : Unix.file_descr -> id:int64 -> msg -> unit
(** The injected mid-frame drop of {!Fault}: writes the first half of
    the encoded frame, then shuts the socket down.  Never raises. *)

val read_frame :
  Unix.file_descr -> decoder -> (int64 * msg, [ `Eof | `Error of error ]) result
(** Reads until the decoder completes a frame.  EOF mid-frame is
    [`Error Truncated]; EOF on a frame boundary is [`Eof]. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide, so a write to a peer that hung up
    raises [EPIPE] instead of killing the process.  Idempotent;
    {!Listener.bind} and {!Shard_client.connect} call it. *)
