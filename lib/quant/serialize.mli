(** Serialization of quantized layers (text format, exact round-trip).

    A deployed tap-wise layer is a bag of integers plus a handful of
    scales; this module writes them to a simple line-oriented text format.
    Floats are encoded in hexadecimal notation ([%h]), so scales round-trip
    bit-exactly and a reloaded layer produces bit-identical integer
    outputs.

    Readers run on a byte-offset-tracking {!reader} and validate
    everything before allocating: ranks and dimensions must be positive
    and bounded by the remaining input, element counts cannot overflow,
    scales must be positive finite floats, and cross-field invariants
    (grid sizes vs. the transform variant, per-channel counts vs. output
    channels) are checked.  A tap-wise layer must be the integer
    datapath's: its config token for the retired pow2 flag must read
    [true] (writers always emit it), and every input tap scale
    [s_b(i,j)] must be an exact power-of-two multiple of [s_x], since the
    forward requantizes each tap by a shift of [log2 (s_b/s_x)].  Every
    weight tap scale ([s_g] and each [s_g_channel] grid) must be a power
    of two, since {!Tapwise.pack} folds [s_b·s_g] into one exact
    rescale.  Every stored quantized weight must lie in the range
    [Quantizer.quantize] produces at the layer's width ([wino_bits] for a
    tap-wise [wq], [act_bits] for a spatial one); a wider weight would
    wrap the int accumulators, so it is refused naming its channel and
    tap.  Malformed input yields a typed {!error} with
    the byte offset of the offending token — never [Scanf.Scan_failure],
    [End_of_file], [Out_of_memory] or a silent half-parsed value. *)

type error = { offset : int; message : string }

exception Parse_failure of error
(** Raised by the embedding-level readers below; the [_result] entry
    points catch it. *)

val error_to_string : error -> string

(** {2 Reader primitives} — for container formats that embed layers
    (e.g. {!Twq_nn.Int_graph}, the legacy net reader in
    {!Twq_nn.Deploy}).  All raise {!Parse_failure} on malformed input. *)

type reader

val reader_of_string : string -> reader
val reader_pos : reader -> int

val parse_fail : reader -> string -> 'a
(** Raise {!Parse_failure} at the reader's current offset. *)

val read_word : reader -> string
val read_int : reader -> int
val read_float : reader -> float
val read_bool : reader -> bool

val read_int_in : reader -> what:string -> int -> int -> int
(** [read_int_in r ~what lo hi] reads an int, failing unless it lies in
    [\[lo, hi\]]. *)

val expect : reader -> string -> unit
(** Consume the next token, failing unless it equals the argument. *)

val write_tensor : Buffer.t -> Twq_tensor.Tensor.t -> unit
val read_tensor : reader -> Twq_tensor.Tensor.t

val write_itensor : Buffer.t -> Twq_tensor.Itensor.t -> unit
val read_itensor : reader -> Twq_tensor.Itensor.t

val read_layer_body : reader -> Tapwise.layer
(** Parse a layer whose ["tapwise-layer v1"] header has already been
    consumed. *)

val read_qconv_body : reader -> Qconv.layer
(** Body parser for embedding (header already consumed). *)

(** {2 Tap-wise Winograd layers} *)

val layer_to_string : Tapwise.layer -> string

val layer_of_string_result : string -> (Tapwise.layer, error) result

val layer_of_string : string -> Tapwise.layer
(** @raise Failure on malformed input (thin wrapper over
    {!layer_of_string_result} for backward compatibility). *)

val save_layer : string -> Tapwise.layer -> unit
(** Write to a file path. *)

val load_layer_result : string -> (Tapwise.layer, error) result

val load_layer : string -> Tapwise.layer
(** @raise Failure on malformed input or I/O error. *)

(** {2 Spatial int8 layers} *)

val qconv_to_string : Qconv.layer -> string
val qconv_of_string_result : string -> (Qconv.layer, error) result

val qconv_of_string : string -> Qconv.layer
(** @raise Failure on malformed input. *)
