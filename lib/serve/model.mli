(** A servable model artifact: an {!Twq_nn.Int_graph} integer graph.

    It runs batched: a float NCHW input [n; c; h; w] yields float logits
    [n; classes], and each output row depends only on its own input row —
    batched execution is bit-identical to per-image execution, which the
    dynamic batcher relies on.

    Payloads in the retired [twq-int8-net] format (written by the old
    [Deploy] runtime) load as the equivalent graph.  Nothing constructs
    [Net] any more: it stays, with the same payload as [Graph], only
    until the serving benchmark stops matching on it. *)

type t = Net of Twq_nn.Int_graph.t | Graph of Twq_nn.Int_graph.t

val kind : t -> string
(** ["graph"] — the tag stored in the headers of newly written registry
    artifacts. *)

val payload_kind : string -> string option
(** The header tag a serialized payload is filed under, from its magic
    line: ["net"] for [twq-int8-net], ["graph"] for [twq-int8-graph]. *)

val to_string : t -> string
(** Always the [twq-int8-graph] format. *)

val of_string : string -> (t, string) result
(** Dispatches on the payload's magic line and returns [Graph] for both
    formats; never raises. *)

val run_batch : t -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** [run_batch m x] with [x : [n; c; h; w]] returns logits
    [[n; classes]]. *)

val warm : t -> input_dims:int array -> batch_sizes:int list -> unit
(** Pre-compile the execution plans for batches [n; c; h; w] with [n]
    drawn from [batch_sizes] and [input_dims = [| c; h; w |]], so no
    request pays for planning.  Cheap (pure scheduling). *)
