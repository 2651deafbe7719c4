(* A servable artifact: a quantized Int_graph.  It takes a float NCHW
   batch (quantized internally at the recorded input scale) and returns
   float logits [n; classes]; every per-sample computation is independent
   of the batch dimension, which is what lets the dynamic batcher promise
   bit-identical results. *)

module Tensor = Twq_tensor.Tensor
module Int_graph = Twq_nn.Int_graph

type t = Net of Int_graph.t | Graph of Int_graph.t

let kind (Net _ | Graph _) = "graph"

let magic s =
  match String.index_opt s ' ' with Some i -> String.sub s 0 i | None -> s

let payload_kind s =
  match magic s with
  | "twq-int8-net" -> Some "net"
  | "twq-int8-graph" -> Some "graph"
  | _ -> None

let to_string (Net g | Graph g) = Int_graph.to_string g

(* Dispatch on the payload's own magic line; both parsers funnel their
   typed reader errors through Failure. *)
let of_string s =
  let parse f =
    match f s with g -> Ok (Graph g) | exception Failure msg -> Error msg
  in
  match magic s with
  | "twq-int8-net" -> parse Twq_nn.Deploy.of_string
  | "twq-int8-graph" -> parse Int_graph.of_string
  | m -> Error (Printf.sprintf "unknown model magic %S" m)

let run_batch (Net g | Graph g) x = Int_graph.run g x

(* Compile the execution plans for the batch shapes the server will
   actually dispatch, so no request ever pays for planning.  Plan
   compilation is pure scheduling (the Winograd weights were already
   packed when the artifact was loaded), so warming even a dozen batch
   sizes is milliseconds. *)
let warm (Net g | Graph g) ~input_dims ~batch_sizes =
  List.iter
    (fun n ->
      if n > 0 then
        ignore
          (Int_graph.plan g
             ~input_shape:[| n; input_dims.(0); input_dims.(1); input_dims.(2) |]))
    batch_sizes
