(* Model registry: a directory of versioned, CRC-checked artifacts plus
   an in-memory table with atomic hot-swap.

   On-disk format (one file per name+version, "<name>@v<version>.twqm"):

     twq-model v1 <name> <version> <kind> <c> <h> <w> <len> <crc32hex>\n
     <payload bytes>

   where <payload> is Model.to_string output, <crc32hex> its CRC-32 and
   <c> <h> <w> the per-request input dims the model expects.  Files are
   written to "<file>.tmp" then renamed, exactly like Checkpoint, so a
   reader never sees a torn artifact; a writer killed mid-write leaves an
   orphan .tmp that [open_dir] removes.

   The table maps name -> entries (newest version first).  [publish]
   swaps the new entry in under the registry mutex after the rename
   lands, so concurrent [lookup]s switch atomically from the old model
   value to the new one — in-flight batches keep the version they
   resolved. *)

module Crc32 = Twq_util.Crc32

type error =
  | Io_error of string
  | Bad_name of string
  | Bad_artifact of { file : string; reason : string }
  | Corrupt_artifact of { file : string; expected : int; got : int }
  | No_such_model of { name : string; version : int option }

let error_to_string = function
  | Io_error msg -> "io error: " ^ msg
  | Bad_name n -> Printf.sprintf "invalid model name %S" n
  | Bad_artifact { file; reason } ->
      Printf.sprintf "bad artifact %s: %s" file reason
  | Corrupt_artifact { file; expected; got } ->
      Printf.sprintf "corrupt artifact %s: header crc %08x, payload crc %08x"
        file expected got
  | No_such_model { name; version } -> (
      match version with
      | None -> Printf.sprintf "no model named %S" name
      | Some v -> Printf.sprintf "no model %S version %d" name v)

type entry = {
  name : string;
  version : int;
  input_dims : int array; (* [| c; h; w |] per request *)
  crc : int;
  model : Model.t;
}

type t = {
  dir : string;
  mutex : Mutex.t;
  mutable table : (string * entry list) list; (* versions newest-first *)
  mutable active : (string * int) list; (* name -> pinned serving version *)
  mutable orphans_removed : string list;
  mutable skipped : (string * error) list;
}

let magic = "twq-model"

let valid_name n =
  String.length n > 0
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       n

let artifact_file name version = Printf.sprintf "%s@v%d.twqm" name version

let header entry payload =
  Printf.sprintf "%s v1 %s %d %s %d %d %d %d %08x\n" magic entry.name
    entry.version
    (Model.kind entry.model)
    entry.input_dims.(0) entry.input_dims.(1) entry.input_dims.(2)
    (String.length payload) (Crc32.digest payload)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io_error msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception End_of_file -> Error (Io_error (path ^ ": unreadable")))

let parse_artifact ~file raw =
  let bad reason = Error (Bad_artifact { file; reason }) in
  match String.index_opt raw '\n' with
  | None -> bad "no header line"
  | Some nl -> (
      let hdr = String.sub raw 0 nl in
      match String.split_on_char ' ' hdr with
      | [ m; v; name; version; kind; c; h; w; len; crc ] -> (
          if m <> magic then bad "bad magic"
          else if v <> "v1" then bad ("unsupported format version " ^ v)
          else if not (valid_name name) then bad ("invalid name " ^ name)
          else
            match
              ( int_of_string_opt version, int_of_string_opt c,
                int_of_string_opt h, int_of_string_opt w,
                int_of_string_opt len, int_of_string_opt ("0x" ^ crc) )
            with
            | Some version, Some c, Some h, Some w, Some len, Some crc
              when version >= 0 && c > 0 && h > 0 && w > 0 && len >= 0 ->
                let got_len = String.length raw - nl - 1 in
                if got_len <> len then
                  bad
                    (Printf.sprintf "payload is %d bytes, header says %d"
                       got_len len)
                else if kind <> "net" && kind <> "graph" then
                  bad ("unknown kind " ^ kind)
                else begin
                  let got = Crc32.digest_sub raw ~pos:(nl + 1) ~len in
                  if got <> crc then
                    Error (Corrupt_artifact { file; expected = crc; got })
                  else
                    let payload = String.sub raw (nl + 1) len in
                    match Model.of_string payload with
                    | Error reason -> bad reason
                    | Ok model ->
                        if Model.payload_kind payload <> Some kind then
                          bad "kind tag does not match payload"
                        else
                          Ok
                            {
                              name;
                              version;
                              input_dims = [| c; h; w |];
                              crc;
                              model;
                            }
                end
            | _ -> bad ("garbled header: " ^ hdr))
      | _ -> bad ("garbled header: " ^ hdr))

let insert table e =
  let versions = try List.assoc e.name table with Not_found -> [] in
  let versions =
    e :: List.filter (fun e' -> e'.version <> e.version) versions
  in
  let versions =
    List.sort (fun a b -> compare b.version a.version) versions
  in
  (e.name, versions) :: List.remove_assoc e.name table

let scan dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error (Io_error msg)
  | files ->
      let orphans = ref [] and skipped = ref [] and table = ref [] in
      Array.sort compare files;
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          if Filename.check_suffix f ".tmp" then begin
            (* Leftover from a writer killed between open and rename:
               never referenced by a header, safe to discard. *)
            (try Sys.remove path with Sys_error _ -> ());
            orphans := f :: !orphans
          end
          else if Filename.check_suffix f ".twqm" then
            match read_file path with
            | Error e -> skipped := (f, e) :: !skipped
            | Ok raw -> (
                match parse_artifact ~file:f raw with
                | Error e -> skipped := (f, e) :: !skipped
                | Ok entry -> table := insert !table entry))
        files;
      Ok (!table, List.rev !orphans, List.rev !skipped)

let open_dir dir =
  (if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (e, _, _) ->
       raise (Sys_error (Unix.error_message e)));
  match scan dir with
  | exception Sys_error msg -> Error (Io_error msg)
  | Error e -> Error e
  | Ok (table, orphans_removed, skipped) ->
      Ok
        {
          dir;
          mutex = Mutex.create ();
          table;
          active = [];
          orphans_removed;
          skipped;
        }

let orphans_removed t = t.orphans_removed
let skipped t = t.skipped

let write_atomic path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     flush oc
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

let publish t ~name ~version ~input_dims model =
  if not (valid_name name) then Error (Bad_name name)
  else if version < 0 then
    Error (Bad_artifact { file = name; reason = "negative version" })
  else if Array.length input_dims <> 3 || Array.exists (fun d -> d <= 0) input_dims
  then Error (Bad_artifact { file = name; reason = "input_dims must be [c;h;w] > 0" })
  else begin
    let payload = Model.to_string model in
    let entry =
      { name; version; input_dims = Array.copy input_dims;
        crc = Crc32.digest payload; model }
    in
    let path = Filename.concat t.dir (artifact_file name version) in
    match write_atomic path (header entry payload ^ payload) with
    | exception Sys_error msg -> Error (Io_error msg)
    | () ->
        (* The rename landed: swap the live table entry atomically. *)
        Mutex.lock t.mutex;
        t.table <- insert t.table entry;
        Mutex.unlock t.mutex;
        Ok entry
  end

let lookup ?version t name =
  Mutex.lock t.mutex;
  let versions = try List.assoc name t.table with Not_found -> [] in
  Mutex.unlock t.mutex;
  match version with
  | None -> (
      match versions with
      | e :: _ -> Ok e
      | [] -> Error (No_such_model { name; version }))
  | Some v -> (
      match List.find_opt (fun e -> e.version = v) versions with
      | Some e -> Ok e
      | None -> Error (No_such_model { name; version }))

(* Active-version pointer: the two-phase fleet publish stages new
   artifacts with [publish] (phase one) without disturbing what is being
   served, then flips this pointer with [activate] (phase two).  Lookups
   that should follow the pointer go through [resolve]. *)

let activate t ~name ~version =
  Mutex.lock t.mutex;
  let versions = try List.assoc name t.table with Not_found -> [] in
  let r =
    match List.find_opt (fun e -> e.version = version) versions with
    | None ->
        Error (No_such_model { name; version = Some version })
    | Some _ ->
        t.active <- (name, version) :: List.remove_assoc name t.active;
        Ok ()
  in
  Mutex.unlock t.mutex;
  r

let active_version t name =
  Mutex.lock t.mutex;
  let v = List.assoc_opt name t.active in
  Mutex.unlock t.mutex;
  v

let resolve t name =
  match active_version t name with
  | Some v -> lookup ~version:v t name
  | None -> lookup t name

let names t =
  Mutex.lock t.mutex;
  let ns =
    List.sort compare
      (List.map
         (fun (n, es) -> (n, List.map (fun e -> e.version) es))
         t.table)
  in
  Mutex.unlock t.mutex;
  ns

let refresh t =
  match scan t.dir with
  | exception Sys_error msg -> Error (Io_error msg)
  | Error e -> Error e
  | Ok (table, orphans, skipped) ->
      Mutex.lock t.mutex;
      t.table <- table;
      (* An active pointer whose artifact vanished from disk would make
         every resolve fail; drop it and fall back to newest. *)
      t.active <-
        List.filter
          (fun (name, v) ->
            match List.assoc_opt name table with
            | None -> false
            | Some es -> List.exists (fun e -> e.version = v) es)
          t.active;
      t.orphans_removed <- t.orphans_removed @ orphans;
      t.skipped <- skipped;
      Mutex.unlock t.mutex;
      Ok ()

(* Fleet-wide publish: stage the artifact on every shard, then flip every
   shard's active version, rolling back already-flipped shards if any
   activation fails.  The two phases make the flip atomic at fleet
   granularity: either every healthy shard ends up serving [version], or
   every shard is left serving what it served before.

   Failures during phase one abort before any flip, so no rollback is
   needed; failures during phase two re-activate the old version on the
   shards that already flipped (shards that had no active version before
   are left on the new one — there is nothing to return them to, and the
   report says so). *)

type shard_report = {
  endpoint : string;
  previous : int option;  (* active version before the publish *)
  prepared : bool;
  activated : bool;
  rolled_back : bool;
  detail : string;
}

type fleet_outcome = {
  committed : bool;
  fleet_name : string;
  fleet_version : int;
  reports : shard_report list;
}

(* Transport-class failures (connect refused, IO cut mid-frame, framing
   lost) are worth retrying on a jittered budget — the two-phase flip
   is idempotent per shard, staging the same artifact twice is a no-op.
   Protocol-level refusals (Remote nack, protocol confusion) are not:
   the peer answered; asking again will not change its mind. *)
let transport_error = function
  | Shard_client.Connect _ | Shard_client.Io _ | Shard_client.Decode _ -> true
  | Shard_client.Remote _ | Shard_client.Unexpected_reply _ -> false

let with_retry ~policy ~seed ~err f =
  let budget = Retry.start ~seed policy in
  let rec go () =
    match f () with
    | Ok _ as ok -> ok
    | Error e as failure -> (
        if not (transport_error (err e)) then failure
        else
          match Retry.next budget with
          | Some sleep ->
              Unix.sleepf sleep;
              go ()
          | None -> failure)
  in
  go ()

let publish_fleet ?(timeout = 30.0) ?(retry = Retry.default) ?(seed = 0)
    ~endpoints ~name ~version ~input_dims model =
  if not (valid_name name) then Error (Bad_name name)
  else if version < 0 then
    Error (Bad_artifact { file = name; reason = "negative version" })
  else if
    Array.length input_dims <> 3 || Array.exists (fun d -> d <= 0) input_dims
  then
    Error
      (Bad_artifact { file = name; reason = "input_dims must be [c;h;w] > 0" })
  else if endpoints = [] then
    Error (Bad_artifact { file = name; reason = "empty endpoint list" })
  else begin
    let payload = Model.to_string model in
    let report endpoint previous prepared activated rolled_back detail =
      { endpoint; previous; prepared; activated; rolled_back; detail }
    in
    (* Phase one: stage on every shard.  Each exchange gets a fresh
       connection so one wedged shard cannot poison another's stream;
       transport failures are retried on the attempt budget (staging is
       idempotent), with a distinct jitter stream per endpoint. *)
    let staged =
      List.mapi
        (fun i ep ->
          let stage () =
            match Shard_client.connect ~timeout ep with
            | Error e -> Error (None, e)
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Shard_client.close c)
                  (fun () ->
                    let previous =
                      match Shard_client.model_info c ~name with
                      | Ok (active, _) -> active
                      | Error _ -> None
                    in
                    match
                      Shard_client.publish c ~name ~version ~input_dims
                        ~payload
                    with
                    | Ok () -> Ok previous
                    | Error e -> Error (previous, e))
          in
          match with_retry ~policy:retry ~seed:(seed + i) ~err:snd stage with
          | Ok previous -> report ep previous true false false "staged"
          | Error (previous, e) ->
              report ep previous false false false
                (Shard_client.error_to_string e))
        endpoints
    in
    if List.exists (fun r -> not r.prepared) staged then
      (* Abort before any flip: every shard keeps serving its previous
         active version, so the fleet is still consistent. *)
      Ok
        {
          committed = false;
          fleet_name = name;
          fleet_version = version;
          reports = staged;
        }
    else begin
      (* Phase two: flip every shard.  Activation is idempotent too, so
         transport failures get the same retry budget; stop at the
         first definitive failure and roll the already-flipped shards
         back to their previous active version. *)
      let activate_ep i ep =
        with_retry ~policy:retry ~seed:(seed + i + List.length endpoints)
          ~err:Fun.id (fun () ->
            match Shard_client.connect ~timeout ep with
            | Error e -> Error e
            | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Shard_client.close c)
                  (fun () -> Shard_client.activate c ~name ~version))
      in
      let rec flip i acc = function
        | [] -> (true, List.rev acc)
        | r :: rest -> (
            match activate_ep i r.endpoint with
            | Ok () ->
                flip (i + 1)
                  ({ r with activated = true; detail = "active" } :: acc)
                  rest
            | Error e ->
                ( false,
                  List.rev_append acc
                    ({ r with detail = Shard_client.error_to_string e }
                    :: rest) ))
      in
      let committed, flipped = flip 0 [] staged in
      let reports =
        if committed then flipped
        else
          List.map
            (fun r ->
              if not r.activated then r
              else
                match r.previous with
                | None ->
                    {
                      r with
                      detail = "activated; no previous version to roll back to";
                    }
                | Some prev -> (
                    let roll () =
                      match Shard_client.connect ~timeout r.endpoint with
                      | Error e -> Error e
                      | Ok c ->
                          Fun.protect
                            ~finally:(fun () -> Shard_client.close c)
                            (fun () ->
                              Shard_client.activate c ~name ~version:prev)
                    in
                    match
                      with_retry ~policy:retry ~seed:(seed + 0x5bd1) ~err:Fun.id
                        roll
                    with
                    | Ok () ->
                        {
                          r with
                          rolled_back = true;
                          detail = Printf.sprintf "rolled back to v%d" prev;
                        }
                    | Error e ->
                        {
                          r with
                          detail =
                            Printf.sprintf "rollback to v%d failed: %s" prev
                              (Shard_client.error_to_string e);
                        }))
            flipped
      in
      Ok { committed; fleet_name = name; fleet_version = version; reports }
    end
  end
