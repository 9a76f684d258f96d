module Json = Nt_obs.Obs.Json

let version = Nt_formats.Formats.checkpoint_version

(* Past 2^53 a JSON number no longer holds every integer, so a count
   that large would restore as a different count. *)
let rec exact = function
  | Json.Num f -> Float.abs f < 9007199254740992.
  | Arr l -> List.for_all exact l
  | Obj kvs -> List.for_all (fun (_, v) -> exact v) kvs
  | Null | Bool _ | Str _ -> true

let save ~path doc =
  if not (exact doc) then Error "checkpoint holds a number outside ±2^53"
  else
    let body = Json.to_string doc in
    let digest = Digest.to_hex (Digest.string body) in
    let tmp = path ^ ".tmp" in
    match
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = Unix.out_channel_of_descr fd in
          output_string oc (body ^ "\ndigest " ^ digest ^ "\n");
          flush oc;
          Unix.fsync fd);
      Unix.rename tmp path
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | exception Sys_error e -> Error e

let load ~path =
  let ( let* ) = Result.bind in
  let* raw =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | s -> Ok s
    | exception Sys_error e -> Error e
    | exception End_of_file -> Error "truncated checkpoint"
  in
  let* body =
    match String.split_on_char '\n' raw with
    | [ body; digest; "" ] when String.equal digest ("digest " ^ Digest.to_hex (Digest.string body))
      ->
        Ok body
    | [ _; _; "" ] -> Error "checkpoint digest mismatch"
    | _ -> Error "not a one-line checkpoint with a digest"
  in
  let* doc = Json.parse body in
  match Json.member "format" doc with
  | Some (Str v) when String.equal v version -> Ok doc
  | Some (Str v) -> Error ("unsupported checkpoint version: " ^ v)
  | _ -> Error "checkpoint has no format"
