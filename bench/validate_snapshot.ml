(* Minimal JSON-Schema validator (type / required / properties / items /
   enum) for the observability exports — enough schema to keep the
   binaries' --metrics and --trace-out output honest without an
   external dependency.

   Usage: validate_snapshot SCHEMA DOC

   Exits 1 with a path-qualified message on the first violation. *)

module J = Nt_obs.Obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fail path msg =
  let where = match String.concat "." (List.rev path) with "" -> "$" | p -> p in
  Printf.eprintf "validate_snapshot: %s: %s\n" where msg;
  exit 1

let type_name = function
  | J.Null -> "null"
  | J.Bool _ -> "boolean"
  | J.Num _ -> "number"
  | J.Str _ -> "string"
  | J.Arr _ -> "array"
  | J.Obj _ -> "object"

let type_matches v t =
  match (t, v) with
  | "object", J.Obj _
  | "array", J.Arr _
  | "string", J.Str _
  | "boolean", J.Bool _
  | "null", J.Null
  | "number", J.Num _ ->
      true
  | "integer", J.Num x -> Float.is_integer x
  | ("object" | "array" | "string" | "boolean" | "null" | "number" | "integer"), _ -> false
  | t, _ -> invalid_arg ("unsupported schema type " ^ t)

let rec validate path (schema : J.v) (v : J.v) =
  (match J.member "type" schema with
  | Some (J.Str t) ->
      if not (type_matches v t) then
        fail path (Printf.sprintf "expected %s, got %s" t (type_name v))
  | Some _ -> fail path "schema: \"type\" must be a string"
  | None -> ());
  (match J.member "enum" schema with
  | Some (J.Arr allowed) -> if not (List.mem v allowed) then fail path "value not in enum"
  | Some _ -> fail path "schema: \"enum\" must be an array"
  | None -> ());
  (match (J.member "required" schema, v) with
  | Some (J.Arr names), J.Obj fields ->
      List.iter
        (fun name ->
          match name with
          | J.Str name ->
              if not (List.mem_assoc name fields) then
                fail path ("missing required member " ^ name)
          | _ -> fail path "schema: \"required\" entries must be strings")
        names
  | Some _, _ | None, _ -> ());
  (match (J.member "properties" schema, v) with
  | Some (J.Obj props), J.Obj fields ->
      List.iter
        (fun (k, sub) ->
          match List.assoc_opt k fields with
          | Some fv -> validate (k :: path) sub fv
          | None -> ())
        props
  | _ -> ());
  match (J.member "items" schema, v) with
  | Some sub, J.Arr items ->
      List.iteri (fun i it -> validate (Printf.sprintf "[%d]" i :: path) sub it) items
  | _ -> ()

let () =
  match Array.to_list Sys.argv with
  | [ _; schema_path; doc_path ] ->
      let parse what s =
        match J.parse s with
        | Ok v -> v
        | Error e ->
            Printf.eprintf "validate_snapshot: %s: %s\n" what e;
            exit 1
      in
      let schema = parse schema_path (read_file schema_path) in
      validate [] schema (parse doc_path (read_file doc_path));
      Printf.printf "validate_snapshot: %s conforms to %s\n" doc_path schema_path
  | _ ->
      Printf.eprintf "usage: validate_snapshot SCHEMA DOC\n";
      exit 2
