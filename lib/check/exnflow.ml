(* Interprocedural exception flow: a conservative may-raise set for
   every value binding in the build tree, solved to fixpoint over
   the call edges of the one stamp-resolved [Callgraph].

   The lattice is flat-plus-top over exception constructor names:
   [Names S] means "raises at most the constructors in S", [Top] means
   a raise we cannot name (re-raise of an unknown value).  Summaries
   are small syntax trees — primitive raises, calls, and [Guard]
   nodes recording what a lexical [try]/[match ... with exception]
   handler provably catches — so handler subtraction happens *during*
   evaluation, against whatever the guarded body turns out to raise at
   the fixpoint, not against a syntactic guess.

   Sources of primitive raises: raise/failwith/invalid_arg/assert,
   a table of raising stdlib functions (Hashtbl.find, List.hd,
   int_of_string, channel IO, Unix.*, ...), and non-exhaustive
   matches from the typedtree.  Exception identity is the constructor
   name as the handler pattern would spell it (Queue.Empty and
   Stack.Empty both count as "Empty" — a deliberate conservative
   merge, see DESIGN.md §16).  Array/string indexing is out of scope,
   like every bounds-discipline question ntcheck leaves to review.

   Precision notes: nodes are Callgraph's, value bindings at the top
   level of a unit or of any nested [struct ... end], keyed by ident
   stamp so a shadowed binding (capture.ml wraps [handle_rpc] with a
   same-named catcher) keeps its own summary; local [let]-bound
   closures are not nodes — their bodies fold into the enclosing
   binding, which over-approximates when a closure defined outside a
   [try] is only ever called inside one. *)

module Names = Set.Make (String)

type exns = Top | Names of Names.t

let bot = Names Names.empty
let is_bot = function Names s -> Names.is_empty s | Top -> false

let union a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Names a, Names b -> Names (Names.union a b)

(* Subtracting named handlers from Top stays Top: if we cannot name
   what the body raises we cannot prove the handler catches it. *)
let subtract e ns =
  match e with
  | Top -> Top
  | Names s -> Names (List.fold_left (fun s n -> Names.remove n s) s ns)

let leq a b =
  match (a, b) with
  | _, Top -> true
  | Top, Names _ -> false
  | Names a, Names b -> Names.subset a b

let equal_exns a b = leq a b && leq b a
let mem_exn n = function Top -> true | Names s -> Names.mem n s

let to_strings = function
  | Top -> [ "*" ]
  | Names s -> Names.elements s

(* --- summaries --- *)

type catch = Catch_all | Catch_names of string list

type 'a item =
  | Prim of string * 'a  (* raises this constructor; payload = origin *)
  | Prim_top of 'a  (* raises something unnameable *)
  | Call of string  (* may raise whatever the named node raises *)
  | Guard of catch * 'a item list  (* handler-subtracted region *)

let rec eval lookup items =
  List.fold_left (fun acc it -> union acc (eval_item lookup it)) bot items

and eval_item lookup = function
  | Prim (n, _) -> Names (Names.singleton n)
  | Prim_top _ -> Top
  | Call k -> lookup k
  | Guard (Catch_all, _) -> bot
  | Guard (Catch_names ns, inner) -> subtract (eval lookup inner) ns

(* Round-robin fixpoint.  Monotone: every transfer function above is
   monotone in [lookup] and in its item list, and the name alphabet is
   finite (only constructors mentioned in summaries), so the chain
   bot ⊑ ... ⊑ Top stabilizes. *)
let solve summaries =
  let sol = Hashtbl.create 256 in
  List.iter (fun (k, _) -> if not (Hashtbl.mem sol k) then Hashtbl.add sol k bot) summaries;
  let lookup k = match Hashtbl.find_opt sol k with Some e -> e | None -> bot in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (k, items) ->
        let cur = lookup k in
        let next = union cur (eval lookup items) in
        if not (equal_exns next cur) then begin
          Hashtbl.replace sol k next;
          changed := true
        end)
      summaries
  done;
  sol

(* ================================================================== *)
(* Typedtree lowering                                                 *)
(* ================================================================== *)

type origin = { o_desc : string; o_file : string; o_line : int }

let origin_of_loc desc (loc : Location.t) =
  { o_desc = desc; o_file = loc.loc_start.pos_fname; o_line = loc.loc_start.pos_lnum }

type graph = {
  cg : Callgraph.t;
  summaries : (string, origin item list) Hashtbl.t;  (* node id -> summary *)
}

(* --- raising-stdlib seed table --- *)

let seed_exact =
  [
    ("failwith", [ "Failure" ]);
    ("invalid_arg", [ "Invalid_argument" ]);
    ("Hashtbl.find", [ "Not_found" ]);
    ("List.hd", [ "Failure" ]);
    ("List.tl", [ "Failure" ]);
    ("List.nth", [ "Failure"; "Invalid_argument" ]);
    ("List.find", [ "Not_found" ]);
    ("List.assoc", [ "Not_found" ]);
    ("List.assq", [ "Not_found" ]);
    ("Option.get", [ "Invalid_argument" ]);
    ("String.index", [ "Not_found" ]);
    ("String.rindex", [ "Not_found" ]);
    ("String.index_from", [ "Not_found" ]);
    ("String.rindex_from", [ "Not_found" ]);
    ("int_of_string", [ "Failure" ]);
    ("float_of_string", [ "Failure" ]);
    ("bool_of_string", [ "Invalid_argument" ]);
    ("Int32.of_string", [ "Failure" ]);
    ("Int64.of_string", [ "Failure" ]);
    ("Nativeint.of_string", [ "Failure" ]);
    ("Filename.chop_extension", [ "Invalid_argument" ]);
    ("Filename.chop_suffix", [ "Invalid_argument" ]);
    ("Sys.getenv", [ "Not_found" ]);
    ("Sys.remove", [ "Sys_error" ]);
    ("Sys.rename", [ "Sys_error" ]);
    ("Queue.pop", [ "Empty" ]);
    ("Queue.take", [ "Empty" ]);
    ("Queue.peek", [ "Empty" ]);
    ("Stack.pop", [ "Empty" ]);
    ("Stack.top", [ "Empty" ]);
    (* channel IO; stdout convenience printers are deliberately absent
       (a Sys_error on stdout is process-fatal by design, and lib code
       is already barred from stdout by the hygiene family) *)
    ("open_in", [ "Sys_error" ]);
    ("open_in_bin", [ "Sys_error" ]);
    ("open_in_gen", [ "Sys_error" ]);
    ("open_out", [ "Sys_error" ]);
    ("open_out_bin", [ "Sys_error" ]);
    ("open_out_gen", [ "Sys_error" ]);
    ("input_line", [ "End_of_file"; "Sys_error" ]);
    ("input_char", [ "End_of_file"; "Sys_error" ]);
    ("input_byte", [ "End_of_file"; "Sys_error" ]);
    ("input_binary_int", [ "End_of_file"; "Sys_error" ]);
    ("really_input", [ "End_of_file"; "Sys_error" ]);
    ("really_input_string", [ "End_of_file"; "Sys_error" ]);
    ("input", [ "Sys_error" ]);
    ("seek_in", [ "Sys_error" ]);
    ("pos_in", [ "Sys_error" ]);
    ("in_channel_length", [ "Sys_error" ]);
    ("close_in", [ "Sys_error" ]);
    ("output", [ "Sys_error" ]);
    ("output_string", [ "Sys_error" ]);
    ("output_substring", [ "Sys_error" ]);
    ("output_bytes", [ "Sys_error" ]);
    ("output_char", [ "Sys_error" ]);
    ("output_byte", [ "Sys_error" ]);
    ("output_binary_int", [ "Sys_error" ]);
    ("seek_out", [ "Sys_error" ]);
    ("pos_out", [ "Sys_error" ]);
    ("out_channel_length", [ "Sys_error" ]);
    ("close_out", [ "Sys_error" ]);
    ("flush", [ "Sys_error" ]);
  ]

(* Unix values that cannot meaningfully raise Unix_error. *)
let unix_safe =
  [
    "Unix.stdin"; "Unix.stdout"; "Unix.stderr"; "Unix.getpid"; "Unix.getppid";
    "Unix.gettimeofday"; "Unix.time"; "Unix.environment"; "Unix.error_message";
    "Unix.string_of_inet_addr"; "Unix.inet_addr_loopback"; "Unix.inet_addr_any";
  ]

let seed_names name =
  match List.assoc_opt name seed_exact with
  | Some ns -> ns
  | None ->
      if Syntax.starts_with ~prefix:"Unix." name && not (List.mem name unix_safe) then
        [ "Unix_error" ]
      else
        (* Functor-instance table lookups (Fh_tbl.find, M.find over
           Map/Set.Make results) follow the stdlib find contract. *)
        let last =
          match String.rindex_opt name '.' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name
        in
        if last = "find" && String.contains name '.' then [ "Not_found" ] else []

(* --- lowering --- *)

type env = {
  e_cg : Callgraph.t;
  e_unit : string;
  mutable reraise : string list;  (* unique_names of handler-bound exn vars *)
}

let ident_items env (p : Path.t) (loc : Location.t) =
  match Callgraph.resolve env.e_cg ~unit_name:env.e_unit p with
  | Some id -> [ Call id ]
  | None -> (
      match p with
      | Path.Pident _ ->
          (* An unresolved bare ident is a parameter or a function-local
             binding (whose body is already folded into this summary) —
             never a stdlib value, which the typedtree spells Stdlib.*.
             Consulting the seed table here would make a local named
             [flush] raise Sys_error. *)
          []
      | _ ->
          let name = Syntax.norm_path p in
          List.map
            (fun n -> Prim (n, origin_of_loc (name ^ " raises " ^ n) loc))
            (seed_names name))

let norm_cstr (cd : Types.constructor_description) = Syntax.norm_name cd.cstr_name

let rec pat_irrefutable (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> pat_irrefutable p
  | Tpat_tuple ps -> List.for_all pat_irrefutable ps
  | _ -> false

(* What one handler pattern provably catches: [`All], specific
   constructor names, or nothing we can credit (constant patterns,
   constructors with refutable argument patterns — those only catch a
   slice of the constructor's values). *)
let rec pat_catches (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> `All
  | Tpat_alias (p, _, _) -> pat_catches p
  | Tpat_construct (_, cd, args, _) ->
      if List.for_all pat_irrefutable args then `Names [ norm_cstr cd ] else `Names []
  | Tpat_or (a, b, _) -> (
      match (pat_catches a, pat_catches b) with
      | `All, _ | _, `All -> `All
      | `Names x, `Names y -> `Names (x @ y))
  | _ -> `Names []

let rec pat_bound_var (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | Tpat_or (a, _, _) -> pat_bound_var a
  | _ -> None

(* Does [body] re-raise the exception variable [id] bound by its own
   handler pattern?  (try ... with e -> cleanup; raise e) *)
let reraises_var (id : Ident.t) (body : Typedtree.expression) =
  let found = ref false in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (fp, _, _); _ }, args) -> (
        match Syntax.norm_path fp with
        | "raise" | "raise_notrace" -> (
            match args with
            | (_, Some { exp_desc = Texp_ident (Path.Pident aid, _, _); _ }) :: _
              when Ident.same aid id ->
                found := true
            | _ -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

let rec collect env (e0 : Typedtree.expression) : origin item list =
  let acc = ref [] in
  let push it = acc := it :: !acc in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> List.iter push (ident_items env p e.exp_loc)
    | Texp_apply (({ exp_desc = Texp_ident (fp, _, _); _ } as f), args) -> (
        match Syntax.norm_path fp with
        | ("raise" | "raise_notrace") as rk -> (
            match args with
            | (_, Some arg) :: rest -> (
                (match arg.exp_desc with
                | Texp_construct (_, cd, cargs) ->
                    let n = norm_cstr cd in
                    push (Prim (n, origin_of_loc (rk ^ " " ^ n) arg.exp_loc));
                    List.iter (fun a -> List.iter push (collect env a)) cargs
                | Texp_ident (Path.Pident id, _, _)
                  when List.mem (Ident.unique_name id) env.reraise ->
                    (* re-raise of the handler's own exception: modeled
                       by cancelling that handler's subtraction *)
                    ()
                | _ ->
                    push (Prim_top (origin_of_loc (rk ^ " of a computed exception") arg.exp_loc));
                    List.iter push (collect env arg));
                List.iter
                  (fun (_, a) -> match a with Some a -> List.iter push (collect env a) | None -> ())
                  rest)
            | _ ->
                (* bare [raise] passed as a value: anything could come out *)
                push (Prim_top (origin_of_loc "raise used as a first-class value" e.exp_loc)))
        | _ ->
            sub.Tast_iterator.expr sub f;
            List.iter
              (fun (_, a) -> match a with Some a -> sub.Tast_iterator.expr sub a | None -> ())
              args)
    | Texp_try (body, cases) ->
        let body_items = collect env body in
        let catch = ref `None in
        let merge c =
          match (!catch, c) with
          | `All, _ | _, `All -> catch := `All
          | `None, `Names ns -> catch := `Names ns
          | `Names a, `Names b -> catch := `Names (a @ b)
        in
        List.iter
          (fun (c : _ Typedtree.case) ->
            (match c.c_guard with
            | Some g -> List.iter push (collect env g)
            | None -> ());
            let bound = pat_bound_var c.c_lhs in
            let rethrows =
              match bound with Some id -> reraises_var id c.c_rhs | None -> false
            in
            (* a guarded or re-raising handler catches nothing for
               subtraction purposes, but its body still contributes *)
            if c.c_guard = None && not rethrows then merge (pat_catches c.c_lhs);
            let saved = env.reraise in
            (match bound with
            | Some id when rethrows -> env.reraise <- Ident.unique_name id :: env.reraise
            | _ -> ());
            List.iter push (collect env c.c_rhs);
            env.reraise <- saved)
          cases;
        let catch =
          match !catch with `All -> Catch_all | `Names ns -> Catch_names ns | `None -> Catch_names []
        in
        push (Guard (catch, body_items))
    | Texp_match (scrut, cases, partial) ->
        let scrut_items = collect env scrut in
        let catch = ref `None in
        let merge c =
          match (!catch, c) with
          | `All, _ | _, `All -> catch := `All
          | `None, `Names ns -> catch := `Names ns
          | `Names a, `Names b -> catch := `Names (a @ b)
        in
        List.iter
          (fun (c : _ Typedtree.case) ->
            (match c.c_guard with
            | Some g -> List.iter push (collect env g)
            | None -> ());
            (match Typedtree.split_pattern c.c_lhs with
            | _, Some exn_pat ->
                let bound = pat_bound_var exn_pat in
                let rethrows =
                  match bound with Some id -> reraises_var id c.c_rhs | None -> false
                in
                if c.c_guard = None && not rethrows then merge (pat_catches exn_pat);
                let saved = env.reraise in
                (match bound with
                | Some id when rethrows ->
                    env.reraise <- Ident.unique_name id :: env.reraise
                | _ -> ());
                List.iter push (collect env c.c_rhs);
                env.reraise <- saved
            | _, None -> List.iter push (collect env c.c_rhs)))
          cases;
        (match !catch with
        | `None -> List.iter push scrut_items
        | `All -> push (Guard (Catch_all, scrut_items))
        | `Names ns -> push (Guard (Catch_names ns, scrut_items)));
        if partial = Typedtree.Partial then
          push (Prim ("Match_failure", origin_of_loc "non-exhaustive match" e.exp_loc))
    | Texp_function { cases; partial; _ } ->
        if partial = Typedtree.Partial then
          push (Prim ("Match_failure", origin_of_loc "non-exhaustive function" e.exp_loc));
        List.iter (sub.Tast_iterator.case sub) cases
    | Texp_assert _ ->
        push (Prim ("Assert_failure", origin_of_loc "assert" e.exp_loc));
        Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e0;
  List.rev !acc

let build cg =
  let summaries = Hashtbl.create 1024 in
  List.iter
    (fun (n : Callgraph.node) ->
      let env = { e_cg = cg; e_unit = n.unit_name; reraise = [] } in
      Hashtbl.replace summaries n.id (collect env n.expr))
    (Callgraph.nodes cg);
  { cg; summaries }

let summary g id =
  match Hashtbl.find_opt g.summaries id with Some items -> items | None -> []

let set_summary g id items = Hashtbl.replace g.summaries id items

let summaries g =
  List.map (fun (n : Callgraph.node) -> (n.id, summary g n.id)) (Callgraph.nodes g.cg)

(* --- provenance: one witness chain for (node, exception) --- *)

let explain g sol ~id ~exn =
  let lookup k = match Hashtbl.find_opt sol k with Some e -> e | None -> bot in
  let visited = Hashtbl.create 16 in
  let rec through_items items =
    let rec go = function
      | [] -> None
      | Prim (n, o) :: _ when n = exn || exn = "*" ->
          Some [ Printf.sprintf "%s (%s:%d)" o.o_desc o.o_file o.o_line ]
      | Prim_top o :: _ when exn = "*" ->
          Some [ Printf.sprintf "%s (%s:%d)" o.o_desc o.o_file o.o_line ]
      | Call k :: rest -> (
          if mem_exn exn (lookup k) || (exn = "*" && lookup k = Top) then
            match via_node k with Some chain -> Some chain | None -> go rest
          else go rest)
      | Guard (catch, inner) :: rest -> (
          let survives =
            match catch with
            | Catch_all -> false
            | Catch_names ns -> not (List.mem exn ns)
          in
          if survives then
            match through_items inner with Some c -> Some c | None -> go rest
          else go rest)
      | _ :: rest -> go rest
    in
    go items
  and via_node k =
    if Hashtbl.mem visited k then None
    else begin
      Hashtbl.add visited k ();
      let name = match Callgraph.node g.cg k with Some n -> n.display | None -> k in
      match through_items (summary g k) with
      | Some chain -> Some (name :: chain)
      | None -> None
    end
  in
  Hashtbl.add visited id ();
  through_items (summary g id)
