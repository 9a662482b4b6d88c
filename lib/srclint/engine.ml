(* The static pass proper: one Parsetree traversal per file, five rule
   classes, everything syntactic and conservative.  compiler-libs
   ships with the compiler, so this adds no external dependency.

   Conservatism contract (see DESIGN.md §15): the pass over-reports
   rather than model dataflow — a Hashtbl.fold is clean only when a
   sort visibly consumes it at the call site, a Domain.spawn closure
   is clean only when the closure itself mentions a synchronizer.
   Anything the syntax cannot prove is a finding, and provably-benign
   sites are allowlisted with a written reason. *)

open Parsetree

type raw = { r_line : int; r_rule : Rule.t; r_detail : string }

let rec path_strings = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (l, s) -> ( match path_strings l with Some p -> Some (p @ [ s ]) | None -> None)
  | Longident.Lapply _ -> None

let dotted lid = match path_strings lid with Some p -> Some (String.concat "." p) | None -> None

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let rec head e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> dotted txt | Pexp_apply (f, _) -> head f | _ -> None

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* --- rule 1: nondeterminism sources ------------------------------------- *)

let nondet_detail name =
  match name with
  | "Random.self_init" -> Some "seeds the global PRNG from ambient entropy — randomness must flow from explicit seeds"
  | "Unix.gettimeofday" | "Unix.time" ->
      Some (name ^ " reads the wall clock — route time through Obs.Clock or allowlist the sanctioned site")
  | "Sys.time" -> Some "reads process CPU time — not reproducible across runs"
  | "Domain.self" -> Some "domain identity depends on runtime scheduling"
  | _ -> (
      (* Global-state Random.* (Random.State.* is explicit-state and fine). *)
      match String.index_opt name '.' with
      | Some i when String.sub name 0 i = "Random" && not (starts_with ~prefix:"Random.State" name) ->
          Some (name ^ " draws from the global PRNG — use a seeded Mathkit.Prng (or Random.State)")
      | _ -> None)

(* --- rule 5: bounds-unchecked indexing ------------------------------------ *)

(* Any module's unsafe accessors ([Array.unsafe_get], [Bytes.unsafe_set],
   [Bigarray.Array1.unsafe_get], [String.unsafe_get], ...): the dotted
   path is matched on its tail so new containers are covered for free. *)
let unsafe_index_detail name =
  if ends_with ~suffix:".unsafe_get" name || ends_with ~suffix:".unsafe_set" name then
    Some (name ^ " skips bounds checking — allowed only at audited kernel sites with a written reason")
  else None

(* --- rule 2: Hashtbl iteration order ------------------------------------- *)

let foldish = [ "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys"; "Hashtbl.to_seq_values" ]
let iterish = [ "Hashtbl.iter"; "Hashtbl.filter_map_inplace" ]

let sorters =
  [
    "List.sort";
    "List.stable_sort";
    "List.fast_sort";
    "List.sort_uniq";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

let is_sorter n = List.mem n sorters

(* --- rule 3: Domain.spawn captures ---------------------------------------- *)

let sync_prefixes = [ "Mutex."; "Atomic."; "Semaphore."; "Condition."; "Domain.DLS." ]
let mutable_prefixes = [ "Hashtbl."; "Buffer."; "Queue."; "Stack." ]

let mutable_idents =
  [ ":="; "!"; "incr"; "decr"; "Array.set"; "Array.fill"; "Array.blit"; "Bytes.set"; "Bytes.fill"; "Bytes.blit" ]

(* Collect (dotted ident, line) mentions plus mutable-field writes in a
   closure body; the write markers use the pseudo-name "<-". *)
let mentions e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match dotted txt with Some n -> acc := (n, line_of e.pexp_loc) :: !acc | None -> ())
          | Pexp_setfield _ | Pexp_setinstvar _ -> acc := ("<-", line_of e.pexp_loc) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !acc

let is_mutation n =
  n = "<-" || List.mem n mutable_idents || List.exists (fun p -> starts_with ~prefix:p n) mutable_prefixes

let is_sync n = List.exists (fun p -> starts_with ~prefix:p n) sync_prefixes

(* A module-level [lazy] (or [Lazy.from_fun]) value is shared by every
   domain: the first two to force it at once race, and the loser raises
   [CamlinternalLazy.Undefined].  Which domains reach a binding is not
   visible from one file, so in library code every such binding is a
   finding. *)
let rec lazy_value e =
  match e.pexp_desc with
  | Pexp_lazy _ -> Some "lazy"
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> lazy_value e
  | Pexp_apply (f, _) when head f = Some "Lazy.from_fun" -> Some "Lazy.from_fun"
  | _ -> None

(* --- rule 4: exception message strings ------------------------------------ *)

let comparators =
  [ "="; "<>"; "=="; "!="; "String.equal"; "String.compare"; "String.starts_with"; "String.ends_with" ]

let rec pat_string_construct p =
  let has_string p =
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        pat =
          (fun it p ->
            (match p.ppat_desc with Ppat_constant (Pconst_string _) -> found := true | _ -> ());
            Ast_iterator.default_iterator.pat it p);
      }
    in
    it.pat it p;
    !found
  in
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, Some (_, arg)) when has_string arg ->
      Some (line_of p.ppat_loc, Option.value ~default:"?" (dotted txt))
  | Ppat_variant (label, Some arg) when has_string arg -> Some (line_of p.ppat_loc, "`" ^ label)
  | Ppat_or (a, b) -> ( match pat_string_construct a with Some r -> Some r | None -> pat_string_construct b)
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_string_construct p
  | Ppat_tuple ps -> List.find_map pat_string_construct ps
  | _ -> None

(* --- the pass -------------------------------------------------------------- *)

let analyze ~library structure =
  let out = ref [] in
  let emit line rule detail = out := { r_line = line; r_rule = rule; r_detail = detail } :: !out in
  let sorted = ref 0 in
  let in_sorted f =
    incr sorted;
    Fun.protect ~finally:(fun () -> decr sorted) f
  in
  let exn_pattern p =
    match pat_string_construct p with
    | Some (line, constr) ->
        emit line Rule.Exn_message
          (Printf.sprintf "handler matches %s on a literal message string — match the exception family instead" constr)
    | None -> ()
  in
  let spawn_check args =
    List.iter
      (fun (_, arg) ->
        let ms = mentions arg in
        match List.find_opt (fun (n, _) -> is_mutation n) ms with
        | Some (name, line) when not (List.exists (fun (n, _) -> is_sync n) ms) ->
            emit line Rule.Domain_capture
              (Printf.sprintf
                 "Domain.spawn closure touches mutable state (%s) with no Mutex/Atomic in the closure" name)
        | _ -> ())
      args
  in
  let expr_iter (it : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match dotted txt with
        | None -> ()
        | Some name -> (
            (match nondet_detail name with
            | Some d -> emit (line_of e.pexp_loc) Rule.Nondet_source d
            | None -> ());
            (match unsafe_index_detail name with
            | Some d -> emit (line_of e.pexp_loc) Rule.Unsafe_index d
            | None -> ());
            if List.mem name iterish then
              emit (line_of e.pexp_loc) Rule.Hashtbl_order
                (name ^ " visits entries in nondeterministic hash order — collect, sort, then iterate")
            else if List.mem name foldish && !sorted = 0 then
              emit (line_of e.pexp_loc) Rule.Hashtbl_order
                (name ^ " result is not visibly sorted — hash order could reach emitted output")))
    | Pexp_try (body, cases) ->
        List.iter (fun c -> exn_pattern c.pc_lhs) cases;
        it.expr it body;
        List.iter
          (fun c ->
            (match c.pc_guard with Some g -> it.expr it g | None -> ());
            it.expr it c.pc_rhs)
          cases
    | Pexp_apply (f, args) -> (
        match head f with
        | Some h when is_sorter h ->
            it.expr it f;
            in_sorted (fun () -> List.iter (fun (_, a) -> it.expr it a) args)
        | Some "|>" -> (
            match args with
            | [ (_, l); (_, r) ] when (match head r with Some hr -> is_sorter hr | None -> false) ->
                in_sorted (fun () -> it.expr it l);
                it.expr it r
            | _ -> Ast_iterator.default_iterator.expr it e)
        | Some "@@" -> (
            match args with
            | [ (_, l); (_, r) ] when (match head l with Some hl -> is_sorter hl | None -> false) ->
                it.expr it l;
                in_sorted (fun () -> it.expr it r)
            | _ -> Ast_iterator.default_iterator.expr it e)
        | Some "Domain.spawn" ->
            spawn_check args;
            Ast_iterator.default_iterator.expr it e
        | Some h when List.mem h comparators ->
            List.iter
              (fun (_, a) ->
                List.iter
                  (fun (n, line) ->
                    if n = "Printexc.to_string" || n = "Printexc.to_string_default" then
                      emit line Rule.Exn_message
                        "compares an exception's rendered message — match on the exception family instead")
                  (mentions a))
              args;
            Ast_iterator.default_iterator.expr it e
        | _ -> Ast_iterator.default_iterator.expr it e)
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let pat_iter (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with Ppat_exception inner -> exn_pattern inner | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let structure_item_iter (it : Ast_iterator.iterator) si =
    (match si.pstr_desc with
    | Pstr_value (_, bindings) when library ->
        List.iter
          (fun vb ->
            match lazy_value vb.pvb_expr with
            | Some how ->
                emit (line_of vb.pvb_loc) Rule.Domain_capture
                  (Printf.sprintf
                     "module-level %s value: two domains forcing it at once raise CamlinternalLazy.Undefined \
                      — build it eagerly"
                     how)
            | None -> ())
          bindings
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it si
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = expr_iter;
      pat = pat_iter;
      structure_item = structure_item_iter;
    }
  in
  it.structure it structure;
  List.sort_uniq compare (List.rev !out)

let analyze_string ?(library = true) ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok (analyze ~library structure)
  | exception exn -> Error (Printf.sprintf "%s: parse error (%s)" file (Printexc.to_string exn))
