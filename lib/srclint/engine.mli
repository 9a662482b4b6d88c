(** The static pass: five syntactic, conservative rule classes over
    one file's Parsetree (compiler-libs [Parse] + [Ast_iterator] — no
    external dependency).

    Soundness stance, spelled out in DESIGN.md §15: the pass
    over-approximates.  A [Hashtbl.fold]/[to_seq] is clean only when
    a [List.sort*]/[Array.sort*] application visibly consumes it at
    the call site (directly, via [|>], or via [@@]); [Hashtbl.iter]
    is never clean; a [Domain.spawn] argument is clean only when the
    closure's own subtree mentions a synchronizer, and a module-level
    [lazy] in library code is never clean; module aliases and
    [open]ed modules are not resolved.  What the syntax cannot prove
    is a finding — provably-benign sites carry an allow directive
    with a written reason instead. *)

type raw = { r_line : int; r_rule : Rule.t; r_detail : string }
(** A pre-suppression finding: 1-based line, rule, one-line why. *)

val analyze_string : ?library:bool -> file:string -> string -> (raw list, string) result
(** Parse [src] (named [file] for locations) and run every rule.
    Findings are sorted by line then rule and deduplicated; a file
    that does not parse is an [Error].  [library] (default [true])
    says the file is library code, which any caller's domains can
    reach: only there is a module-level [lazy] binding a
    [domain-capture] finding. *)
