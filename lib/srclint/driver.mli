(** The srclint driver: walk sources, run the pass, apply
    suppressions, synthesize the meta findings, render the report.

    Exit-code mapping lives in the CLI; here a report is {!clean}
    when no finding survived (rule breaks, unused allows and bad
    directives all count), and {!drift} compares the surviving
    findings against the expect table for [--check]. *)

type report = {
  paths : string list;  (** the paths as given on the command line *)
  files : int;  (** .ml files scanned *)
  findings : Finding.t list;  (** surviving findings, report order *)
  suppressed : int;  (** findings an allow directive absorbed *)
  expects : (string * int * string) list;  (** (file, line, rule name) expect directives *)
}

val report_of_strings :
  ?paths:string list -> ?library:(string -> bool) -> (string * string) list -> (report, string) result
(** Lint in-memory [(file, source)] pairs — the unit tests' entry
    point; {!lint_paths} routes through this.  [library file] (default:
    always) says whether [file] is library code (see
    {!Engine.analyze_string}). *)

val lint_paths : string list -> (report, string) result
(** Walk each path (recursing into directories, skipping [_build] and
    dot-entries), lint every [.ml] file in sorted order.  [Error] on
    unreadable paths and files that do not parse.  A file is library
    code unless the [dune] file beside it declares executables or
    tests and no library. *)

val clean : report -> bool

val drift : report -> string list
(** Mismatches between findings and the expect table, both directions
    — the [--check] verdict, mirroring leaklint's verdict-table
    check.  Empty means every expect matched a finding and every
    finding was expected. *)

val render : report -> string
(** Human-readable report: header, one shared-schema line per finding
    (see {!Ctcheck.Render}), verdict. *)

val to_json : report -> drift:string list -> ok:bool -> Obs.Json.t
(** The [--json] document: [paths], [files], [suppressed], [findings]
    (shared row objects), [drift], [ok]. *)
