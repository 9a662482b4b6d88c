(** Per-site suppression and expectation directives.

    A directive is an OCaml comment containing, on one line:

    - [(* srclint: allow RULE reason... *)] — suppress findings of
      [RULE] on this line or the next; the reason is mandatory and
      free-form.  An allow that never fires is reported as an
      [unused-allow] finding, mirroring leaklint's
      confirmed-vs-static discipline: a suppression is a claim, and
      stale claims must surface.
    - [(* srclint: expect RULE *)] — under [--check], assert that a
      finding of [RULE] anchors on this line or the next.  Used by
      the planted-violation fixtures; drift in either direction
      fails.

    Scanning is textual and line-based (the parser drops comments).
    A line whose first string-quote opens before the marker is never
    a directive, so documentation and tests can quote the syntax;
    keep real directives on their own line when in doubt. *)

type parsed =
  | Not_directive
  | Allow of Rule.t * string  (** rule, reason (whitespace-normalized) *)
  | Expect of string  (** a core rule name or a meta finding name *)
  | Malformed of string  (** a directive that does not parse — reported as [bad-directive] *)

val parse_line : string -> parsed
(** Classify one source line.  Total: lines without the marker are
    {!Not_directive}, marker lines that fail to parse are
    {!Malformed}. *)

val allow_comment : rule:Rule.t -> reason:string -> string
(** Render an allow directive; [parse_line (allow_comment ~rule ~reason)]
    round-trips to [Allow (rule, reason)] for single-spaced reasons
    (the QCheck property pins this). *)

type scan = {
  allows : (int * Rule.t * string) list;  (** (1-based line, rule, reason) *)
  expects : (int * string) list;
  malformed : (int * string) list;
}

val scan : string -> scan
(** All directives of one source, in line order. *)

val covers : directive_line:int -> finding_line:int -> bool
(** A directive on line [L] covers findings on [L] and [L+1]. *)
