(** Report rendering: one declaration, two renderers.

    The experiment modules used to hand-roll every table twice — once
    as [Printf] text, and (for machine consumption) not at all.  Here
    a table is a list of {!column} declarations; {!table} renders the
    same rows as the historical byte-exact text AND as a JSON array,
    so the two can never drift.  The JSON side is an {!Obs.Json.t}
    (the codec traces and reports share). *)

type doc = { text : string; json : Obs.Json.t }
(** One artefact, both renderings. *)

(** {1 Column combinators} *)

type 'a column = {
  heading : string;  (** carries its own leading spaces — headings concatenate byte-exactly *)
  cell : 'a -> string;  (** fixed-width cell, leading spaces included *)
  key : string;  (** JSON field name *)
  value : 'a -> Obs.Json.t;
}

val column : heading:string -> key:string -> cell:('a -> string) -> value:('a -> Obs.Json.t) -> 'a column

val fcol : heading:string -> key:string -> fmt:(float -> string, unit, string) format -> ('a -> float) -> 'a column
(** Float column: [fmt] formats the text cell, JSON gets the raw value. *)

val icol : heading:string -> key:string -> fmt:(int -> string, unit, string) format -> ('a -> int) -> 'a column
val scol : heading:string -> key:string -> fmt:(string -> string, unit, string) format -> ('a -> string) -> 'a column

val row_json : 'a column list -> 'a -> Obs.Json.t
(** The [Obj] a single row renders to. *)

val table : title:string -> ?header:string -> ?footer:string -> 'a column list -> 'a list -> doc
(** [table ~title columns rows] — text is
    [title ^ headings ^ "\n" ^ row lines ^ footer] (pass [?header] to
    override the concatenated headings when the historical header line
    does not decompose per column); json is the array of row objects.
    [title] and [footer] must carry their own trailing newlines, as the
    historical renderers did. *)
