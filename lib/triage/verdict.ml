(* Typed outcomes for one trial.  The classification rules are fixed
   and ordered — invariant violations dominate grading questions, a
   misgrade dominates mere degradation — so one measurement record
   maps to exactly one verdict, and equal scenarios map to equal
   verdicts on every machine. *)

type measurements = {
  m_confident : int;
  m_tentative : int;
  m_sign_only : int;
  m_unknown : int;
  m_value_correct : int;
  m_value_total : int;
  m_sign_correct : int;
  m_sign_total : int;
  m_confident_wrong : int;
  m_corrupt_skipped : int;
  m_results : int;
  m_violations : string list;
}

type t =
  | Bit_exact
  | Degraded_hints
  | Misgrade of int  (* confidently-wrong-sign coefficient count *)
  | Invariant_violation of string
  | Crash of string  (* exit/signal/exception family — no message text *)
  | Timeout of float

(* Calibration note: the clean pipeline recovers every SIGN but only a
   fraction of exact values (the paper's own Table IV shape), so the
   pass/fail line is drawn on signs.  Bit_exact = the attack's full
   clean-run product: every coefficient's sign recovered, none lost to
   corruption or demoted to Unknown.  Misgrade = the gate vouched
   (Confident) for a wrong sign — never happens on an honest run. *)
let classify m =
  match m.m_violations with
  | v :: _ -> Invariant_violation v
  | [] ->
      if m.m_confident_wrong > 0 then Misgrade m.m_confident_wrong
      else if
        m.m_sign_total > 0
        && m.m_sign_correct = m.m_sign_total
        && m.m_unknown = 0 && m.m_corrupt_skipped = 0
      then Bit_exact
      else Degraded_hints

let is_failure = function
  | Misgrade _ | Invariant_violation _ | Crash _ | Timeout _ -> true
  | Bit_exact | Degraded_hints -> false

(* The signature's detail field: the failure's shape, never its size —
   a misgrade of 3 coefficients and of 7 are the same bug. *)
let detail = function
  | Bit_exact -> "bit-exact"
  | Degraded_hints -> "degraded"
  | Misgrade _ -> "confident-wrong-sign"
  | Invariant_violation v -> v
  | Crash s -> s
  | Timeout _ -> "timeout"

let kind = function
  | Bit_exact -> "bit-exact"
  | Degraded_hints -> "degraded-hints"
  | Misgrade _ -> "misgrade"
  | Invariant_violation _ -> "invariant-violation"
  | Crash _ -> "crash"
  | Timeout _ -> "timeout"

let same_failure a b = kind a = kind b && detail a = detail b

let to_string = function
  | Bit_exact -> "bit-exact"
  | Degraded_hints -> "degraded-hints"
  | Misgrade k -> Printf.sprintf "misgrade (%d confident signs wrong)" k
  | Invariant_violation v -> Printf.sprintf "invariant-violation (%s)" v
  | Crash s -> Printf.sprintf "crash (%s)" s
  | Timeout t -> Printf.sprintf "timeout (%.1fs)" t

(* The exception family, not its message: signatures must survive
   log-noise (paths, counts, offsets embedded in messages). *)
let crash_of_exn = function
  | Failure _ -> Crash "exception-failure"
  | Invalid_argument _ -> Crash "exception-invalid-argument"
  | Traceio.Error.Corrupt _ -> Crash "exception-corrupt"
  | Traceio.Error.Io _ -> Crash "exception-io"
  | Assert_failure _ -> Crash "exception-assert"
  | Not_found -> Crash "exception-not-found"
  | Division_by_zero -> Crash "exception-division-by-zero"
  | Out_of_memory -> Crash "exception-out-of-memory"
  | Stack_overflow -> Crash "exception-stack-overflow"
  | _ -> Crash "exception-other"

(* --- worker result codec ------------------------------------------------- *)

let measurements_to_json m =
  Obs.Json.Obj
    [
      ("confident", Obs.Json.Int m.m_confident);
      ("tentative", Obs.Json.Int m.m_tentative);
      ("sign_only", Obs.Json.Int m.m_sign_only);
      ("unknown", Obs.Json.Int m.m_unknown);
      ("value_correct", Obs.Json.Int m.m_value_correct);
      ("value_total", Obs.Json.Int m.m_value_total);
      ("sign_correct", Obs.Json.Int m.m_sign_correct);
      ("sign_total", Obs.Json.Int m.m_sign_total);
      ("confident_wrong", Obs.Json.Int m.m_confident_wrong);
      ("corrupt_skipped", Obs.Json.Int m.m_corrupt_skipped);
      ("results", Obs.Json.Int m.m_results);
      ("violations", Obs.Json.List (List.map (fun v -> Obs.Json.String v) m.m_violations));
    ]

let to_json v =
  let base = [ ("kind", Obs.Json.String (kind v)) ] in
  Obs.Json.Obj
    (match v with
    | Bit_exact | Degraded_hints -> base
    | Misgrade k -> base @ [ ("confident_wrong", Obs.Json.Int k) ]
    | Invariant_violation d -> base @ [ ("detail", Obs.Json.String d) ]
    | Crash d -> base @ [ ("detail", Obs.Json.String d) ]
    | Timeout t -> base @ [ ("seconds", Obs.Json.Float t) ])

let of_json j =
  let str k = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt in
  match str "kind" with
  | Some "bit-exact" -> Some Bit_exact
  | Some "degraded-hints" -> Some Degraded_hints
  | Some "misgrade" ->
      Some (Misgrade (Option.value ~default:1 (Option.bind (Obs.Json.member "confident_wrong" j) Obs.Json.to_int_opt)))
  | Some "invariant-violation" -> Option.map (fun d -> Invariant_violation d) (str "detail")
  | Some "crash" -> Option.map (fun d -> Crash d) (str "detail")
  | Some "timeout" ->
      Some (Timeout (Option.value ~default:0.0 (Option.bind (Obs.Json.member "seconds" j) Obs.Json.to_float_opt)))
  | _ -> None
