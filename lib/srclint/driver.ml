type report = {
  paths : string list;
  files : int;
  findings : Finding.t list;
  suppressed : int;
  expects : (string * int * string) list;
}

(* --- one file -------------------------------------------------------------- *)

(* Apply suppressions and synthesize the meta findings for one file. *)
let file_findings ~library ~file src =
  match Engine.analyze_string ~library ~file src with
  | Error _ as e -> e
  | Ok raws ->
      let scan = Suppress.scan src in
      let used = Hashtbl.create 8 in
      let surviving =
        List.filter
          (fun (r : Engine.raw) ->
            match
              List.find_opt
                (fun (aline, arule, _) ->
                  arule = r.Engine.r_rule && Suppress.covers ~directive_line:aline ~finding_line:r.Engine.r_line)
                scan.Suppress.allows
            with
            | Some (aline, _, _) ->
                Hashtbl.replace used aline ();
                false
            | None -> true)
          raws
      in
      let broke =
        List.map
          (fun (r : Engine.raw) ->
            { Finding.file; line = r.Engine.r_line; kind = Finding.Broke r.Engine.r_rule; detail = r.Engine.r_detail })
          surviving
      in
      let unused =
        List.filter_map
          (fun (aline, arule, reason) ->
            if Hashtbl.mem used aline then None
            else
              Some
                {
                  Finding.file;
                  line = aline;
                  kind = Finding.Unused_allow arule;
                  detail = Printf.sprintf "allow %s never fired (reason given: %s)" (Rule.name arule) reason;
                })
          scan.Suppress.allows
      in
      let bad =
        List.map
          (fun (mline, msg) -> { Finding.file; line = mline; kind = Finding.Bad_directive; detail = msg })
          scan.Suppress.malformed
      in
      let suppressed = List.length raws - List.length surviving in
      let expects = List.map (fun (eline, name) -> (file, eline, name)) scan.Suppress.expects in
      Ok (List.sort Finding.compare (broke @ unused @ bad), suppressed, expects)

let report_of_strings ?(paths = []) ?(library = fun _ -> true) sources =
  let rec fold acc = function
    | [] -> Ok acc
    | (file, src) :: rest -> (
        match file_findings ~library:(library file) ~file src with
        | Error msg -> Error msg
        | Ok (fs, supp, exps) ->
            let findings, suppressed, expects = acc in
            fold (findings @ fs, suppressed + supp, expects @ exps) rest)
  in
  match fold ([], 0, []) sources with
  | Error _ as e -> e
  | Ok (findings, suppressed, expects) ->
      Ok { paths; files = List.length sources; findings = List.sort Finding.compare findings; suppressed; expects }

(* --- the filesystem walk ---------------------------------------------------- *)

(* Sys.readdir order is filesystem-dependent; sorting here keeps every
   report (and the golden fixtures) byte-stable. *)
let rec collect path acc =
  match Sys.is_directory path with
  | exception Sys_error msg -> Error msg
  | true ->
      let entries = Sys.readdir path |> Array.to_list |> List.sort String.compare in
      List.fold_left
        (fun acc name ->
          match acc with
          | Error _ as e -> e
          | Ok files ->
              if name = "_build" || (String.length name > 0 && name.[0] = '.') then Ok files
              else collect (Filename.concat path name) files)
        (Ok acc) entries
  | false -> if Filename.check_suffix path ".ml" then Ok (path :: acc) else Ok acc

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

(* The heads of a dune file's lists ("library", "name", ...), with
   ";" comments skipped. *)
let dune_heads src =
  let n = String.length src in
  let rec scan i acc =
    if i >= n then acc
    else
      match src.[i] with
      | ';' -> scan (Option.value ~default:n (String.index_from_opt src i '\n')) acc
      | '(' ->
          let j = ref (i + 1) in
          while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
            incr j
          done;
          scan !j (String.sub src (i + 1) (!j - i - 1) :: acc)
      | _ -> scan (i + 1) acc
  in
  scan 0 []

(* Library code is any file whose directory's dune file declares a
   library, or that has no dune file at all.  A directory of only
   executables or tests holds modules that only its own programs link. *)
let in_library file =
  match read_file (Filename.concat (Filename.dirname file) "dune") with
  | Error _ -> true
  | Ok src ->
      let heads = dune_heads src in
      List.mem "library" heads
      || not (List.exists (fun h -> List.mem h heads) [ "executable"; "executables"; "test"; "tests" ])

let lint_paths paths =
  let rec gather acc = function
    | [] -> Ok (List.sort String.compare acc)
    | p :: rest -> ( match collect p acc with Ok files -> gather files rest | Error _ as e -> e)
  in
  match gather [] paths with
  | Error msg -> Error msg
  | Ok files -> (
      let rec load acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> ( match read_file f with Ok src -> load ((f, src) :: acc) rest | Error _ as e -> e)
      in
      match load [] files with
      | Error msg -> Error msg
      | Ok sources -> report_of_strings ~paths ~library:in_library sources)

(* --- verdicts ---------------------------------------------------------------- *)

let clean r = r.findings = []

(* Drift between the findings and the expect table: used by --check on
   the planted fixtures, mirroring leaklint's verdict-table check. *)
let drift r =
  let covered f =
    List.exists
      (fun (efile, eline, ename) ->
        efile = f.Finding.file
        && ename = Finding.rule_name f.Finding.kind
        && Suppress.covers ~directive_line:eline ~finding_line:f.Finding.line)
      r.expects
  in
  let matched (efile, eline, ename) =
    List.exists
      (fun f ->
        efile = f.Finding.file
        && ename = Finding.rule_name f.Finding.kind
        && Suppress.covers ~directive_line:eline ~finding_line:f.Finding.line)
      r.findings
  in
  List.filter_map
    (fun e ->
      if matched e then None
      else
        let file, line, name = e in
        Some (Printf.sprintf "missing expected finding: %s at %s:%d" name file line))
    r.expects
  @ List.filter_map
      (fun f ->
        if covered f then None
        else
          Some
            (Printf.sprintf "finding not in the expect table: %s at %s:%d" (Finding.rule_name f.Finding.kind)
               f.Finding.file f.Finding.line))
      r.findings

(* --- rendering --------------------------------------------------------------- *)

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "srclint: %d files, %d findings, %d suppressed\n" r.files (List.length r.findings) r.suppressed);
  List.iter
    (fun f ->
      Buffer.add_string buf ("  " ^ Finding.to_string f);
      Buffer.add_char buf '\n')
    r.findings;
  let nviol = List.length (List.filter (fun f -> Finding.severity_name f.Finding.kind = "VIOLATION") r.findings) in
  let nwarn = List.length r.findings - nviol in
  Buffer.add_string buf
    (if r.findings = [] then "verdict: CLEAN\n"
     else
       Printf.sprintf "verdict: DIRTY (%d violation%s, %d warning%s)\n" nviol
         (if nviol = 1 then "" else "s")
         nwarn
         (if nwarn = 1 then "" else "s"));
  Buffer.contents buf

let to_json r ~drift ~ok =
  Obs.Json.Obj
    [
      ("paths", Obs.Json.List (List.map (fun p -> Obs.Json.String p) r.paths));
      ("files", Obs.Json.Int r.files);
      ("suppressed", Obs.Json.Int r.suppressed);
      ("findings", Obs.Json.List (List.map (fun f -> Ctcheck.Render.to_json (Finding.to_row f)) r.findings));
      ("drift", Obs.Json.List (List.map (fun d -> Obs.Json.String d) drift));
      ("ok", Obs.Json.Bool ok);
    ]
