(* Thin aggregator over the per-table experiment modules.  Each
   [include] re-exports the stage's types and runners so the public
   [Experiment] API is unchanged; the artefact registry at the bottom
   is what the CLI's [report] subcommand dispatches over. *)

include Exp_core
include Exp_tables
include Exp_validate
include Exp_defense
include Exp_fault

let artefacts : (string * (config -> env Lazy.t -> Report.doc)) list =
  [
    ("fig3", fun c _ -> fig3_doc (fig3 c));
    ("table1", fun _ e -> table1_doc (Lazy.force e));
    ("table2", fun _ e -> table2_doc (table2 (Lazy.force e)));
    ("table3", fun _ e -> table3_doc (table3 (Lazy.force e)));
    ("table4", fun _ e -> table4_doc (table4 (Lazy.force e)));
    ("signs", fun _ e -> signs_doc (signs (Lazy.force e)));
    ("recover", fun c _ -> recovery_doc (recovery c));
    ("toylattice", fun c _ -> toylattice_doc (toylattice c));
    ("defenses", fun c _ -> defenses_doc (defenses c));
    ("tvla", fun c _ -> tvla_doc (tvla c));
    ("averaging", fun c _ -> averaging_doc (averaging c));
    ("ablate-leakage", fun c _ -> ablation_doc ~title:"leakage model" (ablate_leakage c));
    ("ablate-noise", fun c _ -> ablation_doc ~title:"measurement noise" (ablate_noise c));
    ("ablate-poi", fun c _ -> ablation_doc ~title:"POI count" (ablate_poi c));
    ("ablate-timing", fun c _ -> ablation_doc ~title:"CPU timing model" (ablate_timing c));
    ("ablate-features", fun c _ -> features_doc (ablate_features c));
    ("fault-sweep", fun c _ -> fault_sweep_doc (fault_sweep c));
    ("zero-consistency", fun c _ -> zero_consistency_doc (fault_zero_consistency c));
  ]

let artefact_names = List.map fst artefacts

let golden_artefacts =
  List.map
    (fun name -> (name, String.map (function '-' -> '_' | c -> c) name ^ ".txt"))
    [ "fig3"; "table1"; "table2"; "table3"; "table4"; "signs"; "averaging"; "ablate-features"; "fault-sweep" ]

let artefact name config =
  Option.map (fun build -> build config (lazy (prepare config))) (List.assoc_opt name artefacts)
