type entry = {
  id : string;
  label : string;
  build : Linarr_tables.config -> Linarr_tables.context Lazy.t -> Report.t;
}

let tuned id label f = { id; label; build = (fun _ ctx -> f (Lazy.force ctx)) }

let ext id label f =
  { id; label; build = (fun c _ -> f ~seed:c.Linarr_tables.seed ~scale:c.Linarr_tables.scale) }

let all =
  [
    tuned "tuning" "tuning table" Linarr_tables.tuning_table;
    tuned "4.1" "table 4.1" Linarr_tables.table_4_1;
    tuned "agreement" "agreement with the paper" (fun ctx ->
        Paper_data.agreement_table ctx ~measured:(Linarr_tables.table_4_1 ctx));
    tuned "4.2a" "table 4.2(a)" Linarr_tables.table_4_2a;
    tuned "4.2b" "table 4.2(b)" Linarr_tables.table_4_2b;
    tuned "4.2c" "table 4.2(c)" Linarr_tables.table_4_2c;
    tuned "4.2d" "table 4.2(d)" Linarr_tables.table_4_2d;
    ext "E1" "table E1 (TSP)" Ext_tables.table_tsp;
    ext "E2" "table E2 (partition)" Ext_tables.table_partition;
    ext "E3" "table E3 (placement)" Ext_tables.table_placement;
    ext "E5" "table E5 (global wiring)" Ext_tables.table_wiring;
    ext "E6" "table E6 (floorplanning)" Ext_tables.table_floorplan;
    ext "S1" "table S1 (scaling)" Ext_tables.table_scaling;
    ext "E4" "table E4 (convergence to optimum)" Ext_tables.table_convergence;
    ext "A8" "table A8 (run-to-run variance)" Ext_tables.table_variance;
    tuned "A1" "table A1 (schedule sensitivity)" Ablation_tables.table_schedule_sensitivity;
    tuned "A2" "table A2 (defer threshold)" Ablation_tables.table_defer_threshold;
    tuned "A3" "table A3 (rejectionless)" Ablation_tables.table_rejectionless;
    tuned "A4" "table A4 (schedule shapes)" Ablation_tables.table_schedule_shapes;
    tuned "A5" "table A5 (temperature control)" Ablation_tables.table_temperature_control;
    tuned "A6" "table A6 (neighborhood)" Ablation_tables.table_neighborhood;
    tuned "A7" "table A7 (objective surrogate)" Ablation_tables.table_objective_surrogate;
    tuned "A9" "table A9 (tuning-grid resolution)" Ablation_tables.table_tuning_grid;
    ext "E7" "table E7 (quadratic assignment)" Ext_tables.table_qap;
  ]
