(* The rendering half of the experiment layer: turns the record lists
   the Experiments/Ablation drivers compute into the text tables the
   bench harness prints. Pure string producers — no printing and no
   computation beyond presentation aggregation (averages of series the
   compute half already produced). *)

module Dfg = Rb_dfg.Dfg
module Table = Rb_util.Table
module Stats = Rb_util.Stats
module E = Experiments
module A = Ablation

let fmt_ratio r = Printf.sprintf "%.1fx" r

let fmt_lambda l = if l = infinity then "inf" else Printf.sprintf "%.0f" l

(* One benchmark's adders or multipliers. *)
let series name kind = Printf.sprintf "%s/%s" name (Dfg.kind_label kind)

let fig4 ~rows ~concentrations =
  let top =
    Table.create ~title:"Fig. 4 (top): obfuscation-aware binding"
      ~columns:[ "vs area"; "vs power"; "log bar (vs area)" ]
  in
  let bottom =
    Table.create
      ~title:"Fig. 4 (bottom): binding-obfuscation co-design (optimal / P-time heuristic)"
      ~columns:
        [ "opt vs area"; "opt vs power"; "heur vs area"; "heur vs power";
          "log bar (heur vs area)" ]
  in
  List.iter
    (fun { E.row_benchmark; row_kind; row_ratios = r } ->
      let label = series row_benchmark row_kind in
      Table.add_text_row top ~label
        ~cells:
          [ fmt_ratio r.E.obf_vs_area; fmt_ratio r.E.obf_vs_power; Table.log_bar r.E.obf_vs_area ];
      Table.add_text_row bottom ~label
        ~cells:
          [
            fmt_ratio r.E.cd_opt_vs_area;
            fmt_ratio r.E.cd_opt_vs_power;
            fmt_ratio r.E.cd_heur_vs_area;
            fmt_ratio r.E.cd_heur_vs_power;
            Table.log_bar r.E.cd_heur_vs_area;
          ])
    rows;
  (* The rows' means averaged, last row first. *)
  let avg pick = Stats.mean (List.rev_map (fun row -> pick row.E.row_ratios) rows) in
  let obf_area = avg (fun r -> r.E.obf_vs_area) and cd_area = avg (fun r -> r.E.cd_heur_vs_area) in
  Table.add_text_row top ~label:"Avg."
    ~cells:[ fmt_ratio obf_area; fmt_ratio (avg (fun r -> r.E.obf_vs_power)); Table.log_bar obf_area ];
  Table.add_text_row bottom ~label:"Avg."
    ~cells:
      [ "-"; "-"; fmt_ratio cd_area; fmt_ratio (avg (fun r -> r.E.cd_heur_vs_power));
        Table.log_bar cd_area ];
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Table.render top);
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf (Table.render bottom);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    "\nPaper reference: obf-aware 22x (area) / 29x (power); co-design 82x / 115x.\n\
     No multipliers in ecb_enc4 (as in the paper). Combination spaces above\n\
     the sweep's per-configuration limit are deterministically sampled.\n";
  Buffer.add_string buf
    (Printf.sprintf
       "Candidate op-concentration across the suite: mean %.2f, median %.2f\n\
        (1.0 = single-operation minterm; see EXPERIMENTS.md - this statistic is\n\
        what separates our ratio magnitudes from the paper's MediaBench runs).\n"
       (Stats.mean concentrations) (Stats.median concentrations));
  Buffer.contents buf

let fig5 ~cells =
  let table =
    Table.create ~title:"mean error-increase ratio"
      ~columns:
        [ "obf vs area"; "obf vs power"; "co-d vs area"; "co-d vs power";
          "log bar (co-d/area)" ]
  in
  List.iter
    (fun { E.cell_label; cell_ratios = r } ->
      Table.add_text_row table ~label:cell_label
        ~cells:
          [
            fmt_ratio r.E.obf_vs_area;
            fmt_ratio r.E.obf_vs_power;
            fmt_ratio r.E.cd_heur_vs_area;
            fmt_ratio r.E.cd_heur_vs_power;
            Table.log_bar r.E.cd_heur_vs_area;
          ])
    cells;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Table.render table);
  Buffer.add_string buf "\n";
  Buffer.add_string buf "\nPaper reference: consistently 10-150x across configurations.\n";
  Buffer.contents buf

let fig6 overheads =
  let regs =
    Table.create ~title:"registers (distributed register-file model)"
      ~columns:
        [ "area-aware"; "obf-aware"; "co-design"; "increase (obf)"; "increase (co-d)" ]
  in
  let sw =
    Table.create ~title:"switching rate (input-port toggle fraction)"
      ~columns:
        [ "power-aware"; "obf-aware"; "co-design"; "increase (obf)"; "increase (co-d)" ]
  in
  let dr_obf = ref [] and dr_cd = ref [] and ds_obf = ref [] and ds_cd = ref [] in
  List.iter
    (fun (ov : E.overhead_result) ->
      let base_r = float_of_int ov.E.area_registers in
      dr_obf := (ov.E.obf_registers -. base_r) :: !dr_obf;
      dr_cd := (ov.E.cd_registers -. base_r) :: !dr_cd;
      ds_obf := (ov.E.obf_switching -. ov.E.power_switching) :: !ds_obf;
      ds_cd := (ov.E.cd_switching -. ov.E.power_switching) :: !ds_cd;
      Table.add_text_row regs ~label:ov.E.ov_benchmark
        ~cells:
          [
            string_of_int ov.E.area_registers;
            Printf.sprintf "%.1f" ov.E.obf_registers;
            Printf.sprintf "%.1f" ov.E.cd_registers;
            Printf.sprintf "%+.1f" (ov.E.obf_registers -. base_r);
            Printf.sprintf "%+.1f" (ov.E.cd_registers -. base_r);
          ];
      Table.add_text_row sw ~label:ov.E.ov_benchmark
        ~cells:
          [
            Printf.sprintf "%.3f" ov.E.power_switching;
            Printf.sprintf "%.3f" ov.E.obf_switching;
            Printf.sprintf "%.3f" ov.E.cd_switching;
            Printf.sprintf "%+.3f" (ov.E.obf_switching -. ov.E.power_switching);
            Printf.sprintf "%+.3f" (ov.E.cd_switching -. ov.E.power_switching);
          ])
    overheads;
  Table.add_text_row regs ~label:"Avg."
    ~cells:
      [ "-"; "-"; "-"; Printf.sprintf "%+.2f" (Stats.mean !dr_obf);
        Printf.sprintf "%+.2f" (Stats.mean !dr_cd) ];
  Table.add_text_row sw ~label:"Avg."
    ~cells:
      [ "-"; "-"; "-"; Printf.sprintf "%+.3f" (Stats.mean !ds_obf);
        Printf.sprintf "%+.3f" (Stats.mean !ds_cd) ];
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Table.render regs);
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf (Table.render sw);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    "\nPaper reference: ~+4.7 registers vs area-aware, ~+0.03 switching rate vs\n\
     power-aware. Our register deltas are smaller in absolute terms (smaller\n\
     8-bit kernels; see EXPERIMENTS.md); the reproduced claim is the shape -\n\
     small positive overhead.\n";
  Buffer.contents buf

let headline (h : E.headline_summary) =
  Printf.sprintf
    "obfuscation-aware binding error increase (mean):   %.1fx   (paper: 26x)\n\
     binding-obfuscation co-design error increase:      %.1fx   (paper: 99x)\n\
     heuristic vs optimal degradation over %d full-search configurations:\n\
    \  mean %.3f%%, worst %.3f%%   (paper: < 0.5%%)\n"
    h.E.hl_obf_mean h.E.hl_cd_mean h.E.hl_gap_configs h.E.hl_gap_mean
    h.E.hl_gap_worst

let quality results =
  let table =
    Table.create ~title:"corruption measured over the full typical trace"
      ~columns:
        [ "events (base)"; "events (secure)"; "bad samples (base)"; "bad samples (secure)";
          "burst (base)"; "burst (secure)" ]
  in
  let burst_wins = ref 0 and rows = ref 0 in
  List.iter
    (fun (q : E.quality_result) ->
      incr rows;
      if q.E.secure_max_burst >= q.E.base_max_burst then incr burst_wins;
      Table.add_text_row table
        ~label:(series q.E.q_benchmark q.E.q_kind)
        ~cells:
          [
            string_of_int q.E.base_events;
            string_of_int q.E.secure_events;
            Printf.sprintf "%d/%d" q.E.base_corrupted_samples q.E.samples;
            Printf.sprintf "%d/%d" q.E.secure_corrupted_samples q.E.samples;
            string_of_int q.E.base_max_burst;
            string_of_int q.E.secure_max_burst;
          ])
    results;
  Table.render table ^ "\n"
  ^ Printf.sprintf
      "\nSecurity-aware binding injects more error events AND longer consecutive-\n\
       cycle bursts (>= baseline burst on %d/%d series) - the Sec. III argument\n\
       that consecutive injections are likelier to derail the application.\n"
      !burst_wins !rows

let post_binding results =
  let table =
    Table.create ~title:"error level set by co-design (2 locked FUs x 2 minterms)"
      ~columns:
        [ "target errors"; "co-design |M|"; "co-design lambda"; "post-binding |M|";
          "post-binding lambda" ]
  in
  let collapses = ref 0 and rows = ref 0 in
  List.iter
    (fun (r : E.post_binding_result) ->
      incr rows;
      if r.E.post_lambda < r.E.codesign_lambda then incr collapses;
      Table.add_text_row table
        ~label:(series r.E.pb_benchmark r.E.pb_kind)
        ~cells:
          [
            string_of_int r.E.codesign_errors;
            string_of_int r.E.codesign_minterms;
            fmt_lambda r.E.codesign_lambda;
            (match r.E.post_minterms with
             | Some h -> string_of_int h
             | None -> Printf.sprintf "unreachable (%d)" r.E.post_errors);
            fmt_lambda r.E.post_lambda;
          ])
    results;
  Table.render table ^ "\n"
  ^ Printf.sprintf
      "\nEven granting post-binding locking an *optimizing* minterm chooser (the\n\
       strongest baseline; the paper's Fig. 4 protocol compares identical minterm\n\
       sets instead), it pays for the same corruption with up to 2x the locked\n\
       minterms, ending with less Eqn. 1 resilience on %d/%d series. Against the\n\
       paper's a-priori-minterms baseline the gap is the 10-150x of Fig. 4: most\n\
       of co-design's advantage is choosing minterms the architecture can\n\
       concentrate; binding freedom then multiplies whatever was chosen.\n"
      !collapses !rows

let ablation ~strategies ~generalization ~budget ~sensitivity =
  let buf = Buffer.create 4096 in
  let table =
    Table.create
      ~title:"candidate strategy vs co-design errors (2 locked FUs x 2 minterms)"
      ~columns:[ "benchmark/kind"; "errors"; "candidate trace mass" ]
  in
  List.iter
    (fun (name, kind, rows) ->
      List.iter
        (fun (row : A.strategy_row) ->
          Table.add_text_row table
            ~label:(A.strategy_name row.A.strategy)
            ~cells:
              [
                series name kind;
                string_of_int row.A.codesign_errors;
                string_of_int row.A.candidate_mass;
              ])
        rows)
    strategies;
  Buffer.add_string buf (Table.render table);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    "As Sec. V-B.1 argues: co-design maximizes errors for whatever C the\n\
     designer supplies; rarer candidates (leak-resistant) simply buy fewer\n\
     error events.\n\n";
  let table =
    Table.create ~title:"workload generalization (co-design on first half of the trace)"
      ~columns:[ "Eqn.2 (train)"; "measured (train)"; "measured (unseen half)" ]
  in
  List.iter
    (fun (name, kind, (row : A.generalization_row)) ->
      Table.add_text_row table
        ~label:(series name kind)
        ~cells:
          [
            string_of_int row.A.train_expected;
            string_of_int row.A.train_measured;
            string_of_int row.A.test_measured;
          ])
    generalization;
  Buffer.add_string buf (Table.render table);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    "The locked minterms keep firing on unseen samples of the same workload:\n\
     the 'typical trace' assumption (Sec. IV-A) carries the design's error\n\
     rate to deployment.\n\n";
  let table =
    Table.create
      ~title:"profiling-budget sensitivity (dct multipliers, replayed on 256 samples)"
      ~columns:[ "Eqn.2 on prefix"; "measured on full trace" ]
  in
  List.iter
    (fun (row : A.budget_row) ->
      Table.add_text_row table
        ~label:(Printf.sprintf "%d samples" row.A.prefix_len)
        ~cells:[ string_of_int row.A.expected; string_of_int row.A.measured ])
    budget;
  Buffer.add_string buf (Table.render table);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    "Short profiles already find the workload's head minterms; the measured\n\
     full-trace corruption stabilizes within a few dozen samples.\n\n";
  let table =
    Table.create ~title:"sensitivity of the obf-aware error increase (dct, adders)"
      ~columns:[ "cycles"; "obf vs area" ]
  in
  List.iter
    (fun (row : A.sensitivity_row) ->
      Table.add_text_row table ~label:row.A.label
        ~cells:[ string_of_int row.A.n_cycles; fmt_ratio row.A.obf_vs_area ])
    sensitivity;
  Buffer.add_string buf (Table.render table);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    "One FU per kind leaves binding no freedom (ratio exactly 1x); any larger\n\
     allocation opens the gap, and the effect survives a change of scheduling\n\
     front end. (This probe uses the conservative ratio-of-total-errors over\n\
     head-candidate pairs; the per-combination means of Fig. 4 are larger.)\n";
  Buffer.contents buf
