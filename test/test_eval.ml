(* Tests for Hlts_eval: the pipeline row, the paper parameter map, and
   the renderers. ATPG budgets are reduced so the suite stays fast. *)

module Eval = Hlts_eval.Eval
module Render = Hlts_eval.Render
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module B = Hlts_dfg.Benchmarks

let cheap_atpg =
  { Hlts_atpg.Atpg.default_config with
    Hlts_atpg.Atpg.random_lanes = 8; random_cycles = 8; max_frames = 3;
    max_backtracks = 5 }

let test_params_for_bits () =
  let p4 = Eval.params_for_bits 4 in
  let p8 = Eval.params_for_bits 8 in
  let p16 = Eval.params_for_bits 16 in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "4 bit = (2,1)" (2.0, 1.0)
    (p4.Synth.alpha, p4.Synth.beta);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "8 bit = (10,1)" (10.0, 1.0)
    (p8.Synth.alpha, p8.Synth.beta);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "16 bit = (1,10)" (1.0, 10.0)
    (p16.Synth.alpha, p16.Synth.beta);
  Alcotest.(check int) "bits recorded" 16 p16.Synth.bits;
  Alcotest.(check int) "k stays 3" 3 p8.Synth.k

let test_evaluate_row () =
  let row = Eval.evaluate ~atpg:cheap_atpg Flows.Ours B.toy ~bits:4 in
  Alcotest.(check bool) "coverage in range" true
    (row.Eval.fault_coverage_pct >= 0.0 && row.Eval.fault_coverage_pct <= 100.0);
  Alcotest.(check bool) "gates" true (row.Eval.gate_count > 0);
  Alcotest.(check bool) "area" true (row.Eval.area_mm2 > 0.0);
  Alcotest.(check bool) "allocations listed" true
    (row.Eval.module_allocation <> [] && row.Eval.register_allocation <> []);
  Alcotest.(check int) "bits" 4 row.Eval.bits

let test_evaluate_outcome_matches_evaluate () =
  let o = Eval.outcome Flows.Approach1 B.toy ~bits:4 in
  let r1 = Eval.evaluate_outcome ~atpg:cheap_atpg o ~bits:4 in
  let params = Eval.params_for_bits 4 in
  let r2 = Eval.evaluate ~params ~atpg:cheap_atpg Flows.Approach1 B.toy ~bits:4 in
  Alcotest.(check (float 1e-9)) "same coverage" r1.Eval.fault_coverage_pct
    r2.Eval.fault_coverage_pct;
  Alcotest.(check int) "same cycles" r1.Eval.test_cycles r2.Eval.test_cycles

let test_outcome_deterministic () =
  let o1 = Eval.outcome Flows.Ours B.ex ~bits:8 in
  let o2 = Eval.outcome Flows.Ours B.ex ~bits:8 in
  Alcotest.(check bool) "same schedule" true
    (Hlts_sched.Schedule.bindings o1.Flows.state.Hlts_synth.State.schedule
    = Hlts_sched.Schedule.bindings o2.Flows.state.Hlts_synth.State.schedule)

let render_to_string f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_render_table () =
  let rows =
    [
      Eval.evaluate ~atpg:cheap_atpg Flows.Camad B.toy ~bits:4;
      Eval.evaluate ~atpg:cheap_atpg Flows.Ours B.toy ~bits:4;
    ]
  in
  let s = render_to_string (fun ppf -> Render.table ppf ~title:"T" rows) in
  Alcotest.(check bool) "has title" true (contains s "T");
  Alcotest.(check bool) "has CAMAD" true (contains s "CAMAD");
  Alcotest.(check bool) "has Ours" true (contains s "Ours");
  Alcotest.(check bool) "has coverage column" true (contains s "fault cov");
  let s_area =
    render_to_string (fun ppf -> Render.table ppf ~title:"T" ~with_area:true rows)
  in
  Alcotest.(check bool) "area column" true (contains s_area "mm2")

let test_render_schedule_figure () =
  let o = Eval.outcome Flows.Ours B.ex ~bits:8 in
  let s = render_to_string (fun ppf -> Render.schedule_figure ppf B.ex o) in
  Alcotest.(check bool) "mentions steps" true (contains s "step  1");
  Alcotest.(check bool) "mentions sharing" true (contains s "unit sharing");
  (* every op appears *)
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Printf.sprintf "N%d shown" op.Hlts_dfg.Dfg.id)
        true
        (contains s (Printf.sprintf "N%d:" op.Hlts_dfg.Dfg.id)))
    B.ex.Hlts_dfg.Dfg.ops

let test_render_figure1 () =
  let s = render_to_string Render.figure1 in
  Alcotest.(check bool) "shows both orders" true
    (contains s "N1 before N2" && contains s "N2 before N1");
  Alcotest.(check bool) "commits a merger" true (contains s "SR2 commits")

let test_experiments_structure () =
  Alcotest.(check int) "4 approaches" 4
    (List.length Hlts_eval.Experiments.approaches);
  Alcotest.(check (list int)) "3 widths" [ 4; 8; 16 ]
    Hlts_eval.Experiments.widths

(* The cap is only probed through the pure check: no pool, process or
   domain is started for an over-cap count. *)
let test_check_jobs () =
  let ok j = Result.is_ok (Eval.check_jobs j) in
  Alcotest.(check int) "documented cap" 64 Eval.max_jobs;
  List.iter
    (fun j -> Alcotest.(check bool) (Printf.sprintf "%d accepted" j) true (ok j))
    [ 1; 2; Eval.max_jobs ];
  List.iter
    (fun j -> Alcotest.(check bool) (Printf.sprintf "%d refused" j) false (ok j))
    [ min_int; -1; 0; Eval.max_jobs + 1; max_int ];
  Alcotest.(check (result unit string))
    "one-line error"
    (Error "jobs 65 out of range 1..64")
    (Eval.check_jobs 65)

let () =
  Alcotest.run "hlts_eval"
    [
      ( "pipeline",
        [
          Alcotest.test_case "params map" `Quick test_params_for_bits;
          Alcotest.test_case "row" `Quick test_evaluate_row;
          Alcotest.test_case "outcome = evaluate" `Quick
            test_evaluate_outcome_matches_evaluate;
          Alcotest.test_case "deterministic" `Quick test_outcome_deterministic;
          Alcotest.test_case "experiments" `Quick test_experiments_structure;
          Alcotest.test_case "jobs range" `Quick test_check_jobs;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_render_table;
          Alcotest.test_case "schedule figure" `Quick test_render_schedule_figure;
          Alcotest.test_case "figure 1" `Quick test_render_figure1;
        ] );
    ]
