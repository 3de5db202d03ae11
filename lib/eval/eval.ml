module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module State = Hlts_synth.State
module Etpn = Hlts_etpn.Etpn
module Binding = Hlts_alloc.Binding
module Testability = Hlts_testability.Testability
module Atpg = Hlts_atpg.Atpg

type row = {
  approach : Flows.approach;
  bits : int;
  schedule_length : int;
  n_registers : int;
  n_fus : int;
  n_mux : int;
  module_allocation : string list;
  register_allocation : string list;
  fault_coverage_pct : float;
  tg_effort : int;
  tg_seconds : float;
  tg_random_seconds : float;
  tg_det_seconds : float;
  test_cycles : int;
  area_mm2 : float;
  seq_depth : float;
  gate_count : int;
  detect_digest : string;
}

let max_bits = 32

let check_bits bits =
  if bits >= 1 && bits <= max_bits then Ok ()
  else Error (Printf.sprintf "bit width %d out of range 1..%d" bits max_bits)

let max_jobs = 64

let check_jobs jobs =
  if jobs >= 1 && jobs <= max_jobs then Ok ()
  else Error (Printf.sprintf "jobs %d out of range 1..%d" jobs max_jobs)

let check_env_jobs () =
  match Sys.getenv_opt "HLTS_JOBS" with
  | None -> Ok ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | None -> Error (Printf.sprintf "HLTS_JOBS=%S is not an integer" s)
    | Some n ->
      Result.map_error (fun msg -> "HLTS_JOBS: " ^ msg) (check_jobs n))

let params_for_bits bits =
  let base = Synth.default_params in
  match bits with
  | 4 -> { base with Synth.alpha = 2.0; beta = 1.0; bits }
  | 8 -> { base with Synth.alpha = 10.0; beta = 1.0; bits }
  | 16 -> { base with Synth.alpha = 1.0; beta = 10.0; bits }
  | _ -> { base with Synth.bits }

let outcome ?params ?jobs ?backend approach dfg ~bits =
  let params = Option.value ~default:(params_for_bits bits) params in
  Flows.synthesize ~params ?jobs ?backend approach dfg

let module_listing binding =
  List.map
    (fun fu ->
      Printf.sprintf "(%s): %s"
        (Op.class_name fu.Binding.fu_class)
        (String.concat ", " (List.map (Printf.sprintf "N%d") fu.Binding.fu_ops)))
    binding.Binding.fus

let register_listing dfg binding =
  List.map
    (fun reg ->
      Printf.sprintf "R: %s"
        (String.concat ", "
           (List.map (Dfg.value_name dfg) reg.Binding.reg_values)))
    binding.Binding.registers

let row_of_atpg (o : Flows.outcome) ~bits (r : Atpg.result) =
  let etpn = o.Flows.etpn in
  let dfg = o.Flows.state.State.dfg in
  let stats = Etpn.stats etpn in
  let analysis = Testability.analyze etpn in
  {
    approach = o.Flows.approach;
    bits;
    schedule_length = Hlts_sched.Schedule.length o.Flows.state.State.schedule;
    n_registers = stats.Etpn.n_registers;
    n_fus = stats.Etpn.n_fus;
    n_mux = stats.Etpn.n_mux_slices;
    module_allocation = module_listing o.Flows.state.State.binding;
    register_allocation = register_listing dfg o.Flows.state.State.binding;
    fault_coverage_pct = Atpg.coverage_pct r;
    tg_effort = r.Atpg.effort;
    tg_seconds = r.Atpg.seconds;
    tg_random_seconds = r.Atpg.random_seconds;
    tg_det_seconds = r.Atpg.det_seconds;
    test_cycles = r.Atpg.test_cycles;
    area_mm2 = Hlts_floorplan.Floorplan.area etpn ~bits;
    seq_depth = Testability.seq_depth_total analysis;
    gate_count = r.Atpg.gate_count;
    detect_digest = r.Atpg.detect_digest;
  }

let evaluate_outcome ?(atpg = Atpg.default_config) ?engine ?jobs ?backend
    (o : Flows.outcome) ~bits =
  let circuit = Hlts_netlist.Expand.circuit o.Flows.etpn ~bits in
  row_of_atpg o ~bits (Atpg.run ~config:atpg ?engine ?jobs ?backend circuit)

let evaluate ?params ?atpg ?engine ?jobs ?backend approach dfg ~bits =
  evaluate_outcome ?atpg ?engine ?jobs ?backend
    (outcome ?params ?backend approach dfg ~bits)
    ~bits
