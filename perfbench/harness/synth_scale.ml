(* synth-scale: Algorithm 1 alone. Each op is one [Flows.synthesize Ours]
   call at -j 1 with no ATPG, on a [Benchmarks.random] DFG. A pass
   synthesizes the whole corpus, 13 designs of 30 to 60 ops (about 22 s
   on a 2-core host), so the super-linear end of the merge loop weighs
   the same in every run. Seven of the designs have 40 ops: the median
   op is the middle of that cluster, not one design whose own noise
   moves it.

   No input depends on the workload seed: the corpus (structure seeds
   1..k at each size) and its order are fixed. Algorithm 1's cost
   varies about threefold between random structures of one size, and
   with structures drawn from the workload seed five seeds spread 32%
   on ops_per_s; a seeded order alone moved lat_p50_ms by 12%. *)

open Common
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module State = Hlts_synth.State
module Benchmarks = Hlts_dfg.Benchmarks

(* (ops, structures of that size) *)
let sizes = [ (30, 3); (40, 7); (50, 2); (60, 1) ]
let bits = 8

type design = { key : string; dfg : Hlts_dfg.Dfg.t }

let corpus sizes =
  List.concat_map
    (fun (ops, k) ->
      List.init k (fun i ->
          let seed = i + 1 in
          {
            key = Printf.sprintf "rnd-s%d-n%d" seed ops;
            dfg = Benchmarks.random ~seed ~ops;
          }))
    sizes

(* What the checks and metrics need of one synthesis; the outcome itself
   is dropped right after, so the live heap does not grow from one op
   to the next. *)
type op = {
  key : string;
  ix : int;
  cost : cost;
  area : float;
  steps : float;
  digest : string;
  verified : (unit, string) result;
}

let summarize ~ix ~cost (design : design) (o : Flows.outcome) =
  let s = o.Flows.state in
  let stats = Hlts_etpn.Etpn.stats o.Flows.etpn in
  let area = Hlts_floorplan.Floorplan.area o.Flows.etpn ~bits in
  let len = Hlts_sched.Schedule.length s.State.schedule in
  {
    key = design.key;
    ix;
    cost;
    area;
    steps = float_of_int len;
    digest =
      md5
        (Printf.sprintf "%d|%d|%d|%d|%d|%h|%d" len (State.execution_time s)
           stats.Hlts_etpn.Etpn.n_registers stats.Hlts_etpn.Etpn.n_fus
           stats.Hlts_etpn.Etpn.n_mux_slices area
           (List.length o.Flows.records));
    (* outside the timed region: the data path co-simulates against
       [Dfg.eval] *)
    verified = Hlts_verify.Verify.datapath o.Flows.etpn ~bits;
  }

let pass ?sink ~first_ix ds =
  List.mapi
    (fun i design ->
      let outcome, cost =
        measure ?sink (fun () ->
            Obs.span ~cat:"bench" "bench.design" (fun _ ->
                Flows.synthesize ~jobs:1 Flows.Ours design.dfg))
      in
      summarize ~ix:(first_ix + i) ~cost design outcome)
    ds

let check_ops c ~refs ops =
  List.iter
    (fun o ->
      (match o.verified with
      | Ok () -> ()
      | Error e -> check c ~op:o.ix false "%s: datapath differs from Dfg.eval: %s" o.key e);
      match lookup refs ~section:"designs" o.key with
      | Some d -> check c ~op:o.ix (d = o.digest) "%s: synthesis differs from reference" o.key
      | None -> check c ~op:o.ix false "%s: no reference" o.key)
    ops

let run ~hlts ~seconds ~trace ~refs ~record_to ~chrome ~tiny =
  let sizes = if tiny then [ (12, 1); (16, 1) ] else sizes in
  let setup_s = startup_s ~hlts +. setup_median ~reps:21 (fun () -> corpus sizes) in
  let corpus = corpus sizes in
  let c = checks () in
  let metrics =
    run_in_process ~name:"synth-scale" ~seconds ~trace ~setup_s ~chrome c
      ~pass:(fun sink first_ix -> pass ?sink ~first_ix corpus)
      ~cost:(fun o -> o.cost)
      ~check:(fun ops ->
        check_ops c ~refs ops;
        Option.iter
          (fun p ->
            record_refs p ~section:"designs"
              (List.map (fun o -> (o.key, o.digest)) ops))
          record_to)
      ~quality:(fun ops ->
        (mean (List.map (fun o -> o.area) ops), mean (List.map (fun o -> o.steps) ops)))
      ~layers:(fun _ li -> li)
  in
  (c, metrics)
