(* table-sweep: the paper's whole evaluation as a user pays for it.
   48 cells — Tables 1-3 (ex/dct/diffeq x 4 flows x 4/8/16 bit) and
   X1 (ewf/paulin/tseng x 4 flows @ 8 bit) — each one [Engine.Atpg]
   request at the paper's ATPG budget and pattern seed, sent in table
   order in a closed loop to one in-process engine at -j 1. A pass is
   the whole table on a fresh engine, so no pass reuses another's
   cache.

   No input depends on the workload seed. Drawn from it, the ATPG
   pattern seed moved PODEM's work enough that five seeds spread 17% on
   lat_tail_ms and 15% on peak_rss_mb; a seeded row order alone moved
   peak_rss_mb by 12% and lat_p50_ms by about 10% beyond host noise,
   through the garbage one cell leaves the next. *)

open Common
module Engine = Hlts_eval.Engine
module Eval = Hlts_eval.Eval
module Experiments = Hlts_eval.Experiments
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module Atpg = Hlts_atpg.Atpg

type cell = { key : string; table : string; spec : Engine.spec }

(* The tables in BENCH_serve.json's sweep order (cells approach-major,
   widths inner), which the BENCH_serve.json cross-check relies on. *)
let tables =
  [
    ("table1-ex", "ex", Experiments.widths);
    ("table2-dct", "dct", Experiments.widths);
    ("table3-diffeq", "diffeq", Experiments.widths);
    ("extra-ewf", "ewf", [ 8 ]);
    ("extra-paulin", "paulin", [ 8 ]);
    ("extra-tseng", "tseng", [ 8 ]);
  ]

let cells () =
  let atpg = Atpg.default_config in
  let params = { Synth.default_params with Synth.bits = 8 } in
  List.concat_map
    (fun (table, bench, widths) ->
      List.concat_map
        (fun approach ->
          List.map
            (fun bits ->
              match Engine.spec ~params ~atpg ~bench ~approach ~bits () with
              | Ok spec ->
                {
                  key =
                    Printf.sprintf "%s/%s/%d" bench
                      (Flows.approach_name approach) bits;
                  table;
                  spec;
                }
              | Error e -> failwith e)
            widths)
        Experiments.approaches)
    tables

let row_of (r : Engine.result) =
  match r.Engine.response with
  | Engine.Row row -> Some row
  | _ -> None

(* What the checks and metrics need of one cell's result (its journal
   is not kept, so the live heap does not grow across passes). *)
type op = {
  cell : cell;
  ix : int;
  cost : cost;
  digest : string;  (** response digest *)
  row : Eval.row option;
  cached : bool;
  probe_s : float;
  compute_s : float;
}

(* One pass: the whole table, cell by cell, on a fresh engine. *)
let pass ?sink ~first_ix order =
  let engine = Engine.create ~jobs:1 () in
  List.mapi
    (fun i cell ->
      let r, cost =
        measure ?sink (fun () ->
            Obs.span ~cat:"bench" "bench.cell" (fun _ ->
                Engine.run engine (Engine.Atpg cell.spec)))
      in
      {
        cell; ix = first_ix + i; cost;
        digest = Engine.response_digest r.Engine.response;
        row = row_of r; cached = r.Engine.cached;
        probe_s = r.Engine.probe_s; compute_s = r.Engine.compute_s;
      })
    order

(* BENCH_serve.json's sweep digests, by table name; empty when the
   file is absent. *)
let bench_serve_digests () =
  match Json.of_string (In_channel.with_open_bin "BENCH_serve.json" In_channel.input_all) with
  | Ok doc -> (
    match Json.member "sweeps" doc with
    | Some (Json.List sweeps) ->
      List.filter_map
        (fun s ->
          match (Json.member "name" s, Json.member "response_digest" s) with
          | Some (Json.Str n), Some (Json.Str d) -> Some (n, d)
          | _ -> None)
        sweeps
    | _ -> [])
  | Error _ | (exception Sys_error _) -> []

(* Every cell must return its reference response, passes of one run
   must agree, and each table's rows must reproduce the sweep digest
   committed in BENCH_serve.json. *)
let check_ops c ~refs ops =
  List.iter
    (fun o ->
      match lookup refs ~section:"cells" o.cell.key with
      | Some d -> check c ~op:o.ix (d = o.digest) "%s: response %s, reference %s" o.cell.key o.digest d
      | None -> check c ~op:o.ix false "%s: no reference" o.cell.key)
    ops;
  let first = Hashtbl.create 64 in
  List.iter
    (fun o ->
      match Hashtbl.find_opt first o.cell.key with
      | None -> Hashtbl.replace first o.cell.key o.digest
      | Some d0 -> check c ~op:o.ix (d0 = o.digest) "%s: passes disagree" o.cell.key)
    ops;
  let committed = bench_serve_digests () in
  List.iter
    (fun (table, _, _) ->
      let first_pass =
        List.filter_map
          (fun cl -> List.find_opt (fun o -> o.cell.key = cl.key) ops)
          (List.filter (fun cl -> cl.table = table) (cells ()))
      in
      let rows = List.filter_map (fun o -> o.row) first_pass in
      let d = Engine.response_digest (Engine.Rows rows) in
      let ok = List.assoc_opt table committed = Some d in
      List.iter
        (fun o -> check c ~op:o.ix ok "%s: sweep digest %s differs from BENCH_serve.json" table d)
        first_pass)
    tables

let record path ops =
  record_refs path ~section:"cells"
    (List.map
       (fun o -> (o.cell.key, o.digest))
       ops)

let rows ops = List.filter_map (fun o -> o.row) ops

let quality ops =
  let rs = rows ops in
  ( mean (List.map (fun r -> r.Eval.area_mm2) rs),
    mean (List.map (fun r -> float_of_int r.Eval.schedule_length) rs) )

let run ~hlts ~seconds ~trace ~refs ~record_to ~chrome ~tiny =
  let all = cells () in
  let all =
    if tiny then List.filter (fun cl -> cl.table = "extra-tseng") all else all
  in
  let setup_s =
    startup_s ~hlts
    +. setup_median ~reps:200 (fun () -> (cells (), Engine.create ~jobs:1 ()))
  in
  let c = checks () in
  let layers ops li =
    let rs = rows ops in
    let hits = List.length (List.filter (fun o -> o.cached) ops) in
    let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 ops in
    {
      li with
      probe_s = sum (fun o -> o.probe_s);
      engine_compute_s = sum (fun o -> o.compute_s);
      hits;
      misses = List.length ops - hits;
      mem_hits = float_of_int (counter li.tr "cache.mem_hits");
      disk_hits = float_of_int (counter li.tr "cache.disk_hits");
      gates = List.fold_left (fun acc r -> acc +. float_of_int r.Eval.gate_count) 0.0 rs;
      coverage = List.map (fun r -> r.Eval.fault_coverage_pct) rs;
      test_cycles = List.map (fun r -> float_of_int r.Eval.test_cycles) rs;
    }
  in
  let metrics =
    run_in_process ~name:"table-sweep" ~seconds ~trace ~setup_s ~chrome c
      ~pass:(fun sink first_ix -> pass ?sink ~first_ix all)
      ~cost:(fun o -> o.cost)
      ~check:(fun ops ->
        check_ops c ~refs ops;
        Option.iter (fun p -> record p ops) record_to)
      ~quality ~layers
  in
  (c, metrics)
