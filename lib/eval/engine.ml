module Dfg = Hlts_dfg.Dfg
module B = Hlts_dfg.Benchmarks
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module State = Hlts_synth.State
module Etpn = Hlts_etpn.Etpn
module Testability = Hlts_testability.Testability
module Atpg = Hlts_atpg.Atpg
module Obs = Hlts_obs
module Json = Hlts_obs.Json
module Pool = Hlts_pool.Pool

(* Bump whenever a pipeline change may alter any result byte for the
   same inputs: every digest is salted with it, so old disk-cache
   entries are orphaned instead of replayed wrongly. *)
let schema = "hlts-engine/1"

type spec = {
  bench : string;
  dfg : Dfg.t;
  approach : Flows.approach;
  bits : int;
  params : Synth.params;
  atpg : Atpg.config;
  engine : Atpg.engine;
}

let ( let* ) = Result.bind

let spec ?params ?atpg ?engine ?dfg ~bench ~approach ~bits () =
  let* () = Eval.check_bits bits in
  let params = Option.value ~default:(Eval.params_for_bits bits) params in
  let* () = Eval.check_bits params.Synth.bits in
  let* dfg = match dfg with Some d -> Ok d | None -> B.find_result bench in
  Ok
    {
      bench;
      dfg;
      approach;
      bits;
      params;
      atpg = Option.value ~default:Atpg.default_config atpg;
      engine = Option.value ~default:`Ppsfp engine;
    }

type request =
  | Synth of spec
  | Testability of spec
  | Atpg of spec
  | Sweep of spec list

type synth_summary = {
  sy_schedule_length : int;
  sy_execution_time : int;
  sy_n_registers : int;
  sy_n_fus : int;
  sy_n_mux : int;
  sy_area_mm2 : float;
  sy_seq_depth : float;
  sy_iterations : int;
}

type testability_summary = {
  ts_registers : (int * Testability.measures) list;
  ts_fus : (int * Testability.measures) list;
  ts_seq_depth : float;
}

type response =
  | Synth_done of synth_summary
  | Testability_done of testability_summary
  | Row of Eval.row
  | Rows of Eval.row list

type result = {
  digest : string;
  response : response;
  journal : Obs.Journal.event list;
  cached : bool;
  probe_s : float;
  compute_s : float;
}

(* --- digests -------------------------------------------------------- *)

let strategy_name = function
  | Hlts_synth.Candidates.Balance -> "balance"
  | Hlts_synth.Candidates.Connectivity -> "connectivity"

let stop_name = function
  | Synth.Cost_improving -> "cost_improving"
  | Synth.Exhaustive -> "exhaustive"

let engine_name = function
  | `Ppsfp -> "ppsfp"
  | `Cone -> "cone"
  | `Full -> "full"

let engine_of_name = function
  | "ppsfp" -> Some `Ppsfp
  | "cone" -> Some `Cone
  | "full" -> Some `Full
  | _ -> None

(* Every float is rendered with %h (hex, bit-exact) — the digest must
   not depend on decimal rounding. *)
let params_key (p : Synth.params) =
  Printf.sprintf "k=%d;alpha=%h;beta=%h;pbits=%d;strategy=%s;stop=%s;lat=%h;maxit=%d"
    p.Synth.k p.Synth.alpha p.Synth.beta p.Synth.bits
    (strategy_name p.Synth.strategy)
    (stop_name p.Synth.stop) p.Synth.latency_factor p.Synth.max_iterations

let atpg_key (c : Atpg.config) =
  Printf.sprintf
    "seed=%d;lanes=%d;cycles=%d;batches=%d;frames=%d;backtracks=%d;collapse=%b"
    c.Atpg.seed c.Atpg.random_lanes c.Atpg.random_cycles c.Atpg.random_batches
    c.Atpg.max_frames c.Atpg.max_backtracks c.Atpg.collapse_gate_inputs

let md5 s = Digest.to_hex (Digest.string s)

let spec_digest ~op ?(with_atpg = true) s =
  md5
    (Printf.sprintf "%s;op=%s;dfg=%s;approach=%s;bits=%d;%s%s" schema op
       (Dfg.digest s.dfg)
       (Flows.approach_name s.approach)
       s.bits (params_key s.params)
       (if with_atpg then
          Printf.sprintf ";%s;engine=%s" (atpg_key s.atpg)
            (engine_name s.engine)
        else ""))

(* The (DFG, approach, params) digest the synthesized outcome is keyed
   by: synthesis never reads the evaluation width (the width it
   estimates hardware at is [params.bits]), so the key leaves it out
   and every width with equal params shares one outcome; it is also
   independent of the ATPG budget. *)
let outcome_digest s =
  md5
    (Printf.sprintf "%s;op=outcome;dfg=%s;approach=%s;%s" schema
       (Dfg.digest s.dfg)
       (Flows.approach_name s.approach)
       (params_key s.params))

let request_digest = function
  | Synth s -> spec_digest ~op:"synth" ~with_atpg:false s
  | Testability s -> spec_digest ~op:"testability" ~with_atpg:false s
  | Atpg s -> spec_digest ~op:"atpg" s
  | Sweep cells ->
    md5
      (schema ^ ";op=sweep;"
      ^ String.concat ","
          (List.map (fun s -> spec_digest ~op:"atpg" s) cells))

let journal_digest events =
  md5
    (String.concat "\n"
       (List.map (fun e -> Json.to_string (Obs.Journal.encode e)) events))

(* --- wire codecs ---------------------------------------------------- *)

let row_to_json (r : Eval.row) =
  Json.Obj
    [
      ("approach", Json.Str (Flows.approach_name r.Eval.approach));
      ("bits", Json.Int r.Eval.bits);
      ("schedule_length", Json.Int r.Eval.schedule_length);
      ("n_registers", Json.Int r.Eval.n_registers);
      ("n_fus", Json.Int r.Eval.n_fus);
      ("n_mux", Json.Int r.Eval.n_mux);
      ( "module_allocation",
        Json.List (List.map (fun s -> Json.Str s) r.Eval.module_allocation) );
      ( "register_allocation",
        Json.List (List.map (fun s -> Json.Str s) r.Eval.register_allocation)
      );
      ("fault_coverage_pct", Json.Float r.Eval.fault_coverage_pct);
      ("tg_effort", Json.Int r.Eval.tg_effort);
      ("test_cycles", Json.Int r.Eval.test_cycles);
      ("area_mm2", Json.Float r.Eval.area_mm2);
      ("seq_depth", Json.Float r.Eval.seq_depth);
      ("gate_count", Json.Int r.Eval.gate_count);
      ("detect_digest", Json.Str r.Eval.detect_digest);
    ]
(* The wall-clock fields (tg_seconds and friends) are deliberately
   absent: the canonical response is deterministic content, and the
   digest computed over it must match between a cold run and a cache
   hit. *)

let measures_json ms =
  Json.List
    (List.map
       (fun (id, m) ->
         Json.Obj
           [
             ("id", Json.Int id);
             ("cc", Json.Float m.Testability.cc);
             ("sc", Json.Float m.Testability.sc);
             ("co", Json.Float m.Testability.co);
             ("so", Json.Float m.Testability.so);
           ])
       ms)

let response_to_json = function
  | Synth_done s ->
    Json.Obj
      [
        ("kind", Json.Str "synth");
        ("schedule_length", Json.Int s.sy_schedule_length);
        ("execution_time", Json.Int s.sy_execution_time);
        ("n_registers", Json.Int s.sy_n_registers);
        ("n_fus", Json.Int s.sy_n_fus);
        ("n_mux", Json.Int s.sy_n_mux);
        ("area_mm2", Json.Float s.sy_area_mm2);
        ("seq_depth", Json.Float s.sy_seq_depth);
        ("iterations", Json.Int s.sy_iterations);
      ]
  | Testability_done t ->
    Json.Obj
      [
        ("kind", Json.Str "testability");
        ("registers", measures_json t.ts_registers);
        ("fus", measures_json t.ts_fus);
        ("seq_depth", Json.Float t.ts_seq_depth);
      ]
  | Row r -> Json.Obj [ ("kind", Json.Str "row"); ("row", row_to_json r) ]
  | Rows rs ->
    Json.Obj
      [
        ("kind", Json.Str "rows");
        ("rows", Json.List (List.map row_to_json rs));
      ]

let response_digest r = md5 (Json.to_string (response_to_json r))

let spec_to_json s =
  let p = s.params and a = s.atpg in
  Json.Obj
    [
      ("bench", Json.Str s.bench);
      ("approach", Json.Str (Flows.approach_name s.approach));
      ("bits", Json.Int s.bits);
      ( "params",
        Json.Obj
          [
            ("k", Json.Int p.Synth.k);
            ("alpha", Json.Float p.Synth.alpha);
            ("beta", Json.Float p.Synth.beta);
            ("bits", Json.Int p.Synth.bits);
            ("strategy", Json.Str (strategy_name p.Synth.strategy));
            ("stop", Json.Str (stop_name p.Synth.stop));
            ("latency_factor", Json.Float p.Synth.latency_factor);
            ("max_iterations", Json.Int p.Synth.max_iterations);
          ] );
      ( "atpg",
        Json.Obj
          [
            ("seed", Json.Int a.Atpg.seed);
            ("random_lanes", Json.Int a.Atpg.random_lanes);
            ("random_cycles", Json.Int a.Atpg.random_cycles);
            ("random_batches", Json.Int a.Atpg.random_batches);
            ("max_frames", Json.Int a.Atpg.max_frames);
            ("max_backtracks", Json.Int a.Atpg.max_backtracks);
            ("collapse_gate_inputs", Json.Bool a.Atpg.collapse_gate_inputs);
          ] );
      ("engine", Json.Str (engine_name s.engine));
    ]

(* Tolerant field readers: the parser returns [Int] for integral floats
   ("2" round-trips as [Int 2] even when emitted from [Float 2.0]). *)
let jfloat = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let jint = function Json.Int i -> Some i | _ -> None
let jstr = function Json.Str s -> Some s | _ -> None
let jbool = function Json.Bool b -> Some b | _ -> None

let field name conv j =
  match Json.member name j with
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let field_default name conv ~default j =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let spec_of_json j =
  let* bench = field "bench" jstr j in
  let* approach_name = field "approach" jstr j in
  let* approach =
    match Flows.approach_of_string approach_name with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "unknown approach %S" approach_name)
  in
  let* bits = field "bits" jint j in
  let* () = Eval.check_bits bits in
  let* dfg = B.find_result bench in
  let dp = Eval.params_for_bits bits in
  let* params =
    match Json.member "params" j with
    | None -> Ok dp
    | Some pj ->
      let* k = field_default "k" jint ~default:dp.Synth.k pj in
      let* alpha = field_default "alpha" jfloat ~default:dp.Synth.alpha pj in
      let* beta = field_default "beta" jfloat ~default:dp.Synth.beta pj in
      let* pbits = field_default "bits" jint ~default:dp.Synth.bits pj in
      let* () = Eval.check_bits pbits in
      let* strategy =
        let* s =
          field_default "strategy" jstr
            ~default:(strategy_name dp.Synth.strategy) pj
        in
        match s with
        | "balance" -> Ok Hlts_synth.Candidates.Balance
        | "connectivity" -> Ok Hlts_synth.Candidates.Connectivity
        | other -> Error (Printf.sprintf "unknown strategy %S" other)
      in
      let* stop =
        let* s =
          field_default "stop" jstr ~default:(stop_name dp.Synth.stop) pj
        in
        match s with
        | "cost_improving" -> Ok Synth.Cost_improving
        | "exhaustive" -> Ok Synth.Exhaustive
        | other -> Error (Printf.sprintf "unknown stop rule %S" other)
      in
      let* latency_factor =
        field_default "latency_factor" jfloat ~default:dp.Synth.latency_factor
          pj
      in
      let* max_iterations =
        field_default "max_iterations" jint ~default:dp.Synth.max_iterations
          pj
      in
      Ok
        {
          Synth.k;
          alpha;
          beta;
          bits = pbits;
          strategy;
          stop;
          latency_factor;
          max_iterations;
        }
  in
  let da = Atpg.default_config in
  let* atpg =
    match Json.member "atpg" j with
    | None -> Ok da
    | Some aj ->
      let* seed = field_default "seed" jint ~default:da.Atpg.seed aj in
      let* random_lanes =
        field_default "random_lanes" jint ~default:da.Atpg.random_lanes aj
      in
      let* random_cycles =
        field_default "random_cycles" jint ~default:da.Atpg.random_cycles aj
      in
      let* random_batches =
        field_default "random_batches" jint ~default:da.Atpg.random_batches aj
      in
      let* max_frames =
        field_default "max_frames" jint ~default:da.Atpg.max_frames aj
      in
      let* max_backtracks =
        field_default "max_backtracks" jint ~default:da.Atpg.max_backtracks aj
      in
      let* collapse_gate_inputs =
        field_default "collapse_gate_inputs" jbool
          ~default:da.Atpg.collapse_gate_inputs aj
      in
      Ok
        {
          Atpg.seed;
          random_lanes;
          random_cycles;
          random_batches;
          max_frames;
          max_backtracks;
          collapse_gate_inputs;
        }
  in
  let* engine =
    let* e = field_default "engine" jstr ~default:"ppsfp" j in
    match engine_of_name e with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "unknown engine %S" e)
  in
  Ok { bench; dfg; approach; bits; params; atpg; engine }

let request_to_json = function
  | Synth s -> Json.Obj [ ("op", Json.Str "synth"); ("spec", spec_to_json s) ]
  | Testability s ->
    Json.Obj [ ("op", Json.Str "testability"); ("spec", spec_to_json s) ]
  | Atpg s -> Json.Obj [ ("op", Json.Str "atpg"); ("spec", spec_to_json s) ]
  | Sweep cells ->
    Json.Obj
      [
        ("op", Json.Str "sweep");
        ("cells", Json.List (List.map spec_to_json cells));
      ]

let request_of_json j =
  let* op = field "op" jstr j in
  match op with
  | "synth" | "testability" | "atpg" ->
    let* sj =
      match Json.member "spec" j with
      | Some s -> Ok s
      | None -> Error "missing field \"spec\""
    in
    let* s = spec_of_json sj in
    Ok
      (match op with
      | "synth" -> Synth s
      | "testability" -> Testability s
      | _ -> Atpg s)
  | "sweep" -> (
    match Json.member "cells" j with
    | Some (Json.List cells) ->
      let* specs =
        List.fold_left
          (fun acc cj ->
            let* acc = acc in
            let* s = spec_of_json cj in
            Ok (s :: acc))
          (Ok []) cells
      in
      Ok (Sweep (List.rev specs))
    | Some _ -> Error "field \"cells\" must be a list"
    | None -> Error "missing field \"cells\"")
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* --- execution ------------------------------------------------------ *)

type t = {
  cache : Cache.t;
  jobs : int option;
  backend : Pool.backend option;
}

let create ?cache ?jobs ?backend () =
  {
    cache = (match cache with Some c -> c | None -> Cache.create ());
    jobs;
    backend;
  }

let cache t = t.cache

(* Captures the decision-journal events emitted while [f] runs —
   including those replayed from pool-worker tallies — without
   disturbing any ambient sink. *)
let capture_journal f =
  let events = ref [] in
  let sink =
    {
      Obs.emit =
        (fun e ->
          match e with
          | Obs.Decision { d; _ } -> events := d :: !events
          | _ -> ());
      flush = (fun () -> ());
    }
  in
  let r = Obs.with_sink sink f in
  (r, List.rev !events)

(* The synthesized outcome plus its decision journal, computed at most
   once per (DFG, approach, params) and held in the memory tier only —
   outcomes embed memoized derived views and must not be marshalled. *)
let outcome t ?jobs s =
  let key = outcome_digest s in
  match Cache.find t.cache ~kind:"outcome" key with
  | Some (o, journal) -> (o, journal, true)
  | None ->
    let o, journal =
      capture_journal (fun () ->
          Flows.synthesize ~params:s.params ?jobs ?backend:t.backend
            s.approach s.dfg)
    in
    Cache.store t.cache ~mem_only:true ~kind:"outcome" key (o, journal);
    (o, journal, false)

(* Raw ATPG tier: keyed by the expanded circuit's content, so identical
   gate-level designs reached through different synthesis wrappers
   share fault-simulation work. Netlists are immutable plain data; the
   [No_sharing] marshalling is their canonical byte form. *)
let netlist_digest circuit =
  md5 (Marshal.to_string circuit [ Marshal.No_sharing ])

let atpg_result t ?jobs s circuit =
  let key =
    md5
      (Printf.sprintf "%s;op=atpgraw;netlist=%s;%s;engine=%s" schema
         (netlist_digest circuit) (atpg_key s.atpg) (engine_name s.engine))
  in
  match Cache.find t.cache ~kind:"atpg" key with
  | Some r -> r
  | None ->
    let r =
      Atpg.run ~config:s.atpg ~engine:s.engine ?jobs ?backend:t.backend
        circuit
    in
    Cache.store t.cache ~kind:"atpg" key r;
    r

let synth_summary s (o : Flows.outcome) =
  let stats = Etpn.stats o.Flows.etpn in
  {
    sy_schedule_length =
      Hlts_sched.Schedule.length o.Flows.state.State.schedule;
    sy_execution_time = State.execution_time o.Flows.state;
    sy_n_registers = stats.Etpn.n_registers;
    sy_n_fus = stats.Etpn.n_fus;
    sy_n_mux = stats.Etpn.n_mux_slices;
    sy_area_mm2 = Hlts_floorplan.Floorplan.area o.Flows.etpn ~bits:s.bits;
    sy_seq_depth = Testability.seq_depth_total (State.analysis o.Flows.state);
    sy_iterations = List.length o.Flows.records;
  }

let testability_summary (o : Flows.outcome) =
  let a = Testability.analyze o.Flows.etpn in
  {
    ts_registers = Testability.register_measures a;
    ts_fus = Testability.fu_measures a;
    ts_seq_depth = Testability.seq_depth_total a;
  }

(* One complete [Atpg] cell computed in-process (the serve / single
   request path — the [atpg] tier is consulted between expansion and
   fault grading). *)
let atpg_row t ?jobs s =
  let o, journal, _ = outcome t s in
  let circuit = Hlts_netlist.Expand.circuit o.Flows.etpn ~bits:s.bits in
  let r = atpg_result t ?jobs s circuit in
  (Eval.row_of_atpg o ~bits:s.bits r, journal)

(* A sweep fans the missing cells out over the worker pool exactly as
   the old [Experiments.table_rows] did: outcomes are synthesized
   in-process (they are shared across widths), then each cell evaluates
   its (outcome, width) on a pooled worker. Cached cells skip the pool
   entirely. *)
let run_sweep t ~find cells =
  let keyed =
    List.map
      (fun s ->
        let key = spec_digest ~op:"atpg" s in
        (s, key, find ~kind:"result" key))
      cells
  in
  let missing =
    List.filter_map
      (fun (s, key, hit) ->
        match hit with
        | Some _ -> None
        | None ->
          let o, journal, _ = outcome t s in
          Some (s, key, o, journal))
      keyed
  in
  let computed =
    List.map2
      (fun (s, key, _o, journal) row ->
        let entry = (row, journal) in
        Cache.store t.cache ~kind:"result" key entry;
        (s, key, entry))
      missing
      (Par.map ?jobs:t.jobs ?backend:t.backend
         (fun (s, o) ->
           Eval.evaluate_outcome ~atpg:s.atpg ~engine:s.engine o ~bits:s.bits)
         (List.map (fun (s, _, o, _) -> (s, o)) missing))
  in
  let rows_journals =
    List.map
      (fun (_, key, hit) ->
        match hit with
        | Some entry -> entry
        | None ->
          let _, _, entry =
            List.find (fun (_, k, _) -> k = key) computed
          in
          entry)
      keyed
  in
  ( Rows (List.map fst rows_journals),
    List.concat_map snd rows_journals,
    missing = [] )

let run t req =
  Obs.count "engine.requests";
  let t0 = Obs.Clock.now_ns () in
  (* Result-tier probe wall, summed across a sweep's cells: the
     "cache" phase of the daemon's per-request breakdown. Timing a
     cache probe never changes what it returns, so this stays outside
     every determinism contract. *)
  let probe_ns = ref 0L in
  let find ~kind key =
    let p0 = Obs.Clock.now_ns () in
    let r = Cache.find t.cache ~kind key in
    probe_ns := Int64.add !probe_ns (Int64.sub (Obs.Clock.now_ns ()) p0);
    r
  in
  let digest = request_digest req in
  let finish (response, journal, cached) =
    Obs.count (if cached then "engine.cache_hits" else "engine.cache_misses");
    let total_s = Obs.Clock.seconds_since t0 in
    let probe_s = Int64.to_float !probe_ns /. 1e9 in
    {
      digest; response; journal; cached; probe_s;
      compute_s = Float.max 0.0 (total_s -. probe_s);
    }
  in
  match req with
  | Sweep cells -> finish (run_sweep t ~find cells)
  | Synth s ->
    finish
      (match find ~kind:"result" digest with
      | Some (response, journal) -> (response, journal, true)
      | None ->
        let o, journal, _ = outcome t ?jobs:t.jobs s in
        let response = Synth_done (synth_summary s o) in
        Cache.store t.cache ~kind:"result" digest (response, journal);
        (response, journal, false))
  | Testability s ->
    finish
      (match find ~kind:"result" digest with
      | Some (response, journal) -> (response, journal, true)
      | None ->
        let o, journal, _ = outcome t s in
        let response = Testability_done (testability_summary o) in
        Cache.store t.cache ~kind:"result" digest (response, journal);
        (response, journal, false))
  | Atpg s ->
    finish
      (match find ~kind:"result" digest with
      | Some (row, journal) -> (Row row, journal, true)
      | None ->
        let row, journal = atpg_row t ?jobs:t.jobs s in
        Cache.store t.cache ~kind:"result" digest (row, journal);
        (Row row, journal, false))
