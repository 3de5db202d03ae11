(* Shared pieces of the benchmark harness: statistics, the result
   line, failure accounting, reference files and the traced-run span
   collector that turns program spans into per-layer metrics. *)

module Obs = Hlts_obs
module Json = Hlts_obs.Json

let now = Obs.Clock.now_ns
let since = Obs.Clock.seconds_since

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- statistics ---------------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear-interpolation quantile of an ascending array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = quantile (sorted l) 0.5

(* The tail percentile of a sample of [n]: the highest of these with at
   least ten samples beyond it, so the tail is never one outlier. *)
let tail_q n =
  List.find_opt
    (fun q -> float_of_int n *. (1.0 -. q) >= 10.0)
    [ 0.9995; 0.999; 0.99; 0.95; 0.9; 0.75 ]
  |> Option.value ~default:0.5

(* Median wall of [reps] runs of an in-process set-up step. *)
let setup_median ~reps f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         since t0))

(* Median wall of starting the program: [hlts --version], whose start-up
   runs every library's module initialisation, so work moved there
   shows in set-up. *)
let startup_s ~hlts =
  median
    (List.init 21 (fun _ ->
         let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
         let t0 = now () in
         let pid = Unix.create_process hlts [| hlts; "--version" |] null null null in
         ignore (Unix.waitpid [] pid);
         let s = since t0 in
         Unix.close null;
         s))

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- seeded choices (the harness's own stream, never the program's) ---- *)

let rng seed = Random.State.make [| 0x68_6c_74_73; seed |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- metrics and the result line ------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-26s %18.6f %s\n" x.name x.value x.unit_)
    metrics;
  let metric x =
    ( x.name,
      Json.Obj
        [
          ("value", Json.Float (if Float.is_finite x.value then x.value else 0.0));
          ("unit", Json.Str x.unit_);
        ] )
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

(* An op fails when any of its checks fails; [failed] counts ops, so it
   never exceeds [attempted]. *)
type checks = { failed_ops : (int, unit) Hashtbl.t; mutable attempted : int }

let checks () = { failed_ops = Hashtbl.create 16; attempted = 0 }

let check c ~op ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        if not (Hashtbl.mem c.failed_ops op) then log "check failed: %s" msg;
        Hashtbl.replace c.failed_ops op ()
      end)
    fmt

let failed c = Hashtbl.length c.failed_ops

(* ---- reference files -------------------------------------------------------
   A reference is a JSON object of string -> string (a key naming one
   output, and that output's digest), grouped in sections. *)

type refs = (string * (string * string) list) list

let read_refs path : refs =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with
    | Ok (Json.Obj sections) ->
      List.map
        (fun (sec, v) ->
          ( sec,
            match v with
            | Json.Obj kv ->
              List.filter_map
                (function k, Json.Str d -> Some (k, d) | _ -> None)
                kv
            | _ -> [] ))
        sections
    | _ -> failwith (path ^ ": not a reference object")

let lookup (refs : refs) ~section key =
  Option.bind (List.assoc_opt section refs) (List.assoc_opt key)

(* Merges [entries] into [section] of the file at [path] (creating it):
   how references are recorded. *)
let record_refs path ~section entries =
  let refs = read_refs path in
  let old = Option.value ~default:[] (List.assoc_opt section refs) in
  let merged =
    List.fold_left
      (fun acc (k, d) -> if List.mem_assoc k acc then acc else acc @ [ (k, d) ])
      old entries
  in
  let refs = (section, merged) :: List.remove_assoc section refs in
  let refs = List.sort (fun (a, _) (b, _) -> compare a b) refs in
  (* one entry per line keeps reference diffs reviewable *)
  let str x = Json.to_string (Json.Str x) in
  let section (sec, kv) =
    Printf.sprintf "%s:{\n%s}" (str sec)
      (String.concat ",\n" (List.map (fun (k, d) -> str k ^ ":" ^ str d) kv))
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n%s}\n" (String.concat ",\n" (List.map section refs)))

let md5 s = Digest.to_hex (Digest.string s)

(* ---- resource readings of the process doing the work --------------------- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () = float_of_int (Obs.Res.snapshot ()).Obs.Res.max_rss_kb /. 1024.0

(* ---- traced runs ------------------------------------------------------------
   Every completed span (the program's and the harness's own), counter
   and sample seen while tracing, in memory until the run ends. Lanes
   separate processes and pool workers; nesting within a lane is
   recovered from the intervals, so spans shipped back by [hlts serve]
   are handled like in-process ones. *)

type span = {
  sp_name : string;
  sp_lane : int;
  sp_start : int64;
  sp_dur : int64;
  sp_args : (string * Obs.value) list;
}

type trace = {
  mutable spans : span list;
  counters : (string, int) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
}

let trace () =
  { spans = []; counters = Hashtbl.create 64; samples = Hashtbl.create 16 }

let add_span t ~lane ~name ~ts ~dur ~args =
  t.spans <-
    { sp_name = name; sp_lane = lane; sp_start = Int64.sub ts dur; sp_dur = dur;
      sp_args = args }
    :: t.spans

let add_count t name by =
  Hashtbl.replace t.counters name
    (by + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let add_sample t name v =
  Hashtbl.replace t.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let trace_sink t =
  {
    Obs.emit =
      (function
      | Obs.Span_end { name; ts_ns; dur_ns; args; _ } ->
        add_span t ~lane:0 ~name ~ts:ts_ns ~dur:dur_ns ~args
      | Obs.Worker_span { worker; span; _ } ->
        add_span t ~lane:(1 + worker) ~name:span.Obs.w_name ~ts:span.Obs.w_ts_ns
          ~dur:span.Obs.w_dur_ns ~args:span.Obs.w_args
      | Obs.Count { name; delta; _ } -> add_count t name delta
      | Obs.Sample { name; v; _ } -> add_sample t name v
      | _ -> ());
    flush = (fun () -> ());
  }

(* One op's cost, measured around the call alone. *)
type cost = { lat_s : float; cpu_s : float; minor_words : float; majors : int }

(* Runs one op, under [sink] when tracing; the harness's own work
   around the op (checks, digests) stays outside both the sink and the
   measurement. *)
let measure ?sink f =
  let w0, _, _ = Gc.counters () and j0 = (Gc.quick_stat ()).Gc.major_collections in
  let c0 = cpu_s () and t0 = now () in
  let r = match sink with Some s -> Obs.with_sink s f | None -> f () in
  let lat_s = since t0 and cpu = cpu_s () -. c0 in
  let w1, _, _ = Gc.counters () and j1 = (Gc.quick_stat ()).Gc.major_collections in
  (r, { lat_s; cpu_s = cpu; minor_words = w1 -. w0; majors = j1 - j0 })

let total f costs = List.fold_left (fun acc c -> acc +. f c) 0.0 costs

type agg = { calls : int; total_s : float; self_s : float; durs : float list }

(* Per-name call count, inclusive and exclusive seconds. A span's parent
   is the innermost span of its lane whose interval contains it. *)
let aggregate t =
  let by_lane = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_lane s.sp_lane
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_lane s.sp_lane)))
    t.spans;
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  let bump name f =
    let a =
      Option.value
        ~default:{ calls = 0; total_s = 0.0; self_s = 0.0; durs = [] }
        (Hashtbl.find_opt tbl name)
    in
    Hashtbl.replace tbl name (f a)
  in
  Hashtbl.iter
    (fun _ spans ->
      let arr = Array.of_list spans in
      Array.sort
        (fun a b ->
          match compare a.sp_start b.sp_start with
          | 0 -> compare b.sp_dur a.sp_dur
          | c -> c)
        arr;
      let self = Array.map (fun s -> Int64.to_float s.sp_dur /. 1e9) arr in
      let stack = ref [] in
      Array.iteri
        (fun i s ->
          let stop j = Int64.add arr.(j).sp_start arr.(j).sp_dur in
          while
            match !stack with
            | j :: _ -> Int64.compare (stop j) s.sp_start <= 0
                        || Int64.compare (stop j) (Int64.add s.sp_start s.sp_dur) < 0
            | [] -> false
          do
            stack := List.tl !stack
          done;
          (match !stack with
          | j :: _ -> self.(j) <- self.(j) -. (Int64.to_float s.sp_dur /. 1e9)
          | [] -> ());
          stack := i :: !stack)
        arr;
      Array.iteri
        (fun i s ->
          let d = Int64.to_float s.sp_dur /. 1e9 in
          bump s.sp_name (fun a ->
              { calls = a.calls + 1; total_s = a.total_s +. d;
                self_s = a.self_s +. self.(i); durs = d :: a.durs }))
        arr)
    by_lane;
  tbl

let zero_agg = { calls = 0; total_s = 0.0; self_s = 0.0; durs = [] }

let find_agg tbl name = Option.value ~default:zero_agg (Hashtbl.find_opt tbl name)

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

(* Sum of a span argument over every span of that name. *)
let arg_sum t ~span ~arg =
  List.fold_left
    (fun acc s ->
      if s.sp_name <> span then acc
      else
        match List.assoc_opt arg s.sp_args with
        | Some (Obs.Int i) -> acc +. float_of_int i
        | Some (Obs.Float f) -> acc +. f
        | _ -> acc)
    0.0 t.spans

(* Seconds of [wall] covered by program spans: every span's self time
   except the harness's own ["bench.*"] spans. The rest of the wall is
   unattributed. *)
let attributed_s tbl =
  Hashtbl.fold
    (fun name a acc ->
      if String.starts_with ~prefix:"bench." name then acc
      else acc +. a.self_s)
    tbl 0.0

(* Per-layer figures the serve workload takes from the daemon rather
   than from spans; zero where a workload has no such layer. *)
type serve_layer = {
  queue_s : float;
  cache_s : float;
  compute_s : float;
  reply_s : float;
  bytes_in : float;
  bytes_out : float;
  transit_s : float;
  busy_rejects : float;
}

let no_serve =
  { queue_s = 0.0; cache_s = 0.0; compute_s = 0.0; reply_s = 0.0;
    bytes_in = 0.0; bytes_out = 0.0; transit_s = 0.0; busy_rejects = 0.0 }

type layer_inputs = {
  tr : trace;
  probe_s : float;          (** engine result-tier probe seconds *)
  engine_compute_s : float; (** engine seconds outside the probe *)
  hits : int;               (** requests answered from the result tier *)
  misses : int;
  mem_hits : float;
  disk_hits : float;
  pool_tasks : float;
  pool_task_s : float;
  gates : float;            (** gates over the ATPG ops' netlists *)
  coverage : float list;    (** per ATPG op, percent *)
  test_cycles : float list; (** per ATPG op *)
  gc_minor_words : float;
  gc_major_collections : float;
  serve : serve_layer;
  wall_s : float;           (** traced wall the attribution is over *)
  untraced_wall_s : float;  (** the same work with no sink attached *)
  unattributed_s : float;
}

(* Layer inputs of a workload that touches none of the engine, cache,
   ATPG or serve layers. *)
let no_layers tr =
  {
    tr; probe_s = 0.0; engine_compute_s = 0.0; hits = 0; misses = 0;
    mem_hits = 0.0; disk_hits = 0.0; pool_tasks = 0.0; pool_task_s = 0.0;
    gates = 0.0; coverage = []; test_cycles = []; gc_minor_words = 0.0;
    gc_major_collections = 0.0; serve = no_serve; wall_s = 0.0;
    untraced_wall_s = 0.0; unattributed_s = 0.0;
  }

(* The per-layer metrics, in BENCHMARK.json order. *)
let layer_metrics li =
  let tbl = aggregate li.tr in
  let a = find_agg tbl in
  let c name = float_of_int (counter li.tr name) in
  let podem = sorted (a "atpg.podem").durs in
  let n_podem = Array.length podem in
  let fpw = Option.value ~default:[] (Hashtbl.find_opt li.tr.samples "sim.faults_per_word") in
  [
    m "synth.busy_s" "s" (a "synth.run").total_s;
    m "synth.iterations" "count" (float_of_int (a "synth.iteration").calls);
    m "synth.merge_attempts" "count" (c "synth.merge_attempts");
    m "synth.commit_ratio" "ratio" (ratio (c "synth.commits") (c "synth.merge_attempts"));
    m "synth.iteration_self_s" "s" (a "synth.iteration").self_s;
    m "sched.asap_calls" "count" (float_of_int (a "sched.asap").calls);
    m "sched.asap_s" "s" (a "sched.asap").total_s;
    m "etpn.build_calls" "count" (float_of_int (a "etpn.build").calls);
    m "etpn.build_s" "s" (a "etpn.build").total_s;
    m "petri.critical_path_s" "s" (a "petri.critical_path").total_s;
    m "testability.analyses" "count" (c "testability.analyses");
    m "testability.analyze_s" "s" (a "testability.analyze").total_s;
    m "candidates.score_s" "s" (a "candidates.score").total_s;
    m "netlist.expand_s" "s" (a "netlist.expand").total_s;
    m "netlist.gates" "count" li.gates;
    m "fault.total" "count" (arg_sum li.tr ~span:"atpg.run" ~arg:"faults");
    m "atpg.random_s" "s" (a "atpg.random_phase").total_s;
    m "sim.words_simulated" "count" (c "sim.words_simulated");
    m "sim.faults_per_word" "count" (mean fpw);
    m "atpg.drop_batch_s" "s" (a "atpg.drop_batch").total_s;
    m "podem.targets" "count" (float_of_int n_podem);
    m "podem.busy_s" "s" (a "atpg.podem").total_s;
    m "podem.fault_p50_ms" "ms" (quantile podem 0.5 *. 1000.0);
    m "podem.fault_tail_ms" "ms" (quantile podem (tail_q n_podem) *. 1000.0);
    m "podem.useful_ratio" "ratio" (ratio (c "atpg.detected_det") (float_of_int n_podem));
    m "podem.aborts" "count" (c "atpg.aborted");
    m "podem.backtracks" "count" (c "atpg.backtracks");
    m "atpg.coverage_pct" "%" (mean li.coverage);
    m "atpg.test_cycles" "cycles" (mean li.test_cycles);
    m "engine.probe_s" "s" li.probe_s;
    m "engine.compute_s" "s" li.engine_compute_s;
    m "cache.hit_ratio" "ratio"
      (ratio (float_of_int li.hits) (float_of_int (li.hits + li.misses)));
    m "cache.mem_hits" "count" li.mem_hits;
    m "cache.disk_hits" "count" li.disk_hits;
    m "cache.misses" "count" (float_of_int li.misses);
    m "serve.queue_s" "s" li.serve.queue_s;
    m "serve.cache_s" "s" li.serve.cache_s;
    m "serve.compute_s" "s" li.serve.compute_s;
    m "serve.reply_s" "s" li.serve.reply_s;
    m "wire.bytes_in" "bytes" li.serve.bytes_in;
    m "wire.bytes_out" "bytes" li.serve.bytes_out;
    m "client.transit_s" "s" li.serve.transit_s;
    m "serve.busy_rejects" "count" li.serve.busy_rejects;
    m "pool.tasks" "count" li.pool_tasks;
    m "pool.task_s" "s" li.pool_task_s;
    m "gc.minor_words" "words" li.gc_minor_words;
    m "gc.major_collections" "count" li.gc_major_collections;
    m "trace.wall_s" "s" li.wall_s;
    m "trace.unattributed_share" "ratio" (ratio li.unattributed_s li.wall_s);
    m "trace.overhead_share" "ratio"
      (ratio (li.wall_s -. li.untraced_wall_s) li.untraced_wall_s);
  ]

(* Pool work recorded by [Pool]'s per-task wrapper: [<pool>.tasks]
   counters and [<pool>.task_seconds] samples, summed over pools. *)
let pool_work t =
  let tasks =
    Hashtbl.fold
      (fun name v acc ->
        if String.ends_with ~suffix:".tasks" name then acc +. float_of_int v else acc)
      t.counters 0.0
  in
  let task_s =
    Hashtbl.fold
      (fun name vs acc ->
        if String.ends_with ~suffix:".task_seconds" name then List.fold_left ( +. ) acc vs
        else acc)
      t.samples 0.0
  in
  (tasks, task_s)

(* Writes the traced run's spans as one Chrome trace_event document. *)
let write_chrome path t =
  let spans =
    List.rev_map
      (fun s ->
        {
          Obs.Trace_ctx.sp_lane = s.sp_lane;
          sp_label = (if s.sp_lane = 0 then "harness" else Printf.sprintf "lane %d" s.sp_lane);
          sp_name = s.sp_name;
          sp_cat = "";
          sp_ts_ns = Int64.add s.sp_start s.sp_dur;
          sp_dur_ns = s.sp_dur;
          sp_args = s.sp_args;
        })
      t.spans
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string (Obs.Trace_ctx.chrome_trace spans));
  close_out oc

(* ---- in-process workloads ---------------------------------------------------
   A fixed amount of work (a pass) run on the harness's own process.
   [pass sink first_ix] runs it once, numbering its ops from [first_ix],
   under [sink] around each op when tracing. *)

(* Whole passes while the next one is expected to fit the window, and
   at least one. *)
let passes ~seconds pass =
  let t0 = now () in
  let rec loop acc last =
    if acc <> [] && since t0 +. last > seconds then acc
    else
      let p0 = now () in
      let ops = pass None (List.length acc) in
      loop (acc @ ops) (since p0)
  in
  loop [] 0.0

(* Runs an in-process workload and returns its metrics. [check] counts
   the failed ops of a list (and records references when asked);
   [quality] gives mean area and schedule length; [layers] adds the
   workload's own layer inputs to those every in-process workload has. *)
let run_in_process ~name ~seconds ~trace:traced ~setup_s ~chrome c ~pass ~cost
    ~check ~quality ~layers =
  let wall ops = total (fun x -> x.lat_s) (List.map cost ops) in
  if not traced then begin
    let ops = passes ~seconds pass in
    check ops;
    let costs = List.map cost ops in
    let n = List.length ops in
    let lats = sorted (List.map (fun x -> x.lat_s) costs) in
    let area, steps = quality ops in
    log "%s: %d ops in %.2fs (tail = p%g of n=%d)" name n (wall ops)
      (100.0 *. tail_q n) n;
    c.attempted <- n;
    [
      m "ops_per_s" "1/s" (float_of_int n /. wall ops);
      m "lat_p50_ms" "ms" (quantile lats 0.5 *. 1000.0);
      m "lat_tail_ms" "ms" (quantile lats (tail_q n) *. 1000.0);
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m "cpu_s" "s" (total (fun x -> x.cpu_s) costs /. float_of_int n);
      m "area_mm2" "mm2" area;
      m "exec_steps" "steps" steps;
    ]
  end
  else begin
    (* one untraced pass, then the same ops traced *)
    let plain = pass None 0 in
    let tr = trace () in
    let ops = pass (Some (trace_sink tr)) (List.length plain) in
    check (plain @ ops);
    c.attempted <- List.length plain + List.length ops;
    Option.iter (fun p -> write_chrome p tr) chrome;
    let tasks, task_s = pool_work tr in
    let plain_costs = List.map cost plain in
    layer_metrics
      (layers ops
         {
           (no_layers tr) with
           pool_tasks = tasks;
           pool_task_s = task_s;
           gc_minor_words = total (fun x -> x.minor_words) plain_costs;
           gc_major_collections =
             total (fun x -> float_of_int x.majors) plain_costs;
           wall_s = wall ops;
           untraced_wall_s = wall plain;
           unattributed_s = wall ops -. attributed_s (aggregate tr);
         })
  end

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
