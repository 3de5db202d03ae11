(* serve-mix: an [hlts serve] daemon on an empty cache directory,
   driven over its Unix socket by this one client process with one
   closed-loop connection. run.py pins both to one CPU. The daemon runs
   at -j 2 (the reference host's core count) with HLTS_DOMAINS=1, so its
   pool keeps two lanes but runs them inline and spawns no domain: only
   one of the two processes is busy at a time. With two connections and
   two worker domains on two cores, four runnable threads shared the
   cores, and ten runs spread up to 39% on lat_p50_ms and 27% on
   ops_per_s. The universe is the six paper designs x 4 flows x
   4/8 bit for synth, testability and atpg, plus one 4-flow sweep per
   design and width: 156 requests. The daemon's memory tier holds fewer
   entries than the universe needs, so some hits come from disk.

   The stream opens with every request of the universe once, most
   popular first (the cold fill: real synthesis and ATPG, cache
   writes), then continues with [hits_per_s] x --seconds seeded Zipf
   draws: the workload seed sets which requests the hits are. The
   popularity ranking is fixed (a shuffle under [popularity_seed]) and
   so is the length of the stream. Ranked by the workload seed, a sweep
   or an ATPG row at the top made hits two to three times dearer (five
   seeds spread 72% on lat_p50_ms); filled in a seeded order, the
   memory tier evicted different outcomes and the fill's cost moved by
   a third; and a window of fixed length left a varying number of
   requests after the fill, which moved the tail percentile. *)

open Common
module Engine = Hlts_eval.Engine
module Client = Hlts_eval.Client
module Wire = Hlts_eval.Wire
module Experiments = Hlts_eval.Experiments
module Top = Hlts_eval.Top
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module Trace_ctx = Hlts_obs.Trace_ctx

let designs = [ "ex"; "dct"; "diffeq"; "ewf"; "paulin"; "tseng" ]
let widths = [ 4; 8 ]
let jobs = 2
let mem_entries = 64
let zipf_s = 1.0
let popularity_seed = 0
let hits_per_s = 800

type key = { name : string; env : Json.t; digest : string }

let universe ~tiny =
  let params = { Synth.default_params with Synth.bits = 8 } in
  let spec bench approach bits =
    match Engine.spec ~params ~bench ~approach ~bits () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let designs = if tiny then [ "tseng" ] else designs in
  let widths = if tiny then [ 4 ] else widths in
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun bits ->
          let per_flow =
            List.concat_map
              (fun approach ->
                let s = spec bench approach bits in
                let tag op =
                  Printf.sprintf "%s/%s/%s/%d" op bench
                    (Flows.approach_name approach) bits
                in
                [
                  (tag "synth", Engine.Synth s);
                  (tag "testability", Engine.Testability s);
                  (tag "atpg", Engine.Atpg s);
                ])
              Experiments.approaches
          in
          per_flow
          @ [
              ( Printf.sprintf "sweep/%s/%d" bench bits,
                Engine.Sweep
                  (List.map (fun a -> spec bench a bits) Experiments.approaches)
              );
            ])
        widths)
    designs
  |> List.map (fun (name, req) ->
         { name; env = Engine.request_to_json req; digest = Engine.request_digest req })
  |> Array.of_list

(* The request stream, as indices into the universe. *)
let stream st ~n ~length =
  let ranks = Array.of_list (shuffle (rng popularity_seed) (List.init n Fun.id)) in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf_s));
    cdf.(r) <- !acc
  done;
  let draw () =
    let x = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < x then lo := mid + 1 else hi := mid
    done;
    ranks.(!lo)
  in
  Array.append ranks (Array.init (max 0 (length - n)) (fun _ -> draw ()))

(* ---- the daemon --------------------------------------------------------- *)

type daemon = {
  pid : int;
  dir : string;
  sock : string;
  out : Unix.file_descr;  (** read end of the daemon's stdout and stderr *)
  mutable alive : bool;
}

(* Process-wide cleanup, run on normal exit, on error and (through the
   signal handlers [Hltsbench] installs) on SIGTERM/SIGINT/SIGHUP. *)
let cleanups : (unit -> unit) list ref = ref []

let run_cleanups () =
  let l = !cleanups in
  cleanups := [];
  List.iter (fun f -> try f () with _ -> ()) l

let () = at_exit run_cleanups

let reap pid ~grace_s =
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if since t0 > grace_s then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let kill_and_remove d () =
  if d.alive then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap d.pid ~grace_s:10.0;
    d.alive <- false;
    Unix.close d.out
  end;
  rm_rf d.dir

(* Reads the daemon's output until it says it is listening. *)
let await_listening ~pid out =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let ready () =
    let s = Buffer.contents buf in
    List.exists
      (String.starts_with ~prefix:"hlts serve: listening ")
      (String.split_on_char '\n' s)
  in
  let t0 = now () in
  while not (ready ()) do
    let left = 30.0 -. since t0 in
    if left <= 0.0 then failwith "hlts serve did not start listening in 30 s";
    match Unix.select [ out ] [] [] left with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read out chunk 0 (Bytes.length chunk) with
      | 0 ->
        ignore (Unix.waitpid [] pid);
        failwith ("hlts serve exited during start-up: " ^ Buffer.contents buf)
      | k -> Buffer.add_subbytes buf chunk 0 k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Starts a daemon on an empty cache directory and returns once it
   listens: it prints so after binding its socket, so set-up time is
   read without a polling quantum. [telemetry] adds the access log and
   metrics file (which also attach the daemon's own summary sink). *)
let start ~hlts ~dir ~telemetry =
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "serve.sock" in
  let args =
    [ hlts; "serve"; "--cache-dir"; Filename.concat dir "cache"; "--socket"; sock;
      "-j"; string_of_int jobs; "--mem-entries"; string_of_int mem_entries ]
    @
    if telemetry then
      [ "--access-log"; Filename.concat dir "access.log"; "--metrics";
        Filename.concat dir "metrics.prom" ]
    else []
  in
  let out, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let env =
    Array.append [| "HLTS_DOMAINS=1" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"HLTS_DOMAINS=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let pid = Unix.create_process_env hlts (Array.of_list args) env null w w in
  Unix.close null;
  Unix.close w;
  let d = { pid; dir; sock; out; alive = true } in
  cleanups := kill_and_remove d :: !cleanups;
  await_listening ~pid out;
  d

let stop d =
  (match Client.connect (Wire.Unix_path d.sock) with
  | Ok c ->
    ignore (Client.rpc c (Json.Obj [ ("op", Json.Str "shutdown") ]));
    Client.close c
  | Error _ -> ());
  reap d.pid ~grace_s:30.0;
  d.alive <- false;
  Unix.close d.out

let stats d =
  match Client.connect (Wire.Unix_path d.sock) with
  | Error e -> failwith e
  | Ok c ->
    let r = Client.rpc c (Json.Obj [ ("op", Json.Str "stats") ]) in
    Client.close c;
    (match r with Ok j -> j | Error e -> failwith e)

(* user+sys CPU seconds and peak RSS of the daemon, from procfs (the
   kernel's clock tick is 100 Hz on Linux). *)
let proc_cpu_s pid =
  let s = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let proc_peak_rss_mb pid =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:0.0

(* ---- the client ---------------------------------------------------------- *)

type reply = {
  i : int;                 (** position in the stream *)
  k : int;                 (** universe index *)
  rtt_s : float;
  trace_id : string;
  bytes_in : int;
  outcome : (Json.t, string) result;
  spans : Trace_ctx.span list;
}

(* Drives the stream over one closed-loop connection. *)
let drive ~sock ~(u : key array) ~stream ~fill ~traced =
  match Client.connect (Wire.Unix_path sock) with
  | Error e ->
    [ { i = 0; k = stream.(0); rtt_s = 0.0; trace_id = "-"; bytes_in = 0;
        outcome = Error e; spans = [] } ]
  | Ok c ->
    let replies =
      List.init (Array.length stream) (fun i ->
          let k = stream.(i) in
          let ctx = if traced then Some (Trace_ctx.generate ()) else None in
          let t0 = now () in
          let outcome, spans =
            match ctx with
            | None -> (Client.rpc c u.(k).env, [])
            | Some x -> (
              match Client.traced_rpc c x u.(k).env with
              | Ok (r, spans) -> (Ok r, spans)
              | Error e -> (Error e, []))
          in
          let rtt_s = since t0 in
          let trace_id, bytes_in =
            match ctx with
            | Some x ->
              ( x.Trace_ctx.trace_id,
                4 + String.length (Json.to_string (Client.attach_trace x u.(k).env)) )
            | None -> ("-", 0)
          in
          (* keep whole responses only for the fill, which the checks
             re-digest; hits are checked by their digests *)
          let outcome =
            match outcome with
            | Ok r when i >= fill && not traced -> (
              match Client.ok r with
              | Ok r ->
                Ok
                  (Json.Obj
                     (List.filter_map
                        (fun f -> Option.map (fun v -> (f, v)) (Json.member f r))
                        [ "ok"; "digest"; "cached"; "response_digest" ]))
              | Error _ -> Ok r)
            | o -> o
          in
          { i; k; rtt_s; trace_id; bytes_in; outcome; spans })
    in
    Client.close c;
    replies

let str name j = match Json.member name j with Some (Json.Str s) -> s | _ -> ""

(* Every reply must be ok, name its request's digest and carry the
   reference response; fill replies must digest to what they claim, and
   later replies must be hits returning the fill's response. *)
let check_replies ?(op_base = 0) c ~refs ~(u : key array) ~fill replies =
  let first = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let key = u.(r.k) in
      let op = op_base + r.i in
      match Result.bind r.outcome Client.ok with
      | Error e -> check c ~op false "%s: %s" key.name e
      | Ok reply ->
        let resp = str "response_digest" reply in
        check c ~op (str "digest" reply = key.digest) "%s: reply names another request" key.name;
        (match lookup refs ~section:"universe" key.name with
        | Some d -> check c ~op (d = resp) "%s: response %s, reference %s" key.name resp d
        | None -> check c ~op false "%s: no reference" key.name);
        if r.i < fill then begin
          Hashtbl.replace first r.k resp;
          match Json.member "response" reply with
          | Some j -> check c ~op (md5 (Json.to_string j) = resp) "%s: response does not match its digest" key.name
          | None -> check c ~op false "%s: reply without a response" key.name
        end
        else begin
          check c ~op (Json.member "cached" reply = Some (Json.Bool true))
            "%s: repeated request was not a cache hit" key.name;
          check c ~op (Hashtbl.find_opt first r.k = Some resp)
            "%s: hit differs from its miss" key.name
        end)
    replies

(* Rows and synth summaries among the fill's responses. *)
let fill_responses ~fill replies =
  List.filter_map
    (fun r ->
      if r.i >= fill then None
      else
        match r.outcome with
        | Ok reply -> Json.member "response" reply
        | Error _ -> None)
    replies

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let rows_of resp =
  match (Json.member "row" resp, Json.member "rows" resp) with
  | Some r, _ -> [ r ]
  | None, Some (Json.List rs) -> rs
  | _ -> []

let quality responses =
  let with_area =
    List.concat_map
      (fun resp ->
        match str "kind" resp with "synth" -> [ resp ] | _ -> rows_of resp)
      responses
  in
  let field f = List.filter_map (fun j -> num (Json.member f j)) with_area in
  (mean (field "area_mm2"), mean (field "schedule_length"))

let record path ~u ~fill replies =
  record_refs path ~section:"universe"
    (List.filter_map
       (fun r ->
         match r.outcome with
         | Ok reply when r.i < fill -> Some (u.(r.k).name, str "response_digest" reply)
         | _ -> None)
       replies)

let count_hits replies =
  List.length
    (List.filter
       (fun r ->
         match r.outcome with
         | Ok j -> Json.member "cached" j = Some (Json.Bool true)
         | Error _ -> false)
       replies)

(* A counter of the daemon's result cache, from a [stats] reply. *)
let cache_stat stats_reply name =
  Option.bind (Json.member "cache" stats_reply) (fun cj -> num (Json.member name cj))
  |> Option.value ~default:0.0

(* Seconds of [t0, t1] (ns) inside at least one of [intervals]. *)
let covered_s ~t0 ~t1 intervals =
  let sorted = List.sort compare intervals in
  let acc, last =
    List.fold_left
      (fun (acc, (lo, hi)) (a, b) ->
        let a = max a t0 and b = min b t1 in
        if b <= a then (acc, (lo, hi))
        else if a <= hi then (acc, (lo, max hi b))
        else (Int64.add acc (Int64.sub hi lo), (a, b)))
      (0L, (t0, t0)) sorted
  in
  Int64.to_float (Int64.add acc (Int64.sub (snd last) (fst last))) /. 1e9

(* The daemon's interval for each traced reply: from the start of its
   outermost daemon span (lane 1, the [serve.<op>] span) for the
   request's whole daemon time as its access record gives it, which runs
   on past the span through reply encode and write. *)
let daemon_intervals ~by_trace replies =
  List.filter_map
    (fun r ->
      let outer =
        List.fold_left
          (fun best (s : Trace_ctx.span) ->
            if s.Trace_ctx.sp_lane <> 1 then best
            else
              match best with
              | Some (b : Trace_ctx.span) when b.Trace_ctx.sp_dur_ns >= s.Trace_ctx.sp_dur_ns -> best
              | _ -> Some s)
          None r.spans
      in
      match (outer, Hashtbl.find_opt by_trace r.trace_id) with
      | Some s, Some total_s ->
        let a = Int64.sub s.Trace_ctx.sp_ts_ns s.Trace_ctx.sp_dur_ns in
        Some (a, Int64.add a (Int64.of_float (total_s *. 1e9)))
      | _ -> None)
    replies

let run ~hlts ~work ~seed ~seconds ~trace ~refs ~record_to ~chrome ~tiny =
  let u = universe ~tiny in
  let n = Array.length u in
  let dir i = Filename.concat work (Printf.sprintf "serve-%d" i) in
  let c = checks () in
  (* the traced run sends its stream twice, so it sends a quarter of
     the hits, which keeps it inside the harness's time limit *)
  let hits =
    (if trace then hits_per_s / 4 else hits_per_s) * int_of_float (Float.ceil seconds)
  in
  let gen () = stream (rng seed) ~n ~length:(n + hits) in
  let gen_s = setup_median ~reps:21 gen in
  let stream = gen () in
  if not trace then begin
    (* set-up: [starts] starts on empty caches; the last one serves *)
    let starts = 21 in
    let times =
      List.init starts (fun i ->
          let t0 = now () in
          let d = start ~hlts ~dir:(dir i) ~telemetry:false in
          let s = since t0 in
          if i < starts - 1 then begin
            stop d;
            rm_rf d.dir
          end;
          (d, s))
    in
    let d, _ = List.nth times (starts - 1) in
    let setup_s = gen_s +. median (List.map snd times) in
    let cpu0 = proc_cpu_s d.pid in
    let t0 = now () in
    let replies = drive ~sock:d.sock ~u ~stream ~fill:n ~traced:false in
    let wall = since t0 in
    let cpu = proc_cpu_s d.pid -. cpu0 in
    let rss = proc_peak_rss_mb d.pid in
    let st_reply = stats d in
    stop d;
    rm_rf d.dir;
    check_replies c ~refs ~u ~fill:n replies;
    Option.iter (fun p -> record p ~u ~fill:n replies) record_to;
    let nr = List.length replies in
    c.attempted <- nr;
    let lats = sorted (List.map (fun r -> r.rtt_s) replies) in
    let area, steps = quality (fill_responses ~fill:n replies) in
    log "serve-mix: %d requests in %.2fs, %d hits (%.0f from disk) (tail = p%g of n=%d)"
      nr wall (count_hits replies) (cache_stat st_reply "disk_hits")
      (100.0 *. tail_q nr) nr;
    log "serve-mix: latency p10/p25/p50/p75/p90 %s ms"
      (String.concat "/"
         (List.map
            (fun q -> Printf.sprintf "%.3f" (quantile lats q *. 1000.0))
            [ 0.1; 0.25; 0.5; 0.75; 0.9 ]));
    ( c,
      [
        m "ops_per_s" "1/s" (float_of_int nr /. wall);
        m "lat_p50_ms" "ms" (quantile lats 0.5 *. 1000.0);
        m "lat_tail_ms" "ms" (quantile lats (tail_q nr) *. 1000.0);
        m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MB" rss;
        m "cpu_s" "s" (cpu /. float_of_int nr);
        m "area_mm2" "mm2" area;
        m "exec_steps" "steps" steps;
      ] )
  end
  else begin
    (* The same stream twice: on a plain daemon, then traced on a fresh
       one with its telemetry on. *)
    let d0 = start ~hlts ~dir:(dir 0) ~telemetry:false in
    let t0 = now () in
    let plain = drive ~sock:d0.sock ~u ~stream ~fill:n ~traced:false in
    let untraced = since t0 in
    stop d0;
    rm_rf d0.dir;
    let d = start ~hlts ~dir:(dir 1) ~telemetry:true in
    let t1 = now () in
    let replies = drive ~sock:d.sock ~u ~stream ~fill:n ~traced:true in
    let t2 = now () in
    let wall = Int64.to_float (Int64.sub t2 t1) /. 1e9 in
    let st_reply = stats d in
    let metrics =
      match
        Obs.Metrics.parse
          (In_channel.with_open_bin (Filename.concat d.dir "metrics.prom") In_channel.input_all)
      with
      | Ok s -> s
      | Error e -> failwith ("metrics.prom: " ^ e)
    in
    let access, _, _ =
      match Top.read_access_file (Filename.concat d.dir "access.log") with
      | Ok a -> a
      | Error e -> failwith e
    in
    stop d;
    rm_rf d.dir;
    check_replies c ~refs ~u ~fill:n plain;
    let offset = List.length plain in
    check_replies ~op_base:offset c ~refs ~u ~fill:n replies;
    c.attempted <- offset + List.length replies;
    (* spans: client, daemon and pool lanes as shipped *)
    let tr = Common.trace () in
    List.iter
      (fun r ->
        List.iter
          (fun (s : Trace_ctx.span) ->
            add_span tr ~lane:s.Trace_ctx.sp_lane ~name:s.Trace_ctx.sp_name ~ts:s.Trace_ctx.sp_ts_ns
              ~dur:s.Trace_ctx.sp_dur_ns ~args:s.Trace_ctx.sp_args)
          r.spans)
      replies;
    Option.iter (fun p -> write_chrome p tr) chrome;
    let sum_where p =
      List.fold_left
        (fun acc s -> if p s.Obs.Metrics.m_name then acc +. s.Obs.Metrics.m_value else acc)
        0.0 metrics
    in
    let metric name = sum_where (String.equal name) in
    let prom n = "hlts_" ^ Obs.Metrics.metric_name n in
    List.iter
      (fun n -> add_count tr n (int_of_float (metric (prom n ^ "_total"))))
      [ "synth.merge_attempts"; "synth.commits"; "testability.analyses";
        "sim.words_simulated"; "atpg.detected_det"; "atpg.aborted"; "atpg.backtracks" ];
    let fpw_n = metric (prom "sim.faults_per_word" ^ "_count") in
    if fpw_n > 0.0 then
      add_sample tr "sim.faults_per_word" (metric (prom "sim.faults_per_word" ^ "_sum") /. fpw_n);
    let requests =
      List.filter
        (fun a -> not (List.mem a.Top.ac_op [ "ping"; "stats"; "shutdown" ]))
        access
    in
    let sum f = List.fold_left (fun acc a -> acc +. f a) 0.0 requests in
    let by_trace = Hashtbl.create 4096 in
    List.iter (fun a -> Hashtbl.replace by_trace a.Top.ac_trace a.Top.ac_total_s) requests;
    let transit =
      List.fold_left
        (fun acc r ->
          match Hashtbl.find_opt by_trace r.trace_id with
          | Some total -> acc +. (r.rtt_s -. total)
          | None -> acc)
        0.0 replies
    in
    let in_daemon = covered_s ~t0:t1 ~t1:t2 (daemon_intervals ~by_trace replies) in
    let hits = count_hits replies in
    let responses = fill_responses ~fill:n replies in
    let rows = List.concat_map rows_of responses in
    let rowf f = List.filter_map (fun j -> num (Json.member f j)) rows in
    ( c,
      layer_metrics
        {
          tr;
          probe_s = sum (fun a -> a.Top.ac_cache_s);
          engine_compute_s = sum (fun a -> a.Top.ac_compute_s);
          hits;
          misses = List.length replies - hits;
          mem_hits = cache_stat st_reply "mem_hits";
          disk_hits = cache_stat st_reply "disk_hits";
          pool_tasks = sum_where (String.ends_with ~suffix:"_tasks_total");
          pool_task_s = sum_where (String.ends_with ~suffix:"_task_seconds_sum");
          gates = List.fold_left ( +. ) 0.0 (rowf "gate_count");
          coverage = rowf "fault_coverage_pct";
          test_cycles = rowf "test_cycles";
          gc_minor_words = metric "hlts_res_gc_minor_words";
          gc_major_collections = metric "hlts_res_gc_major_collections";
          serve =
            {
              queue_s = sum (fun a -> a.Top.ac_queue_s);
              cache_s = sum (fun a -> a.Top.ac_cache_s);
              compute_s = sum (fun a -> a.Top.ac_compute_s);
              reply_s = sum (fun a -> a.Top.ac_reply_s);
              bytes_in = float_of_int (List.fold_left (fun acc r -> acc + r.bytes_in) 0 replies);
              bytes_out = sum (fun a -> float_of_int a.Top.ac_bytes_out);
              transit_s = transit;
              busy_rejects =
                Option.value ~default:0.0 (num (Json.member "busy_rejects" st_reply));
            };
          wall_s = wall;
          untraced_wall_s = untraced;
          (* the stream's wall while the daemon is inside no request:
             client encode and decode, socket transfer, the daemon's
             frame decode and select loop; [client.transit_s]
             attributes nothing. *)
          unattributed_s = wall -. in_daemon;
        } )
  end
