(* Tests for the content-addressed cache and the engine's cache keys:
   LRU behavior, disk round-trips, corrupt-entry detection/eviction,
   and the digest stability properties the cache's soundness rests on
   (same content -> same key; any result-changing knob -> new key). *)

module Cache = Hlts_eval.Cache
module Engine = Hlts_eval.Engine
module Eval = Hlts_eval.Eval
module Dfg = Hlts_dfg.Dfg
module B = Hlts_dfg.Benchmarks
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module Atpg = Hlts_atpg.Atpg
module Json = Hlts_obs.Json

let cheap_atpg =
  { Atpg.default_config with
    Atpg.random_lanes = 8; random_cycles = 8; max_frames = 3;
    max_backtracks = 5 }

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hlts-cache-test.%d.%d" (Unix.getpid ()) !n)
    in
    let rec rm p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
    in
    rm d;
    Unix.mkdir d 0o755;
    d

(* --- in-memory tier ------------------------------------------------- *)

let test_mem_roundtrip () =
  let c = Cache.create () in
  Alcotest.(check (option string)) "miss" None (Cache.find c ~kind:"k" "d1");
  Cache.store c ~kind:"k" "d1" "hello";
  Alcotest.(check (option string)) "hit" (Some "hello")
    (Cache.find c ~kind:"k" "d1");
  Alcotest.(check (option string)) "kind namespaced" None
    (Cache.find c ~kind:"other" "d1");
  let s = Cache.stats c in
  Alcotest.(check int) "one entry" 1 s.Cache.mem_entries;
  Alcotest.(check int) "one hit" 1 s.Cache.mem_hits

let test_mem_lru_eviction () =
  let c = Cache.create ~mem_entries:2 () in
  Cache.store c ~kind:"k" "a" 1;
  Cache.store c ~kind:"k" "b" 2;
  (* touch [a] so [b] is the least recently used *)
  Alcotest.(check (option int)) "a live" (Some 1) (Cache.find c ~kind:"k" "a");
  Cache.store c ~kind:"k" "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c ~kind:"k" "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c ~kind:"k" "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c ~kind:"k" "c")

(* --- disk tier ------------------------------------------------------ *)

let test_disk_roundtrip () =
  let dir = temp_dir () in
  let c1 = Cache.create ~dir:(Some dir) () in
  Cache.store c1 ~kind:"row" "deadbeef" (42, "payload");
  (* a second cache over the same directory models a daemon restart *)
  let c2 = Cache.create ~dir:(Some dir) () in
  Alcotest.(check (option (pair int string))) "disk hit" (Some (42, "payload"))
    (Cache.find c2 ~kind:"row" "deadbeef");
  let s = Cache.stats c2 in
  Alcotest.(check int) "counted as disk hit" 1 s.Cache.disk_hits;
  (* promoted to memory: the second find is a mem hit *)
  ignore (Cache.find c2 ~kind:"row" "deadbeef");
  Alcotest.(check int) "promoted" 1 (Cache.stats c2).Cache.mem_hits

let test_mem_only_skips_disk () =
  let dir = temp_dir () in
  let c = Cache.create ~dir:(Some dir) () in
  Cache.store c ~mem_only:true ~kind:"outcome" "d" "never-marshalled";
  let c2 = Cache.create ~dir:(Some dir) () in
  Alcotest.(check (option string)) "not on disk" None
    (Cache.find c2 ~kind:"outcome" "d")

let entry_file dir =
  (* the single entry file under <dir>/<kind>/<fan>/ *)
  let rec walk p =
    if Sys.is_directory p then
      Array.to_list (Sys.readdir p)
      |> List.concat_map (fun f -> walk (Filename.concat p f))
    else [ p ]
  in
  match walk dir with
  | [ f ] -> f
  | files -> Alcotest.failf "expected one entry file, found %d" (List.length files)

let corrupt_with bytes path =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let test_corrupt_detected_and_evicted () =
  let check label mangle =
    let dir = temp_dir () in
    let c = Cache.create ~dir:(Some dir) () in
    Cache.store c ~kind:"row" "cafe1234" [ 1; 2; 3 ];
    let path = entry_file dir in
    mangle path;
    let c2 = Cache.create ~dir:(Some dir) () in
    Alcotest.(check (option (list int))) (label ^ ": miss") None
      (Cache.find c2 ~kind:"row" "cafe1234");
    Alcotest.(check int) (label ^ ": counted") 1
      (Cache.stats c2).Cache.disk_errors;
    Alcotest.(check bool) (label ^ ": evicted") false (Sys.file_exists path)
  in
  check "bad magic" (corrupt_with "not-hlts v x y 3\nabc");
  check "truncated" (fun path ->
      let ic = open_in_bin path in
      let all = really_input_string ic (in_channel_length ic) in
      close_in ic;
      corrupt_with (String.sub all 0 (String.length all - 2)) path);
  check "flipped payload byte" (fun path ->
      let ic = open_in_bin path in
      let all = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let last = Bytes.length all - 1 in
      Bytes.set all last (Char.chr (Char.code (Bytes.get all last) lxor 0xff));
      corrupt_with (Bytes.to_string all) path);
  check "wrong version" (fun path ->
      let ic = open_in_bin path in
      let all = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* the header embeds the compiler version; rewriting it breaks the
         magic-line match for a future-version reader *)
      corrupt_with ("hlts-cache/0" ^ String.sub all 12 (String.length all - 12))
        path)

let test_scan_and_clear () =
  let dir = temp_dir () in
  let c = Cache.create ~dir:(Some dir) () in
  Cache.store c ~kind:"row" "d1" 1;
  Cache.store c ~kind:"row" "d2" 2;
  Cache.store c ~kind:"atpg" "d3" 3;
  (* a top-level non-entry file (the daemon socket lives here) must be
     ignored by scan and survive clear *)
  let sock = Filename.concat dir "serve.sock" in
  corrupt_with "not a cache entry" sock;
  let corrupt_path =
    let p = Filename.concat (Filename.concat dir "row") "zz" in
    Unix.mkdir p 0o755;
    let f = Filename.concat p "deadbeefdeadbeef" in
    corrupt_with "garbage" f;
    f
  in
  let s = Cache.scan_dir dir in
  Alcotest.(check int) "valid entries" 3 s.Cache.entries;
  Alcotest.(check (list (pair string int))) "kinds"
    [ ("atpg", 1); ("row", 2) ] s.Cache.kinds;
  Alcotest.(check (list string)) "corrupt listed" [ corrupt_path ]
    s.Cache.corrupt;
  Alcotest.(check bool) "corrupt evicted" false (Sys.file_exists corrupt_path);
  Alcotest.(check bool) "scan spares the socket" true (Sys.file_exists sock);
  let removed = Cache.clear_dir dir in
  Alcotest.(check int) "cleared" 3 removed;
  Alcotest.(check int) "empty after clear" 0 (Cache.scan_dir dir).Cache.entries;
  Alcotest.(check bool) "clear spares the socket" true (Sys.file_exists sock)

(* --- DFG digest stability ------------------------------------------- *)

(* The digest must identify the computation content: permuting the ops
   list (same DAG, different storage order) or renaming the benchmark
   must not move it; touching an operation must. *)

let test_dfg_digest_reorder_invariant () =
  let d = B.tseng in
  let base = Dfg.digest d in
  Alcotest.(check string) "reversed ops" base
    (Dfg.digest { d with Dfg.ops = List.rev d.Dfg.ops });
  Alcotest.(check string) "renamed" base
    (Dfg.digest { d with Dfg.name = "not-tseng" });
  let mangled =
    match d.Dfg.ops with
    | o :: rest -> { d with Dfg.ops = { o with Dfg.result = "zz" } :: rest }
    | [] -> assert false
  in
  Alcotest.(check bool) "op change moves digest" true
    (Dfg.digest mangled <> base)

let test_dfg_digest_reorder_qcheck () =
  (* seeded shuffle so the property run is reproducible *)
  let shuffle seed xs =
    let st = Random.State.make [| seed |] in
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let prop (dfg_seed, shuffle_seed) =
    let d = B.random ~seed:dfg_seed ~ops:30 in
    Dfg.digest d
    = Dfg.digest { d with Dfg.ops = shuffle shuffle_seed d.Dfg.ops }
  in
  let arb = QCheck.(pair (int_range 1 1000) (int_range 1 1000)) in
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count:50 ~name:"digest invariant under op shuffle" arb
       prop)

(* --- request digest sensitivity ------------------------------------- *)

let spec_exn ?params ?atpg ?engine ?dfg ~bench ~approach ~bits () =
  match Engine.spec ?params ?atpg ?engine ?dfg ~bench ~approach ~bits () with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_request_digest_sensitivity () =
  let base () =
    spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:4 ()
  in
  let d0 = Engine.request_digest (Engine.Atpg (base ())) in
  let differs label s =
    Alcotest.(check bool) label true
      (Engine.request_digest (Engine.Atpg s) <> d0)
  in
  let s = base () in
  differs "alpha" { s with Engine.params = { s.Engine.params with Synth.alpha = 3.5 } };
  differs "beta" { s with Engine.params = { s.Engine.params with Synth.beta = 7.0 } };
  differs "k" { s with Engine.params = { s.Engine.params with Synth.k = 4 } };
  differs "seed" { s with Engine.atpg = { cheap_atpg with Atpg.seed = 99 } };
  differs "frames" { s with Engine.atpg = { cheap_atpg with Atpg.max_frames = 4 } };
  differs "engine" { s with Engine.engine = `Cone };
  differs "width" (spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:8 ());
  differs "approach" (spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Camad ~bits:4 ());
  (* the display name is not content: same DFG under a different label *)
  Alcotest.(check string) "bench label excluded" d0
    (Engine.request_digest
       (Engine.Atpg
          (spec_exn ~dfg:B.toy ~atpg:cheap_atpg ~bench:"renamed"
             ~approach:Flows.Ours ~bits:4 ())));
  (* ops differing between synth-only and full requests *)
  Alcotest.(check bool) "op namespaces" true
    (Engine.request_digest (Engine.Synth (base ())) <> d0)

(* The synthesized outcome is keyed on (DFG, approach, params): the
   evaluation width does not enter it, so widths that synthesize with
   equal params share one outcome, and widths whose default params
   differ ([Eval.params_for_bits] sets [params.bits]) do not. *)
let test_outcome_shared_across_widths () =
  let outcome_hits specs =
    let c = Cache.create () in
    let eng = Engine.create ~cache:c () in
    List.iter (fun s -> ignore (Engine.run eng (Engine.Synth s))) specs;
    let s = Cache.stats c in
    (s.Cache.mem_hits, s.Cache.mem_entries)
  in
  let at ?params bits =
    spec_exn ?params ~bench:"toy" ~approach:Flows.Ours ~bits ()
  in
  let params = { Synth.default_params with Synth.bits = 8 } in
  Alcotest.(check (pair int int))
    "equal params: one outcome, hit by the second width (2 results + 1 outcome)"
    (1, 3)
    (outcome_hits [ at ~params 4; at ~params 16 ]);
  Alcotest.(check (pair int int))
    "per-width params: two outcomes, no hit (2 results + 2 outcomes)" (0, 4)
    (outcome_hits [ at 4; at 16 ])

(* Widths outside 1..32 are refused where a spec is built and where
   one is decoded off the wire, with one line naming the range. *)
let test_width_range () =
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  let refused label = function
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e ->
      Alcotest.(check bool)
        (label ^ ": one-line range error") true
        (String.length e > 0
        && (not (String.contains e '\n'))
        && contains e "1..32")
  in
  let build bits = Engine.spec ~bench:"toy" ~approach:Flows.Ours ~bits () in
  List.iter (fun b -> refused (Printf.sprintf "spec bits=%d" b) (build b))
    [ 0; -3; 33; max_int ];
  List.iter
    (fun b ->
      match build b with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "spec bits=%d refused: %s" b e)
    [ 1; 4; 8; 16; 32 ];
  refused "spec params.bits=0"
    (Engine.spec ~params:{ Synth.default_params with Synth.bits = 0 }
       ~bench:"toy" ~approach:Flows.Ours ~bits:8 ());
  let wire bits extra =
    Engine.spec_of_json
      (Json.Obj
         ([
            ("bench", Json.Str "toy");
            ("approach", Json.Str "ours");
            ("bits", Json.Int bits);
          ]
         @ extra))
  in
  refused "wire bits=0" (wire 0 []);
  refused "wire bits=-3" (wire (-3) []);
  refused "wire bits=70" (wire 70 []);
  refused "wire params.bits=-1"
    (wire 8 [ ("params", Json.Obj [ ("bits", Json.Int (-1)) ]) ]);
  match wire 16 [] with
  | Ok s -> Alcotest.(check int) "wire bits=16 decodes" 16 s.Engine.bits
  | Error e -> Alcotest.failf "wire bits=16 refused: %s" e

(* --- engine cold/warm byte-identity --------------------------------- *)

let test_engine_cold_warm_identical () =
  let dir = temp_dir () in
  let req () =
    Engine.Atpg
      (spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:4 ())
  in
  let run () =
    Engine.run
      (Engine.create ~cache:(Cache.create ~dir:(Some dir) ()) ())
      (req ())
  in
  let cold = run () in
  let warm = run () in
  Alcotest.(check bool) "cold computes" false cold.Engine.cached;
  Alcotest.(check bool) "warm recalls" true warm.Engine.cached;
  Alcotest.(check string) "request digests" cold.Engine.digest warm.Engine.digest;
  Alcotest.(check string) "response bytes"
    (Json.to_string (Engine.response_to_json cold.Engine.response))
    (Json.to_string (Engine.response_to_json warm.Engine.response));
  Alcotest.(check string) "journal bytes"
    (Engine.journal_digest cold.Engine.journal)
    (Engine.journal_digest warm.Engine.journal);
  Alcotest.(check bool) "journal captured" true (cold.Engine.journal <> [])

let test_request_json_roundtrip () =
  let s =
    spec_exn ~atpg:cheap_atpg ~engine:`Cone ~bench:"tseng"
      ~approach:Flows.Approach2 ~bits:16 ()
  in
  let check req =
    match Engine.request_of_json (Engine.request_to_json req) with
    | Error e -> Alcotest.fail e
    | Ok req' ->
      Alcotest.(check string) "digest survives the wire"
        (Engine.request_digest req) (Engine.request_digest req')
  in
  check (Engine.Atpg s);
  check (Engine.Synth s);
  check (Engine.Testability s);
  check (Engine.Sweep [ s; spec_exn ~bench:"toy" ~approach:Flows.Ours ~bits:4 () ])

let () =
  Alcotest.run "hlts_cache"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_mem_roundtrip;
          Alcotest.test_case "lru eviction" `Quick test_mem_lru_eviction;
        ] );
      ( "disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "mem-only" `Quick test_mem_only_skips_disk;
          Alcotest.test_case "corrupt entries" `Quick
            test_corrupt_detected_and_evicted;
          Alcotest.test_case "scan and clear" `Quick test_scan_and_clear;
        ] );
      ( "digests",
        [
          Alcotest.test_case "dfg reorder invariant" `Quick
            test_dfg_digest_reorder_invariant;
          test_dfg_digest_reorder_qcheck ();
          Alcotest.test_case "request sensitivity" `Quick
            test_request_digest_sensitivity;
          Alcotest.test_case "json roundtrip" `Quick test_request_json_roundtrip;
          Alcotest.test_case "outcome shared across widths" `Quick
            test_outcome_shared_across_widths;
          Alcotest.test_case "width range" `Quick test_width_range;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cold = warm" `Quick
            test_engine_cold_warm_identical;
        ] );
    ]
