(* Boundary tests of the [hlts] binary itself: a request the CLI must
   refuse exits non-zero with exactly one line on stderr and nothing on
   stdout, before any work starts. *)

let hlts = Filename.concat (Filename.concat ".." "bin") "hlts.exe"

(* Runs [hlts args] to completion, with [env] added to the inherited
   environment; (exit code, stdout, stderr). *)
let run ?(env = []) args =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let out = Filename.temp_file "hlts-cli" ".out"
  and err = Filename.temp_file "hlts-cli" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fo = fd out and fe = fd err in
  let pid =
    Unix.create_process_env hlts
      (Array.of_list (hlts :: args))
      (Array.append (Array.of_list env) (Unix.environment ()))
      Unix.stdin fo fe
  in
  Unix.close fo;
  Unix.close fe;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let test_width_refused () =
  List.iter
    (fun (args, bits) ->
      let args = args @ [ "--bits=" ^ bits ] in
      let label = String.concat " " args in
      let code, out, err = run args in
      Alcotest.(check bool) (label ^ ": non-zero exit") true (code <> 0);
      Alcotest.(check string) (label ^ ": no output") "" out;
      Alcotest.(check string)
        (label ^ ": one-line error")
        (Printf.sprintf "error: bit width %s out of range 1..32\n" bits)
        err)
    [
      ([ "synth"; "-b"; "toy" ], "0");
      ([ "synth"; "-b"; "toy" ], "-3");
      ([ "atpg"; "-b"; "toy" ], "0");
      ([ "atpg"; "-b"; "ex" ], "70");
      ([ "testability"; "-b"; "toy" ], "33");
      ([ "profile"; "-b"; "toy" ], "0");
      ([ "submit"; "atpg"; "-b"; "toy" ], "0");
    ]

let test_width_accepted () =
  List.iter
    (fun bits ->
      let code, out, err = run [ "synth"; "-b"; "toy"; "--bits=" ^ bits ] in
      Alcotest.(check int) ("synth --bits " ^ bits ^ " exit") 0 code;
      Alcotest.(check string) ("synth --bits " ^ bits ^ " stderr") "" err;
      Alcotest.(check bool) ("synth --bits " ^ bits ^ " prints") true (out <> ""))
    [ "1"; "32" ]

(* [label] exits 1 with exactly [expected] on stderr and nothing on
   stdout. *)
let check_refused ?env args expected =
  let label =
    String.concat " " (Option.value ~default:[] env @ args)
  in
  let code, out, err = run ?env args in
  Alcotest.(check int) (label ^ ": exit 1") 1 code;
  Alcotest.(check string) (label ^ ": no output") "" out;
  Alcotest.(check string) (label ^ ": one-line error") expected err

(* Only zero and negative counts are probed here: an over-cap count is
   refused by the same check ([Eval.check_jobs], unit-tested at the cap
   in test_eval), and a binary must never be started with one. *)
let test_jobs_refused () =
  List.iter
    (fun (args, jobs) ->
      check_refused args
        (Printf.sprintf "error: jobs %s out of range 1..64\n" jobs))
    [
      ([ "synth"; "-b"; "ex"; "-j"; "0" ], "0");
      ([ "synth"; "-b"; "ex"; "--jobs=-1" ], "-1");
      ([ "atpg"; "-b"; "ex"; "-w"; "4"; "-j"; "0" ], "0");
      ([ "table"; "1"; "-j"; "0" ], "0");
      ([ "serve"; "--no-disk"; "--jobs=-2" ], "-2");
    ]

let test_env_jobs_refused () =
  check_refused ~env:[ "HLTS_JOBS=abc" ] [ "synth"; "-b"; "ex" ]
    "error: HLTS_JOBS=\"abc\" is not an integer\n";
  check_refused ~env:[ "HLTS_JOBS=0" ] [ "atpg"; "-b"; "toy" ]
    "error: HLTS_JOBS: jobs 0 out of range 1..64\n"

let test_heartbeat_ms_refused () =
  let hb = Filename.temp_file "hlts-cli" ".hb" in
  Sys.remove hb;
  List.iter
    (fun ms ->
      check_refused
        [ "synth"; "-b"; "ex"; "--heartbeat=" ^ hb; "--heartbeat-ms=" ^ ms ]
        (Printf.sprintf "error: heartbeat interval %s ms is not positive\n" ms);
      Alcotest.(check bool) "no heartbeat file" false (Sys.file_exists hb))
    [ "0"; "-5" ]

let () =
  Alcotest.run "hlts_cli"
    [
      ( "bits",
        [
          Alcotest.test_case "out of range refused" `Quick test_width_refused;
          Alcotest.test_case "range ends accepted" `Quick test_width_accepted;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "non-positive -j refused" `Quick test_jobs_refused;
          Alcotest.test_case "bad HLTS_JOBS refused" `Quick
            test_env_jobs_refused;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "non-positive interval refused" `Quick
            test_heartbeat_ms_refused;
        ] );
    ]
