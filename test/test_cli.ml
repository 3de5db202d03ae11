(* Boundary tests of the [hlts] binary itself: a request the CLI must
   refuse exits non-zero with exactly one line on stderr and nothing on
   stdout, before any work starts. *)

let hlts = Filename.concat (Filename.concat ".." "bin") "hlts.exe"

(* Runs [hlts args] to completion; (exit code, stdout, stderr). *)
let run args =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let out = Filename.temp_file "hlts-cli" ".out"
  and err = Filename.temp_file "hlts-cli" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fo = fd out and fe = fd err in
  let pid =
    Unix.create_process hlts (Array.of_list (hlts :: args)) Unix.stdin fo fe
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

let () =
  Alcotest.run "hlts_cli"
    [
      ( "bits",
        [
          Alcotest.test_case "out of range refused" `Quick test_width_refused;
          Alcotest.test_case "range ends accepted" `Quick test_width_accepted;
        ] );
    ]
