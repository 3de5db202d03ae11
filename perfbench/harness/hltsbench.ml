(* Entry point of the benchmark harness:

     hltsbench.exe --workload table-sweep|synth-scale|serve-mix
       --seed N --seconds S --trace 0|1 --hlts PATH --work DIR
       [--refs FILE] [--record] [--tiny]

   Prints a human-readable summary, then as its last line one JSON
   object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones, measured with no sink attached;
   with --trace 1 they are the per-layer ones of a separate traced run,
   and a Chrome trace is written to DIR/../traces. --record merges the
   digests observed into the reference file instead of only checking
   them. --tiny shrinks every workload for the harness self-test. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and hlts = ref "" and work = ref ".perfbench/work" in
  let refs = ref "" and record = ref false and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--hlts", Arg.Set_string hlts, "PATH hlts binary");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--refs", Arg.Set_string refs, "FILE reference digests");
      ("--record", Arg.Set record, " record references");
      ("--tiny", Arg.Set tiny, " tiny sizes (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hltsbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  mkdir_p !work;
  let traced = !trace = 1 in
  let chrome =
    if traced then begin
      let dir = Filename.concat (Filename.dirname !work) "traces" in
      mkdir_p dir;
      Some (Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" !workload !seed))
    end
    else None
  in
  let ref_file = if !refs = "" then None else Some !refs in
  let refs = Option.fold ~none:[] ~some:read_refs ref_file in
  let record_to = if !record then ref_file else None in
  if !hlts = "" then failwith "--hlts is required";
  let seed = !seed and seconds = !seconds and tiny = !tiny and hlts = !hlts in
  let c, metrics =
    match !workload with
    | "table-sweep" ->
      Table_sweep.run ~hlts ~seconds ~trace:traced ~refs ~record_to ~chrome ~tiny
    | "synth-scale" ->
      Synth_scale.run ~hlts ~seconds ~trace:traced ~refs ~record_to ~chrome ~tiny
    | "serve-mix" ->
      Serve_mix.run ~hlts ~work:!work ~seed ~seconds ~trace:traced ~refs
        ~record_to ~chrome ~tiny
    | w -> failwith ("unknown workload " ^ w)
  in
  Option.iter (fun p -> log "chrome trace: %s" p) chrome;
  let failed = failed c in
  print_result ~correct:(failed = 0) ~attempted:c.attempted ~failed metrics
