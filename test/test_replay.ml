(* Property tests for the cone-limited incremental fault-simulation
   engines against their full-sweep oracles: random sequential netlists
   x random faults x random 64-lane stimuli must agree bit-for-bit on
   detection, detecting cycle, lane-diff word and effort counters. *)

module N = Hlts_netlist.Netlist
module B = N.Builder
module F = Hlts_fault.Fault
module Sim = Hlts_sim.Sim
module Podem = Hlts_atpg.Podem
module Atpg = Hlts_atpg.Atpg
module Rng = Hlts_util.Rng

(* A random sequential netlist: a few PI buses, a soup of random gates
   over everything reachable, and DFF feedback loops closed through
   placeholder nets ([fresh] used as inputs first, [drive]n from a DFF
   Q at the end). *)
let random_netlist st =
  let b = B.create () in
  let n_pis = 1 + Random.State.int st 3 in
  let pis =
    List.concat
      (List.init n_pis (fun i ->
           B.input b (Printf.sprintf "pi%d" i) (1 + Random.State.int st 2)))
  in
  let n_fb = Random.State.int st 3 in
  let feedback = List.init n_fb (fun _ -> B.fresh b) in
  let nets = ref (pis @ feedback) in
  let pick () = List.nth !nets (Random.State.int st (List.length !nets)) in
  let kinds =
    [| N.G_and; N.G_or; N.G_nand; N.G_nor; N.G_xor; N.G_xnor; N.G_not;
       N.G_buf; N.G_mux2 |]
  in
  let n_gates = 3 + Random.State.int st 14 in
  for _ = 1 to n_gates do
    let kind = kinds.(Random.State.int st (Array.length kinds)) in
    let inputs =
      match kind with
      | N.G_not | N.G_buf -> [ pick () ]
      | N.G_mux2 -> [ pick (); pick (); pick () ]
      | _ -> [ pick (); pick () ]
    in
    nets := B.gate b kind inputs :: !nets
  done;
  List.iter
    (fun placeholder ->
      let q = B.dff b (pick ()) in
      B.drive b ~dst:placeholder ~src:q)
    feedback;
  let n_pos = 1 + Random.State.int st 3 in
  B.output b "po" (List.init n_pos (fun _ -> pick ()));
  B.finish b

let random_stimuli st rng pi_nets =
  let cycles = 1 + Random.State.int st 6 in
  Array.init cycles (fun _ ->
      List.map (fun net -> (net, Rng.word rng)) pi_nets)

let random_fault st c =
  let faults = F.universe c in
  List.nth faults (Random.State.int st (List.length faults))

(* --- Sim.replay vs Sim.replay_full -------------------------------------- *)

let prop_replay_matches_oracle =
  QCheck.Test.make ~name:"Sim.replay = Sim.replay_full" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let sim = Sim.compile c in
      let rng = Rng.create (seed + 1) in
      let pi_nets = List.concat_map (fun (_, bus) -> bus) c.N.pis in
      let stimuli = random_stimuli st rng pi_nets in
      let trajectory = Sim.record sim stimuli in
      let scratch = Sim.scratch sim in
      let oracle = Sim.machine sim in
      let mask = if Random.State.bool st then -1L else Rng.word rng in
      (* several faults per netlist, reusing the scratch across replays *)
      List.for_all
        (fun fault ->
          let e1 = ref 0 and e2 = ref 0 in
          let r1 = Sim.replay ~mask sim scratch fault trajectory ~evals:e1 in
          let r2 =
            Sim.replay_full ~mask sim oracle fault trajectory ~evals:e2
          in
          if r1 <> r2 then
            QCheck.Test.fail_reportf "seed %d %s: cone %s, full %s" seed
              (F.to_string fault)
              (match r1 with
               | None -> "undetected"
               | Some (c, d) -> Printf.sprintf "(%d, %Lx)" c d)
              (match r2 with
               | None -> "undetected"
               | Some (c, d) -> Printf.sprintf "(%d, %Lx)" c d);
          if !e1 <> !e2 then
            QCheck.Test.fail_reportf "seed %d %s: evals %d vs %d" seed
              (F.to_string fault) !e1 !e2;
          true)
        (List.init 4 (fun _ -> random_fault st c)))

(* --- Podem `Cone vs `Full ------------------------------------------------ *)

let prop_podem_matches_oracle =
  QCheck.Test.make ~name:"Podem `Cone = Podem `Full" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let sim = Sim.compile c in
      let cone = Podem.create sim ~max_frames:3
      and full = Podem.create sim ~max_frames:3 in
      List.for_all
        (fun fault ->
          let v1, s1 =
            Podem.generate ~engine:`Cone cone ~max_backtracks:10 fault
          in
          let v2, s2 =
            Podem.generate ~engine:`Full full ~max_backtracks:10 fault
          in
          if not (v1 = v2 && s1 = s2) then
            QCheck.Test.fail_reportf "seed %d %s: engines disagree" seed
              (F.to_string fault);
          true)
        (List.init 3 (fun _ -> random_fault st c)))

(* One context reused across a random sequence of faults must answer
   exactly like a fresh context per fault, and like the [`Full] oracle.
   Every call walks depths 1..4 on planes the previous call left at
   some depth, and small random backtrack and implication budgets end
   searches (detected, aborted, exhausted) at random depths, so a stale
   plane, schedule or D-frontier bit would show as a disagreement. *)
let prop_podem_context_reuse =
  QCheck.Test.make ~name:"Podem reused context = fresh = `Full" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let sim = Sim.compile c in
      let max_frames = 4 in
      let reused = Podem.create sim ~max_frames in
      let case _ =
        let fault = random_fault st c in
        (fault, Random.State.int st 12, 1 + Random.State.int st 60)
      in
      List.for_all
        (fun (fault, max_backtracks, max_implications) ->
          let run engine p =
            Podem.generate ~max_implications ~engine p ~max_backtracks fault
          in
          let r = run `Cone reused in
          let fresh = run `Cone (Podem.create sim ~max_frames) in
          let full = run `Full (Podem.create sim ~max_frames) in
          if r <> fresh || r <> full then
            QCheck.Test.fail_reportf
              "seed %d %s (backtracks %d, implications %d): reused, fresh \
               and full contexts disagree"
              seed (F.to_string fault) max_backtracks max_implications;
          true)
        (List.init 8 case))

(* --- end-to-end Atpg.run engine identity --------------------------------- *)

let datapath bits =
  let d = Hlts_dfg.Benchmarks.toy in
  let s = Hlts_sched.Basic.asap_exn (Hlts_sched.Constraints.of_dfg d) in
  let binding = Hlts_alloc.Binding.allocate d s in
  let etpn = Hlts_etpn.Etpn.build_exn d s binding in
  Hlts_netlist.Expand.circuit etpn ~bits

let strip_times r =
  { r with Atpg.seconds = 0.0; random_seconds = 0.0; det_seconds = 0.0 }

let test_atpg_engines_identical () =
  let c = datapath 4 in
  let rc = Atpg.run ~engine:`Cone c in
  let rf = Atpg.run ~engine:`Full c in
  let rp = Atpg.run ~engine:`Ppsfp c in
  (* everything except wall time must be bit-identical *)
  Alcotest.(check bool) "cone = full" true (strip_times rc = strip_times rf);
  Alcotest.(check bool) "ppsfp = cone" true (strip_times rp = strip_times rc);
  Alcotest.(check string) "digests equal" rc.Atpg.detect_digest
    rf.Atpg.detect_digest;
  Alcotest.(check string) "ppsfp digest equal" rc.Atpg.detect_digest
    rp.Atpg.detect_digest

let test_atpg_digest_stable () =
  let c = datapath 4 in
  let r1 = Atpg.run c and r2 = Atpg.run c in
  Alcotest.(check string) "same digest" r1.Atpg.detect_digest
    r2.Atpg.detect_digest;
  Alcotest.(check bool) "evals positive" true (r1.Atpg.evals > 0)

let () =
  Alcotest.run "hlts_replay"
    [
      ( "replay",
        [ QCheck_alcotest.to_alcotest prop_replay_matches_oracle ] );
      ( "podem",
        [
          QCheck_alcotest.to_alcotest prop_podem_matches_oracle;
          QCheck_alcotest.to_alcotest prop_podem_context_reuse;
        ] );
      ( "atpg",
        [
          Alcotest.test_case "engine identity" `Quick
            test_atpg_engines_identical;
          Alcotest.test_case "digest stable" `Quick test_atpg_digest_stable;
        ] );
    ]
