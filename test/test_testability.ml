(* Tests for Hlts_testability: propagation laws of CC/SC/CO/SO, node
   summaries, sequential depth, and the balance score. *)

open Hlts_testability
module Etpn = Hlts_etpn.Etpn
module Dfg = Hlts_dfg.Dfg
module B = Hlts_dfg.Benchmarks
module Binding = Hlts_alloc.Binding
module Constraints = Hlts_sched.Constraints
module Basic = Hlts_sched.Basic

let asap d = Basic.asap_exn (Constraints.of_dfg d)

let analyzed d =
  let s = asap d in
  let etpn = Etpn.build_exn d s (Binding.allocate d s) in
  (etpn, Testability.analyze etpn)

let test_ranges_everywhere () =
  List.iter
    (fun (name, d) ->
      let etpn, t = analyzed d in
      List.iter
        (fun (id, _) ->
          let m = Testability.node_measures t id in
          let ok01 x = x >= 0.0 && x <= 1.0 in
          if not (ok01 m.Testability.cc && ok01 m.Testability.co) then
            Alcotest.failf "%s node %d: cc/co out of range" name id;
          if m.Testability.sc < 0.0 || m.Testability.so < 0.0 then
            Alcotest.failf "%s node %d: negative sequential measure" name id)
        etpn.Etpn.nodes)
    B.all

let test_everything_reachable () =
  (* in an allocated benchmark data path every register and unit is both
     controllable and observable to some degree *)
  List.iter
    (fun (name, d) ->
      let _, t = analyzed d in
      List.iter
        (fun (rid, m) ->
          if m.Testability.cc <= 0.0 then
            Alcotest.failf "%s R%d uncontrollable" name rid;
          if m.Testability.co <= 0.0 then
            Alcotest.failf "%s R%d unobservable" name rid;
          if m.Testability.sc = infinity || m.Testability.so = infinity then
            Alcotest.failf "%s R%d infinite sequential measures" name rid)
        (Testability.register_measures t))
    B.all

let test_input_registers_most_controllable () =
  (* a register fed directly from an input port has CC close to 1 *)
  let d = B.toy in
  let s = asap d in
  let binding = Binding.default d in
  let etpn = Etpn.build_exn d s binding in
  let t = Testability.analyze etpn in
  let reg_of name =
    (Binding.reg_of_value binding (Option.get (Dfg.value_of_name d name)))
      .Binding.reg_id
  in
  let m name =
    List.assoc (reg_of name) (Testability.register_measures t)
  in
  let a = m "a" and p = m "p" in
  Alcotest.(check bool) "input reg CC = 1" true (a.Testability.cc >= 0.99);
  Alcotest.(check bool) "deep value harder" true
    (p.Testability.cc < a.Testability.cc);
  Alcotest.(check bool) "SC grows with depth" true
    (p.Testability.sc > a.Testability.sc)

let test_output_registers_most_observable () =
  let d = B.toy in
  let s = asap d in
  let binding = Binding.default d in
  let etpn = Etpn.build_exn d s binding in
  let t = Testability.analyze etpn in
  let reg_of name =
    (Binding.reg_of_value binding (Option.get (Dfg.value_of_name d name)))
      .Binding.reg_id
  in
  let m name = List.assoc (reg_of name) (Testability.register_measures t) in
  let q = m "q" and b = m "b" in
  Alcotest.(check bool) "output reg CO high" true (q.Testability.co >= 0.9);
  Alcotest.(check bool) "input-side value less observable" true
    (b.Testability.co < q.Testability.co);
  Alcotest.(check bool) "SO grows away from outputs" true
    (b.Testability.so > q.Testability.so)

let test_mul_harder_than_add () =
  (* two parallel 1-op designs: through-mul controllability < through-add *)
  let mk kind =
    let d =
      Dfg.validate_exn
        {
          Dfg.name = "one";
          inputs = [ "a"; "b" ];
          ops = [ { Dfg.id = 1; kind; args = (Dfg.Input "a", Dfg.Input "b"); result = "r" } ];
          outputs = [ "r" ];
        }
    in
    let s = asap d in
    let etpn = Etpn.build_exn d s (Binding.default d) in
    let t = Testability.analyze etpn in
    let fus = Testability.fu_measures t in
    (* unit output controllability is reflected in the result register's CC *)
    let regs = Testability.register_measures t in
    let r_reg =
      List.find
        (fun (rid, _) ->
          let reg =
            List.find (fun r -> r.Binding.reg_id = rid)
              etpn.Etpn.binding.Binding.registers
          in
          List.mem (Dfg.V_op 1) reg.Binding.reg_values)
        regs
    in
    (snd r_reg, fus)
  in
  let m_add, _ = mk Hlts_dfg.Op.Add in
  let m_mul, _ = mk Hlts_dfg.Op.Mul in
  Alcotest.(check bool) "mul harder" true
    (m_mul.Testability.cc < m_add.Testability.cc)

let test_seq_depth_finite_positive () =
  List.iter
    (fun (name, d) ->
      let _, t = analyzed d in
      let depth = Testability.seq_depth_total t in
      if not (depth > 0.0 && depth < 1e6) then
        Alcotest.failf "%s: seq depth %f" name depth)
    B.all

let test_balance_score_prefers_complementary () =
  (* Three registers in a chain design: in-reg (good C, poor O), out-reg
     (poor C, good O), and compare merging complementary vs similar. *)
  let d = B.ewf in
  let s = asap d in
  let binding = Binding.default d in
  let etpn = Etpn.build_exn d s binding in
  let t = Testability.analyze etpn in
  let regs = Testability.register_measures t in
  (* most controllable-but-unobservable *)
  let by f = Hlts_util.Listx.max_by (fun (_, m) -> f m) regs in
  let good_c =
    Option.get (by (fun m -> m.Testability.cc -. m.Testability.co))
  in
  let good_o =
    Option.get (by (fun m -> m.Testability.co -. m.Testability.cc))
  in
  let node_of rid = Etpn.node_id_of_reg etpn rid in
  let complementary =
    Testability.balance_score t (node_of (fst good_c)) (node_of (fst good_o))
  in
  let similar =
    Testability.balance_score t (node_of (fst good_c)) (node_of (fst good_c))
  in
  Alcotest.(check bool) "complementary wins" true (complementary > similar)

let test_testability_cost_orders_designs () =
  (* the default (unshared) diffeq data path is easier to test than one
     with every op on one path through shared units? Not necessarily —
     but the cost must be finite and positive for both. *)
  let d = B.diffeq in
  let s = asap d in
  let c1 =
    Testability.testability_cost
      (Testability.analyze (Etpn.build_exn d s (Binding.default d)))
  in
  let c2 =
    Testability.testability_cost
      (Testability.analyze (Etpn.build_exn d s (Binding.allocate d s)))
  in
  Alcotest.(check bool) "finite positive" true
    (c1 > 0.0 && c2 > 0.0 && c1 < 1e6 && c2 < 1e6)

let test_deterministic () =
  let d = B.dct in
  let s = asap d in
  let etpn = Etpn.build_exn d s (Binding.allocate d s) in
  let t1 = Testability.analyze etpn and t2 = Testability.analyze etpn in
  List.iter
    (fun (id, _) ->
      let m1 = Testability.node_measures t1 id in
      let m2 = Testability.node_measures t2 id in
      Alcotest.(check bool) "same" true (m1 = m2))
    etpn.Etpn.nodes

let prop_monotone_under_merging_inputs =
  (* CC of any node never exceeds 1 even with many sources *)
  QCheck.Test.make ~name:"cc bounded across benchmarks" ~count:20
    QCheck.(int_bound (List.length B.all - 1))
    (fun i ->
      let _, d = List.nth B.all i in
      let _, t = analyzed d in
      List.for_all
        (fun (_, m) -> m.Testability.cc <= 1.0 +. 1e-9)
        (Testability.register_measures t))

(* --- tabulated measures against the per-query reference --------------- *)

(* The analysis as it stood before the ETPN index and the measures
   table: Hashtbl fixpoints, arcs found by scanning [arcs], nodes by
   [List.assoc], two [arc_obs] calls per arc, and node measures derived
   per query. Kept as the bit-level specification of [analyze] and
   [node_measures]; the factors restate the library's. *)
module Op = Hlts_dfg.Op

let reference_node_measures etpn =
  let in_arcs id = List.filter (fun a -> a.Etpn.a_dst = id) etpn.Etpn.arcs in
  let out_arcs id = List.filter (fun a -> a.Etpn.a_src = id) etpn.Etpn.arcs in
  let node id = List.assoc id etpn.Etpn.nodes in
  let class_kind = function
    | Op.Fu_adder -> Op.Add
    | Op.Fu_subtractor -> Op.Sub
    | Op.Fu_multiplier -> Op.Mul
    | Op.Fu_comparator -> Op.Lt
    | Op.Fu_logic -> Op.And
    | Op.Fu_alu -> Op.Add
  in
  let fu_ctf fu =
    match class_kind fu.Binding.fu_class with
    | Op.Add | Op.Sub -> 0.95
    | Op.Mul -> 0.65
    | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Eq | Op.Ne -> 0.55
    | Op.And | Op.Or -> 0.80
    | Op.Xor -> 0.95
  in
  let fu_otf fu =
    match class_kind fu.Binding.fu_class with
    | Op.Add | Op.Sub -> 0.95
    | Op.Mul -> 0.60
    | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Eq | Op.Ne -> 0.45
    | Op.And | Op.Or -> 0.75
    | Op.Xor -> 0.95
  in
  let register_factor = 0.98 and const_cc = 0.15 and cond_co = 0.85 in
  let big = infinity in
  let out_cc = Hashtbl.create 64 and out_sc = Hashtbl.create 64 in
  let node_co = Hashtbl.create 64 and node_so = Hashtbl.create 64 in
  List.iter
    (fun (id, n) ->
      let cc0, sc0 =
        match n with
        | Etpn.Port_in _ -> (1.0, 0.0)
        | Etpn.Const _ -> (const_cc, 0.0)
        | _ -> (0.0, big)
      in
      let co0, so0 =
        match n with
        | Etpn.Port_out _ -> (1.0, 0.0)
        | Etpn.Cond_out _ -> (cond_co, 0.0)
        | _ -> (0.0, big)
      in
      Hashtbl.replace out_cc id cc0;
      Hashtbl.replace out_sc id sc0;
      Hashtbl.replace node_co id co0;
      Hashtbl.replace node_so id so0)
    etpn.Etpn.nodes;
  let cc_of = Hashtbl.find out_cc and sc_of = Hashtbl.find out_sc in
  let co_of = Hashtbl.find node_co and so_of = Hashtbl.find node_so in
  let port_cc srcs = List.fold_left (fun acc s -> max acc (cc_of s)) 0.0 srcs in
  let port_sc srcs = List.fold_left (fun acc s -> min acc (sc_of s)) big srcs in
  let fu_port_sources id p =
    List.filter_map
      (fun a -> if a.Etpn.a_port = Some p then Some a.Etpn.a_src else None)
      (in_arcs id)
  in
  let sources id = List.map (fun a -> a.Etpn.a_src) (in_arcs id) in
  let relax update_node =
    let changed = ref false in
    let update tbl_up tbl_down id up down =
      if up > Hashtbl.find tbl_up id +. 1e-12 then begin
        Hashtbl.replace tbl_up id up;
        changed := true
      end;
      if down < Hashtbl.find tbl_down id -. 1e-12 then begin
        Hashtbl.replace tbl_down id down;
        changed := true
      end
    in
    List.iter (update_node update) etpn.Etpn.nodes;
    !changed
  in
  let forward_once () =
    relax (fun update (id, n) ->
        let update = update out_cc out_sc id in
        match n with
        | Etpn.Reg _ ->
          let srcs = sources id in
          if srcs <> [] then
            update (register_factor *. port_cc srcs) (1.0 +. port_sc srcs)
        | Etpn.Fu fu ->
          let left = fu_port_sources id Etpn.P_left in
          let right = fu_port_sources id Etpn.P_right in
          if left <> [] && right <> [] then
            update
              (fu_ctf fu *. min (port_cc left) (port_cc right))
              (max (port_sc left) (port_sc right))
        | Etpn.Cond_out _ | Etpn.Port_out _ ->
          let srcs = sources id in
          if srcs <> [] then update (port_cc srcs) (port_sc srcs)
        | Etpn.Port_in _ | Etpn.Const _ -> ())
  in
  let arc_obs a =
    let dst = a.Etpn.a_dst in
    match node dst with
    | Etpn.Port_out _ -> (1.0, 0.0)
    | Etpn.Cond_out _ -> (cond_co, 0.0)
    | Etpn.Reg _ -> (register_factor *. co_of dst, 1.0 +. so_of dst)
    | Etpn.Fu fu -> (
      let other_port =
        match a.Etpn.a_port with
        | Some Etpn.P_left -> Some Etpn.P_right
        | Some Etpn.P_right -> Some Etpn.P_left
        | None -> None
      in
      match other_port with
      | None -> (0.0, big)
      | Some p ->
        let other = fu_port_sources dst p in
        (fu_otf fu *. co_of dst *. port_cc other, so_of dst +. port_sc other))
    | Etpn.Port_in _ | Etpn.Const _ -> (0.0, big)
  in
  let backward_once () =
    relax (fun update (id, n) ->
        match n with
        | Etpn.Port_out _ | Etpn.Cond_out _ -> ()
        | Etpn.Port_in _ | Etpn.Const _ | Etpn.Reg _ | Etpn.Fu _ ->
          let arcs = out_arcs id in
          if arcs <> [] then
            update node_co node_so id
              (List.fold_left (fun acc a -> max acc (fst (arc_obs a))) 0.0 arcs)
              (List.fold_left (fun acc a -> min acc (snd (arc_obs a))) big arcs))
  in
  let rec run pass budget = if budget > 0 && pass () then run pass (budget - 1) in
  let rounds = (4 * List.length etpn.Etpn.nodes) + 16 in
  run forward_once rounds;
  run backward_once rounds;
  fun id ->
    let cc, sc =
      match sources id with
      | [] -> (cc_of id, sc_of id)
      | srcs -> (port_cc srcs, port_sc srcs)
    in
    { Testability.cc; sc; co = co_of id; so = so_of id }

(* A random design: a [Benchmarks.random] DFG under the default, the
   left-edge or the Algorithm-1 binding, with [taps] observation points
   on its first registers. *)
let random_etpn (seed, ops, kind, taps) =
  let d = B.random ~seed ~ops in
  let s, binding =
    match kind with
    | 0 -> (asap d, Binding.default d)
    | 1 ->
      let s = asap d in
      (s, Binding.allocate d s)
    | _ ->
      let st = (Hlts_synth.Synth.run ~jobs:1 d).Hlts_synth.Synth.final in
      (st.Hlts_synth.State.schedule, st.Hlts_synth.State.binding)
  in
  List.fold_left
    (fun etpn r -> Etpn.add_observation_point etpn ~reg_id:r.Binding.reg_id)
    (Etpn.build_exn d s binding)
    (Hlts_util.Listx.take taps binding.Binding.registers)

let bits m =
  Printf.sprintf "%h %h %h %h" m.Testability.cc m.Testability.sc
    m.Testability.co m.Testability.so

let prop_table_matches_reference =
  QCheck.Test.make ~name:"measures table = per-query reference" ~count:100
    QCheck.(
      make
        ~print:(fun (seed, ops, kind, taps) ->
          Printf.sprintf "seed %d, %d ops, binding %d, %d taps" seed ops kind
            taps)
        Gen.(
          quad (int_bound 100_000) (int_range 1 24) (int_bound 2) (int_bound 2)))
    (fun design ->
      let etpn = random_etpn design in
      let t = Testability.analyze etpn in
      let reference = reference_node_measures etpn in
      List.for_all
        (fun (id, _) ->
          bits (Testability.node_measures t id) = bits (reference id))
        etpn.Etpn.nodes)

let () =
  Alcotest.run "hlts_testability"
    [
      ( "propagation",
        [
          Alcotest.test_case "ranges" `Quick test_ranges_everywhere;
          Alcotest.test_case "reachable" `Quick test_everything_reachable;
          Alcotest.test_case "controllability gradient" `Quick
            test_input_registers_most_controllable;
          Alcotest.test_case "observability gradient" `Quick
            test_output_registers_most_observable;
          Alcotest.test_case "mul harder than add" `Quick test_mul_harder_than_add;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          QCheck_alcotest.to_alcotest prop_monotone_under_merging_inputs;
          QCheck_alcotest.to_alcotest prop_table_matches_reference;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "seq depth" `Quick test_seq_depth_finite_positive;
          Alcotest.test_case "balance prefers complementary" `Quick
            test_balance_score_prefers_complementary;
          Alcotest.test_case "cost finite" `Quick test_testability_cost_orders_designs;
        ] );
    ]
