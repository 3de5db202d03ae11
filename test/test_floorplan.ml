(* Tests for Hlts_floorplan: module library scaling, placement sanity,
   and the H = cell area + wire cost estimator. *)

module Etpn = Hlts_etpn.Etpn
module Op = Hlts_dfg.Op
module B = Hlts_dfg.Benchmarks
module Binding = Hlts_alloc.Binding
module Constraints = Hlts_sched.Constraints
module Basic = Hlts_sched.Basic
open Hlts_floorplan

let asap d = Basic.asap_exn (Constraints.of_dfg d)

let build d =
  let s = asap d in
  Etpn.build_exn d s (Binding.allocate d s)

let test_library_scaling () =
  (* areas grow with bit width; the multiplier grows fastest *)
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Op.class_name cls ^ " grows")
        true
        (Module_library.fu_area cls ~bits:16 > Module_library.fu_area cls ~bits:4))
    [ Op.Fu_adder; Op.Fu_subtractor; Op.Fu_alu; Op.Fu_multiplier;
      Op.Fu_comparator; Op.Fu_logic ];
  let growth cls =
    Module_library.fu_area cls ~bits:16 /. Module_library.fu_area cls ~bits:4
  in
  Alcotest.(check bool) "mul superlinear" true
    (growth Op.Fu_multiplier > growth Op.Fu_adder +. 0.5);
  Alcotest.(check bool) "mul dominates alu at 16b" true
    (Module_library.fu_area Op.Fu_multiplier ~bits:16
    > 3.0 *. Module_library.fu_area Op.Fu_alu ~bits:16)

let test_plan_everywhere () =
  List.iter
    (fun (name, d) ->
      let etpn = build d in
      List.iter
        (fun bits ->
          let r = Floorplan.plan etpn ~bits in
          if not (r.Floorplan.total > 0.0) then Alcotest.failf "%s: zero area" name;
          Alcotest.(check (float 1e-9))
            (name ^ " total = cells + wires")
            (r.Floorplan.cell_area +. r.Floorplan.wire_cost)
            r.Floorplan.total;
          Alcotest.(check int)
            (name ^ " all placed")
            (List.length etpn.Etpn.nodes)
            (List.length r.Floorplan.placement))
        [ 4; 8; 16 ])
    B.all

let test_no_slot_collisions () =
  let etpn = build B.ewf in
  let r = Floorplan.plan etpn ~bits:8 in
  let slots = List.map snd r.Floorplan.placement in
  Alcotest.(check int) "distinct slots" (List.length slots)
    (List.length (List.sort_uniq compare slots))

let test_area_grows_with_bits () =
  let etpn = build B.dct in
  let a4 = Floorplan.area etpn ~bits:4 in
  let a8 = Floorplan.area etpn ~bits:8 in
  let a16 = Floorplan.area etpn ~bits:16 in
  Alcotest.(check bool) "4 < 8 < 16" true (a4 < a8 && a8 < a16)

let test_paper_scale () =
  (* DESIGN.md substitution 4: a 16-bit Dct data path should land in the
     paper's few-mm2 ballpark (the paper reports 2.5-3.3 mm2). *)
  let etpn = build B.dct in
  let a = Floorplan.area etpn ~bits:16 in
  Alcotest.(check bool) (Printf.sprintf "plausible scale (%.3f mm2)" a) true
    (a > 0.5 && a < 10.0)

let test_sharing_reduces_cells () =
  (* an allocated data path has fewer/cheaper cells than the default
     one-node-per-op data path *)
  let d = B.dct in
  let s = asap d in
  let dflt = Etpn.build_exn d s (Binding.default d) in
  let shared = Etpn.build_exn d s (Binding.allocate d s) in
  let a_dflt = (Floorplan.plan dflt ~bits:8).Floorplan.cell_area in
  let a_shared = (Floorplan.plan shared ~bits:8).Floorplan.cell_area in
  Alcotest.(check bool) "sharing shrinks cells" true (a_shared < a_dflt)

let test_deterministic () =
  let etpn = build B.ex in
  let r1 = Floorplan.plan etpn ~bits:8 and r2 = Floorplan.plan etpn ~bits:8 in
  Alcotest.(check bool) "same result" true (r1 = r2)

(* --- reference planner ------------------------------------------------ *)

(* The planner as first written: the free-slot frontier re-derived from
   every occupied slot for each block placed, float wire sums, node
   kinds looked up by [Etpn.node]. Quadratic, but obviously the
   heuristic of {!Floorplan}; the fast planner must agree with it bit
   for bit. *)
(* Area of one data-path block given its incoming arcs, multiplexers
   folded into the destination node that owns them. *)
let ref_block_area etpn ~bits id in_arcs =
  let own =
    match Etpn.node etpn id with
    | Etpn.Reg _ -> Module_library.reg_area ~bits
    | Etpn.Fu fu -> Module_library.fu_area fu.Hlts_alloc.Binding.fu_class ~bits
    | Etpn.Port_in _ | Etpn.Port_out _ | Etpn.Cond_out _ | Etpn.Const _ ->
      Module_library.port_area
  in
  let mux =
    let by_port = Hlts_util.Listx.group_by (fun a -> a.Etpn.a_port) in_arcs in
    List.fold_left
      (fun acc (_, arcs) ->
        acc
        +. float_of_int (max 0 (List.length arcs - 1))
           *. Module_library.mux_slice_area ~bits)
      0.0 by_port
  in
  own +. mux

let reference_plan etpn ~bits =
  let ids = List.map fst etpn.Etpn.nodes in
  let connections = Etpn.interconnect etpn in
  (* The planner is called once per merge attempt, so the per-node views
     (degree, neighbour list, incoming arcs) are each built in one pass
     instead of rescanning the arc/connection lists per query. *)
  let degree_tbl = Hashtbl.create 64 in
  let adj = Hashtbl.create 64 in
  let note id n =
    Hashtbl.replace degree_tbl id
      (1 + Option.value ~default:0 (Hashtbl.find_opt degree_tbl id));
    Hashtbl.replace adj id (n :: Option.value ~default:[] (Hashtbl.find_opt adj id))
  in
  List.iter
    (fun (a, b) -> if a = b then note a b else (note a b; note b a))
    connections;
  let degree id = Option.value ~default:0 (Hashtbl.find_opt degree_tbl id) in
  let neighbours id = Option.value ~default:[] (Hashtbl.find_opt adj id) in
  let in_arcs_tbl = Hashtbl.create 64 in
  List.iter
    (fun a ->
      Hashtbl.replace in_arcs_tbl a.Etpn.a_dst
        (a :: Option.value ~default:[] (Hashtbl.find_opt in_arcs_tbl a.Etpn.a_dst)))
    etpn.Etpn.arcs;
  let in_arcs id =
    (* reversed at read time so the per-node list keeps the arc-list
       order, making the float summation in [block_area] bit-identical
       to the former per-node [Etpn.in_arcs] filter *)
    List.rev (Option.value ~default:[] (Hashtbl.find_opt in_arcs_tbl id))
  in
  let order =
    List.sort (fun a b -> compare (degree b, a) (degree a, b)) ids
  in
  (* Slot grid: pitch derived from the average block size so distances are
     in mm. *)
  let areas = List.map (fun id -> (id, ref_block_area etpn ~bits id (in_arcs id))) ids in
  let cell_area = Hlts_util.Listx.sum_by snd areas in
  let pitch = sqrt (cell_area /. float_of_int (max 1 (List.length ids))) in
  let occupied = Hashtbl.create 64 in
  let slot_of = Hashtbl.create 64 in
  let place id (i, j) =
    Hashtbl.replace occupied (i, j) id;
    Hashtbl.replace slot_of id (i, j)
  in
  let frontier () =
    let cells = Hashtbl.fold (fun cell _ acc -> cell :: acc) occupied [] in
    let around (i, j) =
      [ (i + 1, j); (i - 1, j); (i, j + 1); (i, j - 1) ]
    in
    List.sort_uniq compare
      (List.filter
         (fun c -> not (Hashtbl.mem occupied c))
         (List.concat_map around cells))
  in
  let wire_to id (i, j) =
    Hlts_util.Listx.sum_by
      (fun n ->
        match Hashtbl.find_opt slot_of n with
        | None -> 0.0
        | Some (ni, nj) -> float_of_int (abs (i - ni) + abs (j - nj)))
      (neighbours id)
  in
  let place_next id =
    if Hashtbl.length occupied = 0 then place id (0, 0)
    else begin
      let candidates = frontier () in
      let best =
        Hlts_util.Listx.min_by (fun c -> wire_to id c) candidates
      in
      match best with
      | Some c -> place id c
      | None -> place id (Hashtbl.length occupied, 0)
    end
  in
  List.iter place_next order;
  let center id =
    let i, j = Hashtbl.find slot_of id in
    (float_of_int i *. pitch, float_of_int j *. pitch)
  in
  let wire_cost =
    Hlts_util.Listx.sum_by
      (fun a ->
        let x1, y1 = center a.Etpn.a_src and x2, y2 = center a.Etpn.a_dst in
        let len = abs_float (x1 -. x2) +. abs_float (y1 -. y2) in
        let wid =
          match Etpn.node etpn a.Etpn.a_dst with
          | Etpn.Cond_out _ -> Module_library.wire_width ~bits:1
          | Etpn.Reg _ | Etpn.Fu _ | Etpn.Port_in _ | Etpn.Port_out _
          | Etpn.Const _ -> Module_library.wire_width ~bits
        in
        len *. wid)
      etpn.Etpn.arcs
  in
  {
    Floorplan.cell_area;
    wire_cost;
    total = cell_area +. wire_cost;
    placement = List.map (fun id -> (id, center id)) ids;
  }

(* ETPNs the planner sees in practice: random DFGs under the default
   (one node per value/op) binding, a left-edge allocation, and the
   design Algorithm 1 ends with. *)
let etpn_of (seed, ops, binding) =
  let d = B.random ~seed ~ops in
  match binding with
  | 0 ->
    let s = asap d in
    Etpn.build_exn d s (Binding.default d)
  | 1 ->
    let s = asap d in
    Etpn.build_exn d s (Binding.allocate d s)
  | _ -> Hlts_synth.State.etpn (Hlts_synth.Synth.run d).Hlts_synth.Synth.final

let show r =
  Printf.sprintf "total=%h cells=%h wires=%h placement=%s" r.Floorplan.total
    r.Floorplan.cell_area r.Floorplan.wire_cost
    (String.concat ";"
       (List.map
          (fun (id, (x, y)) -> Printf.sprintf "%d:%h,%h" id x y)
          r.Floorplan.placement))

let prop_plan_matches_reference =
  QCheck.Test.make ~name:"plan = reference planner (bit-identical)" ~count:60
    QCheck.(
      quad (int_range 1 10_000) (int_range 3 40) (int_bound 2)
        (oneofl [ 4; 8; 16 ]))
    (fun (seed, ops, binding, bits) ->
      (* Algorithm 1 runs are kept small so the property stays quick *)
      let ops = if binding = 2 then min ops 16 else ops in
      let etpn = etpn_of (seed, ops, binding) in
      let fast = show (Floorplan.plan etpn ~bits)
      and slow = show (reference_plan etpn ~bits) in
      if fast <> slow then
        QCheck.Test.fail_reportf "seed %d ops %d binding %d bits %d:\n%s\n%s"
          seed ops binding bits fast slow;
      true)

let prop_wire_cost_nonnegative =
  QCheck.Test.make ~name:"wire cost >= 0" ~count:20
    QCheck.(pair (int_bound (List.length B.all - 1)) (int_range 2 32))
    (fun (i, bits) ->
      let _, d = List.nth B.all i in
      let r = Floorplan.plan (build d) ~bits in
      r.Floorplan.wire_cost >= 0.0)

let () =
  Alcotest.run "hlts_floorplan"
    [
      ( "library",
        [ Alcotest.test_case "scaling" `Quick test_library_scaling ] );
      ( "plan",
        [
          Alcotest.test_case "all benchmarks" `Quick test_plan_everywhere;
          Alcotest.test_case "no collisions" `Quick test_no_slot_collisions;
          Alcotest.test_case "grows with bits" `Quick test_area_grows_with_bits;
          Alcotest.test_case "paper scale" `Quick test_paper_scale;
          Alcotest.test_case "sharing reduces cells" `Quick test_sharing_reduces_cells;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          QCheck_alcotest.to_alcotest prop_wire_cost_nonnegative;
          QCheck_alcotest.to_alcotest prop_plan_matches_reference;
        ] );
    ]
