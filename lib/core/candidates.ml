module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Binding = Hlts_alloc.Binding
module Etpn = Hlts_etpn.Etpn
module Testability = Hlts_testability.Testability

type pair =
  | Units of int * int
  | Registers of int * int

type strategy =
  | Balance
  | Connectivity

module IntSet = Set.Make (Int)

(* Per-node neighbourhoods of the data path, computed once per scoring
   pass from the ETPN index: [sources.(id)] = distinct arc sources
   feeding node [id], [sinks.(id)] = distinct arc destinations it feeds.
   The pool scoring below probes these for every candidate pair
   (O(pairs) set intersections). *)
type neighbourhoods = {
  sources : IntSet.t array;
  sinks : IntSet.t array;
}

let neighbourhoods etpn =
  let n = List.length etpn.Etpn.nodes in
  let ends arcs_of endpoint =
    Array.init n (fun id ->
        List.fold_left
          (fun set a -> IntSet.add (endpoint a) set)
          IntSet.empty (arcs_of etpn id))
  in
  {
    sources = ends Etpn.in_arcs (fun a -> a.Etpn.a_src);
    sinks = ends Etpn.out_arcs (fun a -> a.Etpn.a_dst);
  }

(* Self-loops a merger would create: a register feeding one partner and
   fed by the other becomes a register-unit-register loop (for unit
   pairs), and symmetrically for register pairs through a shared unit.
   §3 of the paper asks for "as few loops as possible". *)
let new_self_loops nb a b =
  let inter x y = IntSet.cardinal (IntSet.inter x y) in
  inter nb.sources.(a) nb.sinks.(b) + inter nb.sources.(b) nb.sinks.(a)

let closeness nb a b =
  let inter x y = IntSet.cardinal (IntSet.inter x y) in
  let direct =
    if IntSet.mem b nb.sinks.(a) || IntSet.mem a nb.sinks.(b) then 1 else 0
  in
  float_of_int
    (inter nb.sources.(a) nb.sources.(b) + inter nb.sinks.(a) nb.sinks.(b) + direct)

let all_scored state t strategy =
  let etpn = Testability.etpn t in
  let nb = neighbourhoods etpn in
  let binding = state.State.binding in
  let score a b =
    match strategy with
    | Balance ->
      (* balance principle, discounted by the loops the merger creates *)
      Testability.balance_score t a b
      -. (0.5 *. float_of_int (new_self_loops nb a b))
    | Connectivity -> closeness nb a b
  in
  let unit_pairs =
    (* each unit's operation kinds, once per pass rather than per pair *)
    let with_kinds =
      List.map
        (fun fu ->
          ( fu,
            List.map
              (fun id -> (Dfg.op_by_id state.State.dfg id).Dfg.kind)
              fu.Binding.fu_ops ))
        binding.Binding.fus
    in
    List.filter_map
      (fun ((f, kf), (g, kg)) ->
        if Op.shared_class (kf @ kg) <> None then
          let na = Etpn.node_id_of_fu etpn f.Binding.fu_id in
          let nb = Etpn.node_id_of_fu etpn g.Binding.fu_id in
          Some (Units (f.Binding.fu_id, g.Binding.fu_id), score na nb)
        else None)
      (Hlts_util.Listx.pairs with_kinds)
  in
  let register_pairs =
    List.map
      (fun (r, s) ->
        let na = Etpn.node_id_of_reg etpn r.Binding.reg_id in
        let nb = Etpn.node_id_of_reg etpn s.Binding.reg_id in
        (Registers (r.Binding.reg_id, s.Binding.reg_id), score na nb))
      (Hlts_util.Listx.pairs binding.Binding.registers)
  in
  List.sort
    (fun (_, s1) (_, s2) -> compare s2 s1)
    (unit_pairs @ register_pairs)

let select state t strategy ~k =
  List.map fst (Hlts_util.Listx.take k (all_scored state t strategy))
