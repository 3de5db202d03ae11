module Etpn = Hlts_etpn.Etpn
module Binding = Hlts_alloc.Binding
module Op = Hlts_dfg.Op

type measures = {
  cc : float;
  sc : float;
  co : float;
  so : float;
}

(* Analyses are immutable once [analyze] returns, so one analysis can
   be read from several domains; every node's measures are tabulated
   there, indexed by node id (ETPN node ids are dense). *)
type t = {
  etpn : Etpn.t;
  measures : measures array;
}

(* Combinational transfer factors: how much controllability survives a
   pass through a unit of the given operation. Multiplication is the
   hardest structure to control and observe through; comparisons compress
   n bits to 1. *)
let ctf = function
  | Op.Add | Op.Sub -> 0.95
  | Op.Mul -> 0.65
  | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Eq | Op.Ne -> 0.55
  | Op.And | Op.Or -> 0.80
  | Op.Xor -> 0.95

let otf = function
  | Op.Add | Op.Sub -> 0.95
  | Op.Mul -> 0.60
  | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Eq | Op.Ne -> 0.45
  | Op.And | Op.Or -> 0.75
  | Op.Xor -> 0.95

(* A shared unit is as hard to drive values through as its hardest
   operation class. *)
let class_kind = function
  | Op.Fu_adder -> Op.Add
  | Op.Fu_subtractor -> Op.Sub
  | Op.Fu_multiplier -> Op.Mul
  | Op.Fu_comparator -> Op.Lt
  | Op.Fu_logic -> Op.And
  | Op.Fu_alu -> Op.Add

let fu_ctf fu = ctf (class_kind fu.Binding.fu_class)
let fu_otf fu = otf (class_kind fu.Binding.fu_class)

let register_factor = 0.98
let const_cc = 0.15
let cond_co = 0.85
let big = infinity

let analyze etpn =
  Hlts_obs.span ~cat:"testability" "testability.analyze" @@ fun sp ->
  let nodes = etpn.Etpn.nodes in
  let n = List.length nodes in
  Hlts_obs.set sp "nodes" (Hlts_obs.Int n);
  Hlts_obs.count "testability.analyses";
  (* by node id: controllability of a node's output, observability of
     its content *)
  let out_cc = Array.make n 0.0 and out_sc = Array.make n big in
  let node_co = Array.make n 0.0 and node_so = Array.make n big in
  List.iter
    (fun (id, nd) ->
      let cc0, sc0 =
        match nd with
        | Etpn.Port_in _ -> (1.0, 0.0)
        | Etpn.Const _ -> (const_cc, 0.0)
        | Etpn.Port_out _ | Etpn.Cond_out _ | Etpn.Reg _ | Etpn.Fu _ ->
          (0.0, big)
      in
      let co0, so0 =
        match nd with
        | Etpn.Port_out _ -> (1.0, 0.0)
        | Etpn.Cond_out _ -> (cond_co, 0.0)
        | Etpn.Port_in _ | Etpn.Const _ | Etpn.Reg _ | Etpn.Fu _ -> (0.0, big)
      in
      out_cc.(id) <- cc0;
      out_sc.(id) <- sc0;
      node_co.(id) <- co0;
      node_so.(id) <- so0)
    nodes;
  let port_cc srcs = List.fold_left (fun acc s -> max acc out_cc.(s)) 0.0 srcs in
  let port_sc srcs = List.fold_left (fun acc s -> min acc out_sc.(s)) big srcs in
  (* arc sources per node, all of them and per unit port, in arc order *)
  let sources_where keep =
    Array.init n (fun id ->
        List.filter_map
          (fun a -> if keep a then Some a.Etpn.a_src else None)
          (Etpn.in_arcs etpn id))
  in
  let sources = sources_where (fun _ -> true) in
  let left = sources_where (fun a -> a.Etpn.a_port = Some Etpn.P_left) in
  let right = sources_where (fun a -> a.Etpn.a_port = Some Etpn.P_right) in

  (* ---- forward relaxation: CC up, SC down, until stable ---- *)
  let forward_once () =
    let changed = ref false in
    let update id cc sc =
      if cc > out_cc.(id) +. 1e-12 then begin
        out_cc.(id) <- cc;
        changed := true
      end;
      if sc < out_sc.(id) -. 1e-12 then begin
        out_sc.(id) <- sc;
        changed := true
      end
    in
    List.iter
      (fun (id, nd) ->
        match nd with
        | Etpn.Reg _ ->
          let srcs = sources.(id) in
          if srcs <> [] then
            update id (register_factor *. port_cc srcs) (1.0 +. port_sc srcs)
        | Etpn.Fu fu ->
          let left = left.(id) and right = right.(id) in
          if left <> [] && right <> [] then
            update id
              (fu_ctf fu *. min (port_cc left) (port_cc right))
              (max (port_sc left) (port_sc right))
        | Etpn.Cond_out _ | Etpn.Port_out _ ->
          let srcs = sources.(id) in
          if srcs <> [] then update id (port_cc srcs) (port_sc srcs)
        | Etpn.Port_in _ | Etpn.Const _ -> ())
      nodes;
    !changed
  in

  (* ---- backward relaxation: CO up, SO down ----
     The observability a node gains through one of its outgoing arcs
     depends on the destination: a register delays by one step; a
     functional-unit input is observable if the unit output is and the
     opposite port can be controlled. *)
  let arc_obs a =
    let dst = a.Etpn.a_dst in
    match Etpn.node etpn dst with
    | Etpn.Port_out _ -> (1.0, 0.0)
    | Etpn.Cond_out _ -> (cond_co, 0.0)
    | Etpn.Reg _ -> (register_factor *. node_co.(dst), 1.0 +. node_so.(dst))
    | Etpn.Fu fu -> (
      (* observing through the unit needs the opposite port controlled:
         CO is discounted by its controllability, SO pays its
         sequential set-up cost *)
      let obs_through other =
        let co = fu_otf fu *. node_co.(dst) *. port_cc other in
        (co, node_so.(dst) +. port_sc other)
      in
      match a.Etpn.a_port with
      | Some Etpn.P_left -> obs_through right.(dst)
      | Some Etpn.P_right -> obs_through left.(dst)
      | None -> (0.0, big))
    | Etpn.Port_in _ | Etpn.Const _ -> (0.0, big)
  in
  let backward_once () =
    let changed = ref false in
    let update id co so =
      if co > node_co.(id) +. 1e-12 then begin
        node_co.(id) <- co;
        changed := true
      end;
      if so < node_so.(id) -. 1e-12 then begin
        node_so.(id) <- so;
        changed := true
      end
    in
    List.iter
      (fun (id, nd) ->
        match nd with
        | Etpn.Port_out _ | Etpn.Cond_out _ -> ()
        | Etpn.Port_in _ | Etpn.Const _ | Etpn.Reg _ | Etpn.Fu _ ->
          let arcs = Etpn.out_arcs etpn id in
          if arcs <> [] then begin
            (* one [arc_obs] per arc feeds both folds, in arc order *)
            let co = ref 0.0 and so = ref big in
            List.iter
              (fun a ->
                let c, s = arc_obs a in
                co := max !co c;
                so := min !so s)
              arcs;
            update id !co !so
          end)
      nodes;
    !changed
  in
  let rec run pass budget =
    if budget > 0 && pass () then run pass (budget - 1)
  in
  let rounds = (4 * n) + 16 in
  run forward_once rounds;
  run backward_once rounds;
  (* Node controllability: the best controllability of any input line
     (§3 of the paper); sources' output measures are the line measures.
     Source-less nodes use their own output measures. *)
  let measures =
    Array.init n (fun id ->
        let cc, sc =
          match sources.(id) with
          | [] -> (out_cc.(id), out_sc.(id))
          | srcs -> (port_cc srcs, port_sc srcs)
        in
        { cc; sc; co = node_co.(id); so = node_so.(id) })
  in
  { etpn; measures }

let etpn t = t.etpn

let node_measures t id =
  if id >= 0 && id < Array.length t.measures then t.measures.(id)
  else raise Not_found

let by_kind t keep =
  List.filter_map
    (fun (id, n) ->
      match keep n with
      | Some key -> Some (key, t.measures.(id))
      | None -> None)
    t.etpn.Etpn.nodes

let register_measures t =
  by_kind t (function
    | Etpn.Reg r -> Some r.Binding.reg_id
    | Etpn.Fu _ | Etpn.Port_in _ | Etpn.Port_out _ | Etpn.Cond_out _
    | Etpn.Const _ -> None)

let fu_measures t =
  by_kind t (function
    | Etpn.Fu fu -> Some fu.Binding.fu_id
    | Etpn.Reg _ | Etpn.Port_in _ | Etpn.Port_out _ | Etpn.Cond_out _
    | Etpn.Const _ -> None)

let clamp_seq x n = if x = big || x > float_of_int (4 * n) then float_of_int (4 * n) else x

let seq_depth_total t =
  let regs = register_measures t in
  let n = max 1 (List.length regs) in
  Hlts_util.Listx.sum_by
    (fun (_, m) -> clamp_seq m.sc n +. clamp_seq m.so n)
    regs

let balance_score t u v =
  let mu = node_measures t u and mv = node_measures t v in
  let merged = min (max mu.cc mv.cc) (max mu.co mv.co) in
  let before = (min mu.cc mu.co +. min mv.cc mv.co) /. 2.0 in
  merged -. before

let testability_cost t =
  let all = List.map (fun (id, _) -> t.measures.(id)) t.etpn.Etpn.nodes in
  let n = max 1 (List.length all) in
  Hlts_util.Listx.sum_by
    (fun m ->
      (1.0 -. m.cc) +. (1.0 -. m.co)
      +. (0.05 *. (clamp_seq m.sc n +. clamp_seq m.so n)))
    all

let pp_measures ppf m =
  Format.fprintf ppf "CC=%.3f SC=%s CO=%.3f SO=%s" m.cc
    (if m.sc = big then "inf" else Printf.sprintf "%.1f" m.sc)
    m.co
    (if m.so = big then "inf" else Printf.sprintf "%.1f" m.so)
