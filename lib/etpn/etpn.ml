module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Schedule = Hlts_sched.Schedule
module Binding = Hlts_alloc.Binding
module Petri = Hlts_petri.Petri

type port =
  | P_left
  | P_right

type node =
  | Port_in of string
  | Port_out of string
  | Cond_out of int
  | Const of int
  | Reg of Binding.register
  | Fu of Binding.fu

type arc = {
  a_src : int;
  a_dst : int;
  a_port : port option;
  a_guards : int list;
}

module IntMap = Map.Make (Int)

(* Node ids are dense ([fresh] counts from 0, [add_observation_point]
   adds max + 1), so the per-node tables are arrays indexed by id. The
   arc lists keep [arcs] order and the register/unit maps keep the first
   matching node, so every lookup answers as the list scan it replaces.
   Nothing here is mutated once [make_index] returns. *)
type index = {
  node_of : node array;
  ins : arc list array;
  outs : arc list array;
  reg_nodes : int IntMap.t;  (* reg_id -> node id *)
  fu_nodes : int IntMap.t;   (* fu_id -> node id *)
}

type t = {
  dfg : Dfg.t;
  schedule : Schedule.t;
  binding : Binding.t;
  nodes : (int * node) list;
  arcs : arc list;
  control : Petri.t;
  index : index;
}

let make_index nodes arcs =
  List.iteri
    (fun i (id, _) -> if id <> i then invalid_arg "Etpn: node ids not dense")
    nodes;
  let node_of = Array.of_list (List.map snd nodes) in
  let n = Array.length node_of in
  let ins = Array.make n [] and outs = Array.make n [] in
  List.iter
    (fun a ->
      ins.(a.a_dst) <- a :: ins.(a.a_dst);
      outs.(a.a_src) <- a :: outs.(a.a_src))
    (List.rev arcs);
  (* folded from the back, so the first node with a key wins *)
  let first key =
    List.fold_right
      (fun (id, nd) m ->
        match key nd with Some k -> IntMap.add k id m | None -> m)
      nodes IntMap.empty
  in
  {
    node_of;
    ins;
    outs;
    reg_nodes = first (function Reg r -> Some r.Binding.reg_id | _ -> None);
    fu_nodes = first (function Fu fu -> Some fu.Binding.fu_id | _ -> None);
  }

let make dfg schedule binding nodes arcs control =
  { dfg; schedule; binding; nodes; arcs; control; index = make_index nodes arcs }

let build dfg schedule binding =
  Hlts_obs.span ~cat:"etpn" "etpn.build" @@ fun _ ->
  if not (Schedule.respects dfg schedule) then
    Error "schedule violates data dependencies"
  else
    match Binding.validate dfg schedule binding with
    | Error _ as e -> e
    | Ok () ->
      let next = ref 0 in
      let nodes = ref [] in
      let fresh n =
        let id = !next in
        incr next;
        nodes := (id, n) :: !nodes;
        id
      in
      let reg_node = Hashtbl.create 16 in
      List.iter
        (fun r -> Hashtbl.replace reg_node r.Binding.reg_id (fresh (Reg r)))
        binding.Binding.registers;
      let fu_node = Hashtbl.create 16 in
      List.iter
        (fun fu -> Hashtbl.replace fu_node fu.Binding.fu_id (fresh (Fu fu)))
        binding.Binding.fus;
      let const_node = Hashtbl.create 8 in
      let const_id c =
        match Hashtbl.find_opt const_node c with
        | Some id -> id
        | None ->
          let id = fresh (Const c) in
          Hashtbl.replace const_node c id;
          id
      in
      (* value -> register node and op -> unit node, tabulated once: the
         first holder in binding order wins, as in
         [Binding.reg_of_value] / [Binding.fu_of_op] *)
      let tabulate holders members node_of =
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun h ->
            let id = node_of h in
            List.iter
              (fun m -> if not (Hashtbl.mem tbl m) then Hashtbl.add tbl m id)
              (members h))
          holders;
        Hashtbl.find tbl
      in
      let reg_of_value =
        tabulate binding.Binding.registers
          (fun r -> r.Binding.reg_values)
          (fun r -> Hashtbl.find reg_node r.Binding.reg_id)
      in
      let fu_of_op =
        tabulate binding.Binding.fus
          (fun fu -> fu.Binding.fu_ops)
          (fun fu -> Hashtbl.find fu_node fu.Binding.fu_id)
      in
      (* Raw arcs; guards merged afterwards. *)
      let raw = ref [] in
      let arc src dst port guard = raw := (src, dst, port, guard) :: !raw in
      (* input loading: port -> register, guarded by the load step (one
         before the input's first use, see Lifetime) *)
      List.iter
        (fun name ->
          let v = Dfg.V_input name in
          let load_step =
            (Hlts_alloc.Lifetime.interval_of dfg schedule v).Hlts_alloc.Lifetime.birth
            - 1
          in
          let p = fresh (Port_in name) in
          arc p (reg_of_value v) None load_step)
        dfg.Dfg.inputs;
      (* operations: operand transfers and result store, guarded by the
         operation's control step *)
      let operand_src = function
        | Dfg.Const c -> const_id c
        | Dfg.Input name -> reg_of_value (Dfg.V_input name)
        | Dfg.Op id -> reg_of_value (Dfg.V_op id)
      in
      List.iter
        (fun o ->
          let s = Schedule.step schedule o.Dfg.id in
          let fu = fu_of_op o.Dfg.id in
          let a, b = o.Dfg.args in
          arc (operand_src a) fu (Some P_left) s;
          arc (operand_src b) fu (Some P_right) s;
          if Op.is_comparison o.Dfg.kind then
            arc fu (fresh (Cond_out o.Dfg.id)) None s
          else arc fu (reg_of_value (Dfg.V_op o.Dfg.id)) None s)
        dfg.Dfg.ops;
      (* outputs: register -> port, after the last step *)
      let out_guard = Schedule.length schedule + 1 in
      List.iter
        (fun name ->
          let v = Option.get (Dfg.value_of_name dfg name) in
          let p = fresh (Port_out name) in
          arc (reg_of_value v) p None out_guard)
        dfg.Dfg.outputs;
      (* merge guards of identical (src, dst, port) transfers *)
      let grouped =
        Hlts_util.Listx.group_by (fun (s, d, p, _) -> (s, d, p)) !raw
      in
      let arcs =
        List.map
          (fun ((a_src, a_dst, a_port), transfers) ->
            let a_guards =
              List.sort_uniq compare (List.map (fun (_, _, _, g) -> g) transfers)
            in
            { a_src; a_dst; a_port; a_guards })
          grouped
      in
      (* [fresh] conses ids in ascending order *)
      Ok
        (make dfg schedule binding (List.rev !nodes) arcs
           (Petri.chain (Schedule.length schedule)))

let build_exn dfg schedule binding =
  match build dfg schedule binding with
  | Ok t -> t
  | Error msg -> invalid_arg ("Etpn.build: " ^ msg)

let known t id = id >= 0 && id < Array.length t.index.node_of

let node t id = if known t id then t.index.node_of.(id) else raise Not_found
let node_id_of_reg t reg_id = IntMap.find reg_id t.index.reg_nodes
let node_id_of_fu t fu_id = IntMap.find fu_id t.index.fu_nodes
let in_arcs t id = if known t id then t.index.ins.(id) else []
let out_arcs t id = if known t id then t.index.outs.(id) else []

let execution_time t = Petri.execution_time t.control

let control_unrolled t ~iterations =
  assert (iterations >= 1);
  let steps = Schedule.length t.schedule in
  (* places: 0 = start; iteration i (0-based), step s (1-based) =
     1 + i*steps + (s-1); done place = 1 + iterations*steps *)
  let place_id i s = 1 + (i * steps) + (s - 1) in
  let done_id = 1 + (iterations * steps) in
  let places =
    { Petri.p_id = 0; p_name = "start"; p_delay = 0 }
    :: { Petri.p_id = done_id; p_name = "done"; p_delay = 0 }
    :: List.concat
         (List.init iterations (fun i ->
              List.init steps (fun s ->
                  {
                    Petri.p_id = place_id i (s + 1);
                    p_name = Printf.sprintf "it%d_s%d" i (s + 1);
                    p_delay = 1;
                  })))
  in
  let transitions = ref [] in
  let next_t = ref 0 in
  let trans name t_in t_out =
    incr next_t;
    transitions :=
      { Petri.t_id = !next_t; t_name = name; t_in; t_out } :: !transitions
  in
  for i = 0 to iterations - 1 do
    let first = place_id i 1 in
    (if i = 0 then trans "enter" [ 0 ] [ first ]);
    for s = 1 to steps - 1 do
      trans
        (Printf.sprintf "it%d_t%d" i s)
        [ place_id i s ]
        [ place_id i (s + 1) ]
    done;
    let last = place_id i steps in
    (* conditional choice: exit the loop, or start the next iteration *)
    trans (Printf.sprintf "exit%d" i) [ last ] [ done_id ];
    if i + 1 < iterations then
      trans (Printf.sprintf "repeat%d" i) [ last ] [ place_id (i + 1) 1 ]
  done;
  Petri.make_exn ~places ~transitions:(List.rev !transitions) ~initial:[ 0 ]

type stats = {
  n_registers : int;
  n_fus : int;
  n_mux_units : int;
  n_mux_slices : int;
  n_self_loops : int;
  n_arcs : int;
}

let stats t =
  (* A mux sits on every destination (node, port) with several sources. *)
  let destinations =
    Hlts_util.Listx.group_by (fun a -> (a.a_dst, a.a_port)) t.arcs
  in
  let fanins = List.map (fun (_, arcs) -> List.length arcs) destinations in
  let n_mux_units = List.length (List.filter (fun f -> f > 1) fanins) in
  let n_mux_slices =
    List.fold_left (fun acc f -> acc + max 0 (f - 1)) 0 fanins
  in
  let is_reg id = match node t id with Reg _ -> true | _ -> false in
  let is_fu id = match node t id with Fu _ -> true | _ -> false in
  let self_loop (fu_id, _) =
    if not (is_fu fu_id) then 0
    else begin
      let sources =
        List.filter_map
          (fun a -> if is_reg a.a_src then Some a.a_src else None)
          (in_arcs t fu_id)
      in
      let sinks =
        List.filter_map
          (fun a -> if is_reg a.a_dst then Some a.a_dst else None)
          (out_arcs t fu_id)
      in
      List.length
        (List.sort_uniq compare
           (List.filter (fun r -> List.mem r sinks) sources))
    end
  in
  {
    n_registers = List.length t.binding.Binding.registers;
    n_fus = List.length t.binding.Binding.fus;
    n_mux_units;
    n_mux_slices;
    n_self_loops =
      List.fold_left (fun acc n -> acc + self_loop n) 0 t.nodes;
    n_arcs = List.length t.arcs;
  }

let interconnect t =
  let normalize a = (min a.a_src a.a_dst, max a.a_src a.a_dst) in
  List.sort_uniq compare (List.map normalize t.arcs)

let add_observation_point t ~reg_id =
  let reg_node = node_id_of_reg t reg_id in
  let fresh = 1 + List.fold_left (fun acc (id, _) -> max acc id) 0 t.nodes in
  let port = Port_out (Printf.sprintf "tp_r%d" reg_id) in
  let arc =
    {
      a_src = reg_node;
      a_dst = fresh;
      a_port = None;
      a_guards =
        List.init (Hlts_sched.Schedule.length t.schedule + 2) Fun.id;
    }
  in
  make t.dfg t.schedule t.binding
    (t.nodes @ [ (fresh, port) ])
    (t.arcs @ [ arc ])
    t.control

let node_label t id =
  match node t id with
  | Port_in s -> Printf.sprintf "in:%s" s
  | Port_out s -> Printf.sprintf "out:%s" s
  | Cond_out op -> Printf.sprintf "cond:N%d" op
  | Const c -> Printf.sprintf "#%d" c
  | Reg r ->
    Printf.sprintf "R%d(%s)" r.Binding.reg_id
      (String.concat ","
         (List.map (Dfg.value_name t.dfg) r.Binding.reg_values))
  | Fu fu ->
    Printf.sprintf "%s%d(%s)"
      (Op.class_name fu.Binding.fu_class)
      fu.Binding.fu_id
      (String.concat "," (List.map (Printf.sprintf "N%d") fu.Binding.fu_ops))

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph etpn {\n  rankdir=LR;\n";
  List.iter
    (fun (id, n) ->
      let shape =
        match n with
        | Reg _ -> "box"
        | Fu _ -> "ellipse"
        | Const _ -> "plaintext"
        | Port_in _ | Port_out _ | Cond_out _ -> "diamond"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" id (node_label t id)
           shape))
    t.nodes;
  List.iter
    (fun a ->
      let port =
        match a.a_port with
        | Some P_left -> "L" | Some P_right -> "R" | None -> ""
      in
      let guards = String.concat "," (List.map string_of_int a.a_guards) in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s s%s\"];\n" a.a_src a.a_dst
           port guards))
    t.arcs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
