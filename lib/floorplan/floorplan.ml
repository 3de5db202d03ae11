module Etpn = Hlts_etpn.Etpn
module Op = Hlts_dfg.Op

type result = {
  cell_area : float;
  wire_cost : float;
  total : float;
  placement : (int * (float * float)) list;
}

(* Area of one data-path block given its incoming arcs, multiplexers
   folded into the destination node that owns them. *)
let block_area node ~bits in_arcs =
  let own =
    match node with
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

module Frontier = Set.Make (Int)

(* The planner runs once per merge attempt. ETPN node ids are dense, so
   every per-node view is an array indexed by node id, node kinds and
   incoming arcs (in arc-list order) come from the ETPN index, and the
   placement keeps its free-slot frontier incrementally: placing a block
   removes its slot and adds its free 4-neighbours, instead of
   re-deriving the frontier from every occupied slot. Wire lengths to
   placed neighbours are exact small integers, so they are summed in
   [int]. *)

let plan etpn ~bits =
  Hlts_obs.span ~cat:"floorplan" "floorplan.plan" @@ fun _ ->
  let n = List.length etpn.Etpn.nodes in
  (* neighbours over the undirected interconnect: one entry per
     distinct node pair (a self-loop counts once) *)
  let degree = Array.make n 0 and adj = Array.make n [] in
  let note a b =
    degree.(a) <- degree.(a) + 1;
    adj.(a) <- b :: adj.(a)
  in
  List.iter
    (fun (a, b) -> if a = b then note a b else (note a b; note b a))
    (Etpn.interconnect etpn);
  let order =
    List.sort
      (fun a b -> compare (degree.(b), a) (degree.(a), b))
      (List.init n Fun.id)
  in
  (* Slot grid: pitch derived from the average block size so distances are
     in mm. *)
  let cell_area = ref 0.0 in
  List.iter
    (fun (id, node) ->
      cell_area := !cell_area +. block_area node ~bits (Etpn.in_arcs etpn id))
    etpn.Etpn.nodes;
  let cell_area = !cell_area in
  let pitch = sqrt (cell_area /. float_of_int (max 1 n)) in
  (* Slots stay within n of the origin, so [(i + n) * stride + j + n]
     is a non-negative key per slot whose integer order is the slots'
     row-major order. *)
  let stride = (2 * n) + 1 in
  let key i j = ((i + n) * stride) + j + n in
  let occupied = Hashtbl.create (2 * n) in
  let si = Array.make n 0 and sj = Array.make n 0 in
  let placed = Array.make n false in
  (* free slots next to a placed block, by key *)
  let frontier = ref Frontier.empty in
  let place k (i, j) =
    Hashtbl.replace occupied (key i j) ();
    si.(k) <- i;
    sj.(k) <- j;
    placed.(k) <- true;
    frontier := Frontier.remove (key i j) !frontier;
    let open_up i j =
      let c = key i j in
      if not (Hashtbl.mem occupied c) then frontier := Frontier.add c !frontier
    in
    open_up (i + 1) j;
    open_up (i - 1) j;
    open_up i (j + 1);
    open_up i (j - 1)
  in
  (* Each block goes to the frontier slot with the least Manhattan wire
     length to its placed neighbours; the first such slot in row-major
     order wins a tie. The first block starts the grid at the origin. *)
  let place_next k =
    if Frontier.is_empty !frontier then place k (0, 0)
    else begin
      let near =
        List.filter_map
          (fun m -> if placed.(m) then Some (si.(m), sj.(m)) else None)
          adj.(k)
      in
      let wire_to c =
        let i = (c / stride) - n and j = (c mod stride) - n in
        List.fold_left
          (fun acc (ni, nj) -> acc + abs (i - ni) + abs (j - nj))
          0 near
      in
      let best = ref 0 and best_len = ref max_int in
      Frontier.iter
        (fun c ->
          let len = wire_to c in
          if len < !best_len then begin
            best := c;
            best_len := len
          end)
        !frontier;
      place k ((!best / stride) - n, (!best mod stride) - n)
    end
  in
  List.iter place_next order;
  let cx = Array.init n (fun k -> float_of_int si.(k) *. pitch) in
  let cy = Array.init n (fun k -> float_of_int sj.(k) *. pitch) in
  let wire_cost =
    Hlts_util.Listx.sum_by
      (fun a ->
        let s = a.Etpn.a_src and d = a.Etpn.a_dst in
        let len = abs_float (cx.(s) -. cx.(d)) +. abs_float (cy.(s) -. cy.(d)) in
        let wid =
          match Etpn.node etpn d with
          | Etpn.Cond_out _ -> Module_library.wire_width ~bits:1
          | Etpn.Reg _ | Etpn.Fu _ | Etpn.Port_in _ | Etpn.Port_out _
          | Etpn.Const _ -> Module_library.wire_width ~bits
        in
        len *. wid)
      etpn.Etpn.arcs
  in
  {
    cell_area;
    wire_cost;
    total = cell_area +. wire_cost;
    placement = List.init n (fun id -> (id, (cx.(id), cy.(id))));
  }

let area etpn ~bits = (plan etpn ~bits).total
