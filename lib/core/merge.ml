module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Constraints = Hlts_sched.Constraints
module Schedule = Hlts_sched.Schedule
module Basic = Hlts_sched.Basic
module Binding = Hlts_alloc.Binding
module Lifetime = Hlts_alloc.Lifetime

type outcome = {
  state : State.t;
  delta_e : int;
  delta_h : float;
  description : string;
}

(* SR2 trial metric: total register occupancy (sum of lifetime lengths)
   first — compact lifetimes enable the register mergers SR1 wants — then
   the critical-path length as the paper's fallback. The trial reschedule
   reuses the constraint set's shared adjacency/reachability index, and
   occupancy is a single pass ({!Lifetime.occupancy}); the schedule is
   returned alongside so [decide] can defer the critical-path fallback
   until occupancy alone fails to decide the comparison. *)
let order_metric dfg cons =
  Hlts_obs.count "sched.reschedule_attempts";
  match Basic.asap cons with
  | Error _ -> None
  | Ok sched -> Some (Lifetime.occupancy dfg sched, sched)

(* Chooses between first-[a] and first-[b] for two unordered items, given
   a function producing the trial constraint set for each order. Returns
   [`A], [`B], or [`Stuck] when neither order is feasible. Equivalent to
   comparing [(occupancy, length)] lexicographically with [<=], but the
   lengths are only computed on an occupancy tie. Sets [sr2] when the
   occupancy metric — the SR2 enhancement strategy proper — decided a
   head-to-head; forced orders and the critical-path fallback leave it,
   so a merger whose every choice was forced reports as plain SR1. *)
let decide ~sr2 dfg trial_a trial_b =
  let ma = Option.bind trial_a (order_metric dfg) in
  let mb = Option.bind trial_b (order_metric dfg) in
  match ma, mb with
  | None, None -> `Stuck
  | Some _, None -> `A
  | None, Some _ -> `B
  | Some (oa, sa), Some (ob, sb) ->
    if oa < ob then begin
      sr2 := true;
      `A
    end
    else if ob < oa then begin
      sr2 := true;
      `B
    end
    else if Schedule.length sa <= Schedule.length sb then `A
    else `B

(* --- module merger ----------------------------------------------------- *)

(* Appends [x] to the emitted chain: adds prev -> x unless already
   implied. *)
let chain_arc cons prev x =
  match prev with
  | None -> Some cons
  | Some p ->
    if Constraints.reachable cons p x then Some cons
    else if Constraints.would_cycle cons p x then None
    else Some (Constraints.add_arc cons p x)

let try_arc cons a b =
  if Constraints.reachable cons a b then Some cons
  else if Constraints.would_cycle cons a b then None
  else Some (Constraints.add_arc cons a b)

(* Merge-sorts two operation chains into one total order, accumulating
   chain arcs; the head-to-head decision is SR2. *)
let merge_op_chains ~sr2 dfg cons chain_a chain_b =
  let rec loop cons emitted prev xs ys =
    match xs, ys with
    | [], [] -> Some (cons, List.rev emitted)
    | x :: rest, [] | [], x :: rest -> begin
      match chain_arc cons prev x with
      | None -> None
      | Some cons -> loop cons (x :: emitted) (Some x) rest []
    end
    | a :: rest_a, b :: rest_b ->
      let fwd = Constraints.reachable cons a b in
      let bwd = Constraints.reachable cons b a in
      let take side =
        let x, xs', ys' =
          match side with
          | `A -> (a, rest_a, b :: rest_b)
          | `B -> (b, a :: rest_a, rest_b)
        in
        match chain_arc cons prev x with
        | None -> None
        | Some cons -> loop cons (x :: emitted) (Some x) xs' ys'
      in
      if fwd && bwd then None
      else if fwd then take `A
      else if bwd then take `B
      else begin
        let with_prev c x =
          match chain_arc c prev x with None -> None | Some c -> Some (c, x)
        in
        let trial first second =
          match with_prev cons first with
          | None -> None
          | Some (c, _) -> try_arc c first second
        in
        match decide ~sr2 dfg (trial a b) (trial b a) with
        | `Stuck -> None
        | (`A | `B) as side -> take side
      end
  in
  loop cons [] None chain_a chain_b

let renumber_fus fus = List.mapi (fun i fu -> { fu with Binding.fu_id = i }) fus

let renumber_regs regs =
  List.mapi (fun i r -> { r with Binding.reg_id = i }) regs

let commit state ~bits ~sr2 cons binding description =
  match State.with_constraints state cons with
  | None -> None
  | Some state' ->
    let state' = State.with_binding state' binding in
    if not (State.consistent state') then None
    else begin
      let delta_e = State.execution_time state' - State.execution_time state in
      let delta_h = State.area state' ~bits -. State.area state ~bits in
      if Hlts_obs.enabled () then
        Hlts_obs.journal
          (Hlts_obs.Journal.Reschedule
             {
               strategy = (if !sr2 then Hlts_obs.Journal.SR2 else Hlts_obs.Journal.SR1);
               moved_ops = Schedule.diff state.State.schedule state'.State.schedule;
             });
      Some { state = state'; delta_e; delta_h; description }
    end

let modules state ~bits fa fb =
  if fa = fb then None
  else begin
    let binding = state.State.binding in
    let fu_a = List.find (fun f -> f.Binding.fu_id = fa) binding.Binding.fus in
    let fu_b = List.find (fun f -> f.Binding.fu_id = fb) binding.Binding.fus in
    let kinds ops =
      List.map (fun id -> (Dfg.op_by_id state.State.dfg id).Dfg.kind) ops
    in
    match Op.shared_class (kinds (fu_a.Binding.fu_ops @ fu_b.Binding.fu_ops)) with
    | None -> None
    | Some cls ->
      let by_step ops =
        List.sort
          (fun x y ->
            compare (Schedule.step state.State.schedule x, x)
              (Schedule.step state.State.schedule y, y))
          ops
      in
      let chain_a = by_step fu_a.Binding.fu_ops in
      let chain_b = by_step fu_b.Binding.fu_ops in
      let sr2 = ref false in
      match
        Hlts_obs.span ~cat:"merge" "merge.chains" (fun _ ->
            merge_op_chains ~sr2 state.State.dfg state.State.cons chain_a chain_b)
      with
      | None -> None
      | Some (cons, emitted) ->
        let merged = { Binding.fu_id = 0; fu_class = cls; fu_ops = emitted } in
        let others =
          List.filter
            (fun f -> f.Binding.fu_id <> fa && f.Binding.fu_id <> fb)
            binding.Binding.fus
        in
        let binding' =
          { binding with Binding.fus = renumber_fus (merged :: others) }
        in
        let description =
          Printf.sprintf "merge units %s{%s} + %s{%s}"
            (Op.class_name fu_a.Binding.fu_class)
            (String.concat "," (List.map (Printf.sprintf "N%d") fu_a.Binding.fu_ops))
            (Op.class_name fu_b.Binding.fu_class)
            (String.concat "," (List.map (Printf.sprintf "N%d") fu_b.Binding.fu_ops))
        in
        commit state ~bits ~sr2 cons binding' description
  end

(* --- register merger ---------------------------------------------------- *)

(* Constraint arcs forcing value [u] to expire before value [w] is
   created (§4.3.2). [None] if structurally impossible. *)
let expire_before dfg cons u w =
  if Dfg.is_output dfg u then None
  else begin
    let sources =
      match Dfg.uses_of_value dfg u with
      | [] -> (match u with Dfg.V_op id -> Some [ id ] | Dfg.V_input _ -> None)
      | uses -> Some uses
    in
    let targets =
      match w with
      | Dfg.V_op id -> Some [ id ]
      | Dfg.V_input _ -> (
        match Dfg.uses_of_value dfg w with
        | [] -> None (* unused input: load time is not constrainable *)
        | uses -> Some uses)
    in
    match sources, targets with
    | None, _ | _, None -> None
    | Some sources, Some targets ->
      let add cons_opt (s, t) =
        match cons_opt with
        | None -> None
        | Some cons -> try_arc cons s t
      in
      List.fold_left add (Some cons)
        (List.concat_map (fun s -> List.map (fun t -> (s, t)) targets) sources)
  end

let merge_value_chains ~sr2 dfg cons chain_a chain_b =
  let rec loop cons emitted prev xs ys =
    let emit cons x =
      match prev with
      | None -> Some cons
      | Some p -> expire_before dfg cons p x
    in
    match xs, ys with
    | [], [] -> Some (cons, List.rev emitted)
    | x :: rest, [] | [], x :: rest -> begin
      match emit cons x with
      | None -> None
      | Some cons -> loop cons (x :: emitted) (Some x) rest []
    end
    | a :: rest_a, b :: rest_b ->
      let take side =
        let x, xs', ys' =
          match side with
          | `A -> (a, rest_a, b :: rest_b)
          | `B -> (b, a :: rest_a, rest_b)
        in
        match emit cons x with
        | None -> None
        | Some cons -> loop cons (x :: emitted) (Some x) xs' ys'
      in
      let trial first second =
        match emit cons first with
        | None -> None
        | Some c -> expire_before dfg c first second
      in
      (match decide ~sr2 dfg (trial a b) (trial b a) with
      | `Stuck -> None
      | (`A | `B) as side -> take side)
  in
  loop cons [] None chain_a chain_b

let registers state ~bits ra rb =
  if ra = rb then None
  else begin
    let dfg = state.State.dfg in
    let binding = state.State.binding in
    let reg_a = List.find (fun r -> r.Binding.reg_id = ra) binding.Binding.registers in
    let reg_b = List.find (fun r -> r.Binding.reg_id = rb) binding.Binding.registers in
    (* birth keys computed once per value; the sort is stable, so equal
       births keep their register order *)
    let by_birth values =
      List.map
        (fun v ->
          ((Lifetime.interval_of dfg state.State.schedule v).Lifetime.birth, v))
        values
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    in
    let chain_a = by_birth reg_a.Binding.reg_values in
    let chain_b = by_birth reg_b.Binding.reg_values in
    let sr2 = ref false in
    match
      Hlts_obs.span ~cat:"merge" "merge.chains" (fun _ ->
          merge_value_chains ~sr2 dfg state.State.cons chain_a chain_b)
    with
    | None -> None
    | Some (cons, emitted) ->
      let merged = { Binding.reg_id = 0; reg_values = emitted } in
      let others =
        List.filter
          (fun r -> r.Binding.reg_id <> ra && r.Binding.reg_id <> rb)
          binding.Binding.registers
      in
      let binding' =
        { binding with Binding.registers = renumber_regs (merged :: others) }
      in
      let name v = Dfg.value_name dfg v in
      let description =
        Printf.sprintf "merge registers {%s} + {%s}"
          (String.concat "," (List.map name reg_a.Binding.reg_values))
          (String.concat "," (List.map name reg_b.Binding.reg_values))
      in
      commit state ~bits ~sr2 cons binding' description
  end
