module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op

let ids_of cons = List.map (fun o -> o.Dfg.id) (Constraints.dfg cons).Dfg.ops

let asap cons =
  Hlts_obs.span ~cat:"reschedule" "sched.asap" @@ fun _ ->
  if not (Constraints.is_acyclic cons) then Error "cyclic constraints"
  else begin
    (* by dense index; 0 = not yet computed (every step is >= 1) *)
    let steps = Array.make (Constraints.size cons) 0 in
    let rec step_of i =
      if steps.(i) > 0 then steps.(i)
      else begin
        let s =
          1 + Constraints.fold_preds_ix cons i (fun acc p -> max acc (step_of p)) 0
        in
        steps.(i) <- s;
        s
      end
    in
    Ok
      (Schedule.of_assoc
         (List.init (Array.length steps) (fun i ->
              (Constraints.id_at cons i, step_of i))))
  end

let asap_exn cons =
  match asap cons with
  | Ok s -> s
  | Error msg -> invalid_arg ("Basic.asap: " ^ msg)

let alap cons ~latency =
  Hlts_obs.span ~cat:"reschedule" "sched.alap" @@ fun _ ->
  match asap cons with
  | Error _ as e -> e
  | Ok early ->
    if Schedule.length early > latency then
      Error
        (Printf.sprintf "latency %d below critical path %d" latency
           (Schedule.length early))
    else begin
      let steps = Hashtbl.create 16 in
      let rec step_of id =
        match Hashtbl.find_opt steps id with
        | Some s -> s
        | None ->
          let s =
            match Constraints.succs cons id with
            | [] -> latency
            | succs ->
              List.fold_left (fun acc s' -> min acc (step_of s' - 1)) max_int succs
          in
          Hashtbl.replace steps id s;
          s
      in
      Ok (Schedule.of_assoc (List.map (fun id -> (id, step_of id)) (ids_of cons)))
    end

let mobility cons ~latency =
  Hlts_obs.count "sched.mobility_recomputes";
  let early = asap_exn cons in
  match alap cons ~latency with
  | Error msg -> invalid_arg ("Basic.mobility: " ^ msg)
  | Ok late ->
    List.map
      (fun id -> (id, Schedule.step late id - Schedule.step early id))
      (ids_of cons)

(* Longest path from the operation to any sink, in ops; classic list-
   scheduling criticality. *)
let criticality cons =
  let memo = Hashtbl.create 16 in
  let rec height id =
    match Hashtbl.find_opt memo id with
    | Some h -> h
    | None ->
      let h =
        match Constraints.succs cons id with
        | [] -> 0
        | succs -> 1 + List.fold_left (fun acc s -> max acc (height s)) 0 succs
      in
      Hashtbl.replace memo id h;
      h
  in
  fun id -> height id

let list_schedule cons ~resources =
  if not (Constraints.is_acyclic cons) then Error "cyclic constraints"
  else begin
    let dfg = Constraints.dfg cons in
    let crit = criticality cons in
    let budget_for kind =
      (* the cheapest budgeted class able to run this kind *)
      List.find_opt (fun (cls, _) -> Op.supports cls kind) resources
    in
    let scheduled = Hashtbl.create 16 in
    let unscheduled = ref (List.map (fun o -> o.Dfg.id) dfg.Dfg.ops) in
    let result = ref [] in
    let step = ref 0 in
    while !unscheduled <> [] do
      incr step;
      if !step > 10_000 then invalid_arg "Basic.list_schedule: runaway";
      let in_use = Hashtbl.create 8 in
      let ready =
        List.filter
          (fun id ->
            List.for_all
              (fun p ->
                match Hashtbl.find_opt scheduled p with
                | Some s -> s < !step
                | None -> false)
              (Constraints.preds cons id))
          !unscheduled
      in
      let by_priority =
        List.sort
          (fun a b -> compare (crit b, a) (crit a, b))
          ready
      in
      let try_start id =
        let kind = (Dfg.op_by_id dfg id).Dfg.kind in
        let fits =
          match budget_for kind with
          | None -> true
          | Some (cls, limit) ->
            let used = Option.value ~default:0 (Hashtbl.find_opt in_use cls) in
            if used < limit then begin
              Hashtbl.replace in_use cls (used + 1);
              true
            end
            else false
        in
        if fits then begin
          Hashtbl.replace scheduled id !step;
          result := (id, !step) :: !result;
          unscheduled := List.filter (fun x -> x <> id) !unscheduled
        end
      in
      List.iter try_start by_priority
    done;
    Ok (Schedule.of_assoc !result)
  end
