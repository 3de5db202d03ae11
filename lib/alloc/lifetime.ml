module Dfg = Hlts_dfg.Dfg
module Schedule = Hlts_sched.Schedule

type interval = {
  birth : int;
  death : int;
}

(* What the interval of one value needs of the DFG: who reads it and
   whether it leaves the design. Pure DFG facts, independent of the
   schedule. *)
type reads = {
  value : Dfg.value;
  readers : int list;
  is_out : bool;
}

(* The interval of one value under [sched], whose length is [len]:
   born the step after its definition (an input: the step before its
   first use), dead the step after its last read, a primary output
   read once more at [len + 1]. *)
let interval_at sched ~len r =
  let def_step =
    match r.value with
    | Dfg.V_input _ ->
      (* inputs are loaded from their port just before their first use, so
         several staged inputs can share one register *)
      List.fold_left
        (fun acc use -> min acc (Schedule.step sched use))
        (len + 1) r.readers
      - 1
    | Dfg.V_op id -> Schedule.step sched id
  in
  let birth = def_step + 1 in
  let last_use =
    List.fold_left
      (fun acc use -> max acc (Schedule.step sched use))
      (if r.is_out then max def_step (len + 1) else def_step)
      r.readers
  in
  (* A value with no reader still occupies its register for one step. *)
  { birth; death = max (last_use + 1) (birth + 1) }

(* The lifetime rule spelled out for one value: the readers rescanned
   from the op list, the schedule length refolded. The whole-design
   passes below use the hoisted [interval_at] instead; this one-value
   query is also the simple oracle they are tested against. *)
let interval_of dfg sched v =
  let uses_of = Dfg.uses_of_value dfg in
  let def_step =
    match v with
    | Dfg.V_input _ ->
      let first_use =
        List.fold_left
          (fun acc use -> min acc (Schedule.step sched use))
          (Schedule.length sched + 1)
          (uses_of v)
      in
      first_use - 1
    | Dfg.V_op id -> Schedule.step sched id
  in
  let birth = def_step + 1 in
  let uses = List.map (Schedule.step sched) (uses_of v) in
  let uses =
    if Dfg.is_output dfg v then (Schedule.length sched + 1) :: uses else uses
  in
  let last_use = List.fold_left max def_step uses in
  { birth; death = max (last_use + 1) (birth + 1) }

(* Every value's [reads], in [Dfg.values] order, built once per DFG:
   the per-value scans are paid once per design, not once per
   schedule. *)
let reads_of =
  Dfg.memo (fun dfg ->
      List.map
        (fun v ->
          {
            value = v;
            readers = Dfg.uses_of_value dfg v;
            is_out = Dfg.is_output dfg v;
          })
        (Dfg.values dfg))

let of_schedule dfg sched =
  let len = Schedule.length sched in
  List.map (fun r -> (r.value, interval_at sched ~len r)) (reads_of dfg)

let occupancy dfg sched =
  Hlts_obs.span ~cat:"lifetime" "lifetime.occupancy" @@ fun _ ->
  let len = Schedule.length sched in
  List.fold_left
    (fun acc r ->
      let iv = interval_at sched ~len r in
      acc + (iv.death - iv.birth))
    0 (reads_of dfg)

let overlap a b = a.birth < b.death && b.birth < a.death

let disjoint_set intervals =
  let sorted = List.sort (fun a b -> compare (a.birth, a.death) (b.birth, b.death)) intervals in
  let rec check = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.death <= b.birth && check rest
  in
  check sorted
