module Dfg = Hlts_dfg.Dfg
module Constraints = Hlts_sched.Constraints
module Schedule = Hlts_sched.Schedule
module Basic = Hlts_sched.Basic
module Binding = Hlts_alloc.Binding
module Etpn = Hlts_etpn.Etpn

(* Derived views of a state (the ETPN, its critical path E and the
   floorplanned area H) are pure functions of (dfg, schedule, binding),
   so each state computes them at most once: the ETPN and E are lazy,
   the area is memoized per bit width (an assoc list — callers rarely
   query more than one or two widths per state, but interleaving widths
   must not thrash the memo). The caches are created by [make] and thus
   invalidated simply by [with_constraints]/[with_binding] building a
   fresh state. During one Algorithm-1 iteration every merge attempt
   re-reads the *pre-merge* state's E and H — with the memo they are
   computed once per iteration instead of once per attempt. *)
type caches = {
  etpn_c : Etpn.t Lazy.t;
  etime_c : int Lazy.t;
  analysis_c : Hlts_testability.Testability.t Lazy.t;
  mutable area_c : (int * float) list;  (* bits -> mm2, every width seen *)
}

type t = {
  dfg : Dfg.t;
  cons : Constraints.t;
  schedule : Schedule.t;
  binding : Binding.t;
  caches : caches;
}

let make ?etime ?(area = []) ~dfg ~cons ~schedule ~binding () =
  let etpn_c = lazy (Etpn.build_exn dfg schedule binding) in
  let etime_c =
    match etime with
    | Some e -> Lazy.from_val e
    | None -> lazy (Etpn.execution_time (Lazy.force etpn_c))
  in
  let analysis_c =
    lazy (Hlts_testability.Testability.analyze (Lazy.force etpn_c))
  in
  {
    dfg;
    cons;
    schedule;
    binding;
    caches = { etpn_c; etime_c; analysis_c; area_c = area };
  }

let init dfg =
  let cons = Constraints.of_dfg dfg in
  make ~dfg ~cons ~schedule:(Basic.asap_exn cons)
    ~binding:(Binding.default dfg) ()

let etpn t = Lazy.force t.caches.etpn_c

let execution_time t = Lazy.force t.caches.etime_c

let analysis t = Lazy.force t.caches.analysis_c

let area t ~bits =
  match List.assoc_opt bits t.caches.area_c with
  | Some h -> h
  | None ->
    let h = Hlts_floorplan.Floorplan.area (etpn t) ~bits in
    t.caches.area_c <- (bits, h) :: t.caches.area_c;
    h

let with_constraints t cons =
  match Basic.asap cons with
  | Error _ -> None
  | Ok schedule ->
    Some (make ~dfg:t.dfg ~cons ~schedule ~binding:t.binding ())

let with_binding t binding =
  make ~dfg:t.dfg ~cons:t.cons ~schedule:t.schedule ~binding ()

let consistent t =
  Hlts_obs.span ~cat:"state" "state.validate" @@ fun _ ->
  Schedule.respects t.dfg t.schedule
  && List.for_all
       (fun (a, b) -> Schedule.step t.schedule a < Schedule.step t.schedule b)
       (Constraints.extra_arcs t.cons)
  && Result.is_ok (Binding.validate t.dfg t.schedule t.binding)
