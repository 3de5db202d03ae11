(** Variable lifetime analysis under a schedule (Algorithm 1 line 13).

    Register-transfer timing: a value produced at control step [d] is
    loaded into its register at the end of step [d] and occupies it from
    step [d+1] through its last reading step. A primary input is loaded
    from its port just before its first use (so staged inputs can share a
    register); primary outputs have a virtual final read at step
    [length+1]. Lifetimes are half-open intervals
    [\[birth, death)] of occupied steps; two values may share a register
    iff their intervals do not overlap — a value read at step [s] is
    compatible with one written at the end of [s]. *)

type interval = {
  birth : int;  (** first step the register is occupied; def step + 1 *)
  death : int;  (** exclusive: last reading step + 1 *)
}

val of_schedule :
  Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> (Hlts_dfg.Dfg.value * interval) list
(** Lifetime of every storage value, in {!Hlts_dfg.Dfg.values} order.
    The schedule-independent facts (each value's readers, whether it
    is an output) are indexed once per DFG ({!Hlts_dfg.Dfg.memo}) and
    the schedule length once per call. *)

val interval_of :
  Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> Hlts_dfg.Dfg.value -> interval
(** One value's lifetime, derived from scratch (an O(ops) scan): the
    reference {!of_schedule} and {!occupancy} are tested against. *)

val occupancy : Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> int
(** Total register occupancy: the sum of all interval lengths. Equal to
    summing [death - birth] over {!of_schedule}, in one pass (the SR2
    trial metric of the merge engine). Reported as the
    [lifetime.occupancy] span. *)

val overlap : interval -> interval -> bool

val disjoint_set : interval list -> bool
(** True iff the intervals are pairwise non-overlapping. *)
