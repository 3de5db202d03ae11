(** PODEM over a time-frame-expanded sequential circuit.

    The circuit is unrolled [k] frames with an unknown (X) initial state;
    every control and data primary input of every frame is a decision
    variable. The target fault is present in all frames. A test is found
    when a frame's primary output carries a D/D-bar (good and faulty
    planes defined and different) — because the initial state is X, any
    such test detects the fault from {e every} power-up state, so
    replaying it on the zero-initialized simulator is guaranteed to
    observe the fault.

    Standard PODEM search: objective (activate the fault, then extend the
    D-frontier), backtrace to an unassigned primary input through gates
    and — across frames — through flip-flops, imply by three-valued
    resimulation of both planes, backtrack on conflict. Frame counts are
    tried from 1 up to [max_frames] so sequentially deeper faults cost
    visibly more effort, which is exactly the behaviour the paper's
    sequential-depth argument predicts. *)

type test = {
  t_frames : (int * bool) list array;
      (** per frame: assigned PI nets; unassigned PIs are free (filled
          with 0 on replay) *)
}

type verdict =
  | Detected of test
  | No_test_in_frames  (** search exhausted within the frame budget *)
  | Aborted            (** backtrack limit hit *)

type stats = {
  implications : int;
  backtracks : int;
}

type engine = [ `Cone | `Full ]
(** [`Cone] (the default) restricts the faulty plane, the D-frontier
    and the detection scan to the fault site's sequential output cone
    ({!Hlts_sim.Sim.cone}), keeps the D-frontier as an incremental
    per-frame bitset updated by the event-driven resimulation, and
    backtraces over the compiled arrays of {!Hlts_sim.Sim}; everything
    outside the cone provably carries the good value, so verdicts,
    tests and stats are bit-identical to [`Full] — the pre-cone
    full-sweep code with its hashtable backtrace and materialized
    D-frontier list, kept as the oracle the property tests compare
    against. *)

type t
(** The prepared context of one ATPG run over one compiled circuit:
    lookup views and every scratch plane, sized once for [max_frames]
    and reset per search. Reusing it across faults gives exactly the
    results of a fresh one per fault. It is mutable and owned by its
    run: never share one between concurrent searches. *)

val create : Hlts_sim.Sim.t -> max_frames:int -> t
(** Frame counts 1 to [max_frames] are tried for every fault. *)

val generate :
  ?max_implications:int ->
  ?engine:engine ->
  t ->
  max_backtracks:int ->
  Hlts_fault.Fault.t ->
  verdict * stats
(** [max_implications] (default 1500) bounds the total three-valued
    resimulations spent on one fault across all unrolling depths.

    Setting the environment variable [PODEM_DEBUG=1] traces the search
    (objective or D-frontier sizes, assignments, backtracks) to
    stderr. *)
