(** Extended Timed Petri Net (ETPN) design representation
    (Peng & Kuchcinski 1994).

    The data path is a directed graph whose vertices are registers,
    functional units, ports and constants, and whose arcs are guarded by
    control states: an arc labelled with control step [s] transfers data
    while the control token is in step [s]. The control part is a timed
    Petri net (here: the chain generated from the schedule); the two parts
    are related through those guards. Conditions produced by comparison
    units feed the control part through {!constructor-Cond_out} vertices.

    An ETPN is deterministic given (DFG, schedule, binding); {!build}
    constructs and checks it. *)

type port =
  | P_left
  | P_right

type node =
  | Port_in of string
  | Port_out of string
  | Cond_out of int        (** condition signal of comparison op [id] *)
  | Const of int
  | Reg of Hlts_alloc.Binding.register
  | Fu of Hlts_alloc.Binding.fu

type arc = {
  a_src : int;
  a_dst : int;
  a_port : port option;    (** destination port for functional-unit inputs *)
  a_guards : int list;     (** activating control steps, ascending;
                               step 0 = input loading, length+1 = output *)
}

type index
(** Lookup tables over [nodes] and [arcs], built once by {!build} and
    {!add_observation_point} and never mutated, so one ETPN can be read
    from several domains. *)

type t = private {
  dfg : Hlts_dfg.Dfg.t;
  schedule : Hlts_sched.Schedule.t;
  binding : Hlts_alloc.Binding.t;
  nodes : (int * node) list;
      (** ascending node id; the ids are exactly [0 .. n-1] *)
  arcs : arc list;
  control : Hlts_petri.Petri.t;
  index : index;
}
(** Private: every value comes from {!build} or
    {!add_observation_point}, so the index always matches [nodes] and
    [arcs]. *)

val build :
  Hlts_dfg.Dfg.t ->
  Hlts_sched.Schedule.t ->
  Hlts_alloc.Binding.t ->
  (t, string) result
(** Validates the schedule against the DFG and the binding against both
    (via {!Hlts_alloc.Binding.validate}), then constructs the data path
    and the control chain. *)

val build_exn :
  Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> Hlts_alloc.Binding.t -> t

(** {2 Lookups}

    All read the index: O(1) by node id, O(log n) by register or unit
    id. They answer as the list scans over [nodes] and [arcs] would: the
    first matching node, and arcs in [arcs] order. *)

val node : t -> int -> node
(** @raise Not_found if [id] is not a node. *)

val node_id_of_reg : t -> int -> int
(** Node id of register [reg_id].
    @raise Not_found if no node holds it. *)

val node_id_of_fu : t -> int -> int

val in_arcs : t -> int -> arc list
(** Arcs into node [id], in [arcs] order; [[]] for an unknown id. *)

val out_arcs : t -> int -> arc list

val execution_time : t -> int
(** Critical path of the control net (the paper's E). *)

val control_unrolled : t -> iterations:int -> Hlts_petri.Petri.t
(** The control Petri net of a looping design (e.g. Diffeq's while-loop
    body), unrolled for a bounded number of iterations: after the last
    control step of each iteration a conditional choice either exits or
    enters the next iteration's first step — the condition signal of the
    data path's comparison steers it at run time. The worst-case
    execution time of the unrolled net is [iterations * execution_time],
    which the reachability-tree critical-path extraction must find by
    exploring every branch. *)

(** Structural metrics of the data path. *)
type stats = {
  n_registers : int;
  n_fus : int;
  n_mux_units : int;   (** destinations fed by more than one source *)
  n_mux_slices : int;  (** total 2-to-1 multiplexer slices: sum (fanin-1) *)
  n_self_loops : int;  (** register-unit-same-register structural loops *)
  n_arcs : int;
}

val stats : t -> stats

val interconnect : t -> (int * int) list
(** Undirected connectivity between data-path nodes: [(a, b)] with
    [a < b], one entry per connected pair (used by the floorplanner and
    the CAMAD closeness metric). *)

val add_observation_point : t -> reg_id:int -> t
(** Adds a dedicated output port observing a register — a test point.
    The new port is named ["tp_r<k>"] and is active in every control
    step. Used by the test-point-insertion extension. *)

val to_dot : t -> string
(** Graphviz rendering of the data path. *)
