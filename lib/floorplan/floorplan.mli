(** Connectivity-driven floorplanning and hardware-cost estimation
    (after Peng & Kuchcinski 1994).

    The estimator of §4.2:
    [H = sum Area(V_i) + sum Len(A_j) * Wid(A_j)],
    where areas come from {!Module_library}, lengths from a slot-based
    placement built by a simple connectivity heuristic (most-connected
    blocks first, each block dropped on the frontier slot minimizing the
    Manhattan wire length to its already-placed neighbours), and widths
    are bit widths times a weighting factor. *)

type result = {
  cell_area : float;   (** sum of block areas, mm2 *)
  wire_cost : float;   (** sum len*wid over data-path arcs, mm2 *)
  total : float;       (** the paper's H *)
  placement : (int * (float * float)) list;
      (** node id -> block center, mm; every data-path node is placed *)
}

val plan : Hlts_etpn.Etpn.t -> bits:int -> result
(** Places every data-path block and prices the result. The free-slot
    frontier is kept incrementally, so one plan costs about
    O(blocks x frontier x degree). Reported as the [floorplan.plan]
    span. *)

val area : Hlts_etpn.Etpn.t -> bits:int -> float
(** [total] of {!plan}. *)
