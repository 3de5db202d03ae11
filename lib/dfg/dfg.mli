(** Data-flow graph: the behavioral intermediate representation.

    A DFG is a single-assignment DAG of binary operations over primary
    inputs and integer constants. It is the result of compiling a
    behavioral description (see {!module:Hlts_lang}) and the input of both
    scheduling and allocation. Benchmarks that reassign program variables
    are expressed here with uniquely renamed values. *)

type operand =
  | Input of string  (** primary-input value *)
  | Const of int     (** literal constant *)
  | Op of int        (** result of the operation with that id *)

type operation = {
  id : int;          (** unique id; printed as ["N<id>"] to match the paper *)
  kind : Op.kind;
  args : operand * operand;
  result : string;   (** unique value name *)
}

type t = {
  name : string;
  inputs : string list;     (** primary-input value names, no duplicates *)
  ops : operation list;     (** in some topological order after {!validate} *)
  outputs : string list;    (** names of values that leave the design *)
}

(** A storage value: either a primary input held in a register or the
    result of an operation. Comparison results are condition signals and
    are not values. *)
type value =
  | V_input of string
  | V_op of int

val value_name : t -> value -> string
(** Display name of a value ([result] for op values). *)

val value_of_name : t -> string -> value option

val validate : t -> (unit, string) result
(** Checks: ids and result names unique and disjoint from inputs; every
    operand refers to a declared input or existing op; the op graph is
    acyclic; comparison results are not used as data operands; every
    output names an input or a non-comparison op result. *)

val validate_exn : t -> t
(** [validate] raising [Invalid_argument] on error; returns the DFG with
    [ops] re-sorted topologically. *)

val memo : (t -> 'a) -> t -> 'a
(** [memo build] is [build] cached per DFG, keyed on the physical
    record: a few recently used DFGs keep their view. Safe to share
    across domains; a lost publication race only rebuilds the view. *)

val op_by_id : t -> int -> operation
(** @raise Not_found if no such operation. *)

val op_by_result : t -> string -> operation option

val pred_ids : operation -> int list
(** Ids of the operations whose results this operation reads (0-2). *)

val succ_ids : t -> int -> int list
(** Ids of the operations reading the result of [id]. *)

val topo_order : t -> operation list
(** Operations in dependency order. @raise Invalid_argument on a cycle. *)

val longest_chain : t -> int
(** Number of operations on the longest dependency chain (the unconstrained
    lower bound on schedule length). *)

val kind_counts : t -> (Op.kind * int) list

val values : t -> value list
(** All storage values: inputs first, then op results in [ops] order.
    Comparison results are excluded. *)

val uses_of_value : t -> value -> int list
(** Ids of operations reading the value. *)

val is_output : t -> value -> bool

val data_op_count : t -> int
(** Operations excluding comparisons. *)

val eval : t -> bits:int -> (string * int) list -> (string * int) list
(** Reference interpreter: evaluates the DFG on concrete unsigned inputs
    (by input name), all arithmetic modulo [2^bits], comparisons on the
    truncated values. Returns the outputs by name. Used as the golden
    model when verifying that a synthesized gate-level data path still
    computes the behavioral function.
    @raise Invalid_argument on a missing input. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing, one operation per line. *)

val digest : t -> string
(** MD5 hex over a canonical rendering of the graph: inputs and outputs
    in port order, operations sorted by id. Invariant under any
    re-ordering of [ops] that denotes the same DAG (e.g. a different
    topological sort); sensitive to every structural fact — ids, kinds,
    operands, result names, port lists. The [name] field is excluded, so
    structurally identical designs share a digest. This is the
    content-address the {!Hlts_eval} cache keys synthesis work by. *)
