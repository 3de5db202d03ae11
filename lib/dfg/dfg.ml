type operand =
  | Input of string
  | Const of int
  | Op of int

type operation = {
  id : int;
  kind : Op.kind;
  args : operand * operand;
  result : string;
}

type t = {
  name : string;
  inputs : string list;
  ops : operation list;
  outputs : string list;
}

type value =
  | V_input of string
  | V_op of int

(* Per-DFG derived views ([op_by_id]'s index, the lifetime readers
   index) are on the hot path of every merger and scheduler query. DFG
   values are immutable, so a view keyed on the *physical* record (a
   DFG is built once and threaded through a whole synthesis run)
   replaces an O(ops) list scan. A short MRU list rather than a single
   entry: evaluation pipelines interleave a handful of designs. *)
let memo build =
  (* Atomic, not a plain ref: domain workers index shared DFGs
     concurrently, and an unsynchronized read of a half-published
     view has no happens-before edge. CAS publishes a fully built
     view; a lost race merely rebuilds a duplicate (both are valid). *)
  let cache = Atomic.make [] in
  fun t ->
    match List.find_opt (fun (key, _) -> key == t) (Atomic.get cache) with
    | Some (_, view) -> view
    | None ->
      let view = build t in
      let keep = function a :: b :: c :: _ -> [ a; b; c ] | l -> l in
      let rec publish () =
        let cur = Atomic.get cache in
        if not (Atomic.compare_and_set cache cur ((t, view) :: keep cur)) then
          publish ()
      in
      publish ();
      view

let op_index =
  memo (fun t ->
      let index = Hashtbl.create (2 * List.length t.ops) in
      List.iter (fun o -> Hashtbl.replace index o.id o) t.ops;
      index)

let op_by_id t id = Hashtbl.find (op_index t) id

let op_by_result t name = List.find_opt (fun o -> o.result = name) t.ops

let value_name t = function
  | V_input name -> name
  | V_op id -> (op_by_id t id).result

let value_of_name t name =
  if List.mem name t.inputs then Some (V_input name)
  else
    match op_by_result t name with
    | Some o -> Some (V_op o.id)
    | None -> None

let pred_ids o =
  let of_arg = function Op id -> [ id ] | Input _ | Const _ -> [] in
  let a, b = o.args in
  of_arg a @ of_arg b

let succ_ids t id =
  let reads o = List.mem id (pred_ids o) in
  List.filter_map (fun o -> if reads o then Some o.id else None) t.ops

let topo_order t =
  let remaining = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace remaining o.id o) t.ops;
  let placed = Hashtbl.create 16 in
  let ready o = List.for_all (Hashtbl.mem placed) (pred_ids o) in
  let rec loop acc =
    if Hashtbl.length remaining = 0 then List.rev acc
    else begin
      (* Deterministic: pick the smallest-id ready op. *)
      let candidates =
        Hashtbl.fold
          (fun _ o acc -> if ready o then o :: acc else acc)
          remaining []
      in
      match candidates with
      | [] -> invalid_arg (Printf.sprintf "Dfg.topo_order: cycle in %S" t.name)
      | _ :: _ ->
        let o =
          List.fold_left (fun best o -> if o.id < best.id then o else best)
            (List.hd candidates) candidates
        in
        Hashtbl.remove remaining o.id;
        Hashtbl.replace placed o.id ();
        loop (o :: acc)
    end
  in
  loop []

let validate t =
  let err fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  let dup l =
    let seen = Hashtbl.create 16 in
    List.find_opt
      (fun x ->
        if Hashtbl.mem seen x then true
        else begin Hashtbl.add seen x (); false end)
      l
  in
  let ids = List.map (fun o -> o.id) t.ops in
  let names = t.inputs @ List.map (fun o -> o.result) t.ops in
  let known_op id = List.mem id ids in
  let comparison_ids =
    List.filter_map
      (fun o -> if Op.is_comparison o.kind then Some o.id else None)
      t.ops
  in
  let check_arg o = function
    | Const _ -> Ok ()
    | Input name ->
      if List.mem name t.inputs then Ok ()
      else err "N%d reads undeclared input %S" o.id name
    | Op id ->
      if not (known_op id) then err "N%d reads unknown op N%d" o.id id
      else if List.mem id comparison_ids then
        err "N%d uses comparison result of N%d as data" o.id id
      else Ok ()
  in
  let rec first_error = function
    | [] -> Ok ()
    | Ok () :: rest -> first_error rest
    | (Error _ as e) :: _ -> e
  in
  let arg_checks =
    List.concat_map
      (fun o ->
        let a, b = o.args in
        [ check_arg o a; check_arg o b ])
      t.ops
  in
  let output_checks =
    let check name =
      if List.mem name t.inputs then Ok ()
      else
        match op_by_result t name with
        | None -> err "output %S is not a value" name
        | Some o ->
          if Op.is_comparison o.kind then
            err "output %S is a comparison condition, not data" name
          else Ok ()
    in
    List.map check t.outputs
  in
  match dup ids, dup names with
  | Some id, _ -> err "duplicate op id N%d" id
  | None, Some name -> err "duplicate value name %S" name
  | None, None ->
    (match first_error (arg_checks @ output_checks) with
    | Error _ as e -> e
    | Ok () ->
      (match topo_order t with
      | (_ : operation list) -> Ok ()
      | exception Invalid_argument msg -> Error msg))

let validate_exn t =
  match validate t with
  | Error msg -> invalid_arg ("Dfg.validate: " ^ msg)
  | Ok () -> { t with ops = topo_order t }

let longest_chain t =
  let depth = Hashtbl.create 16 in
  let op_depth o =
    let pred_depths = List.map (Hashtbl.find depth) (pred_ids o) in
    1 + List.fold_left max 0 pred_depths
  in
  List.iter (fun o -> Hashtbl.replace depth o.id (op_depth o)) (topo_order t);
  Hashtbl.fold (fun _ d acc -> max d acc) depth 0

let kind_counts t =
  let groups = Hlts_util.Listx.group_by (fun o -> o.kind) t.ops in
  List.map (fun (k, os) -> (k, List.length os)) groups

let values t =
  let op_values =
    List.filter_map
      (fun o -> if Op.is_comparison o.kind then None else Some (V_op o.id))
      t.ops
  in
  List.map (fun name -> V_input name) t.inputs @ op_values

let uses_of_value t v =
  let matches = function
    | Input name, V_input name' -> String.equal name name'
    | Op id, V_op id' -> id = id'
    | (Input _ | Const _ | Op _), (V_input _ | V_op _) -> false
  in
  let reads o =
    let a, b = o.args in
    matches (a, v) || matches (b, v)
  in
  List.filter_map (fun o -> if reads o then Some o.id else None) t.ops

let is_output t v = List.mem (value_name t v) t.outputs

let data_op_count t =
  List.length (List.filter (fun o -> not (Op.is_comparison o.kind)) t.ops)

let eval t ~bits inputs =
  let mask v = v land ((1 lsl bits) - 1) in
  let input name =
    match List.assoc_opt name inputs with
    | Some v -> mask v
    | None -> invalid_arg (Printf.sprintf "Dfg.eval: missing input %S" name)
  in
  let results = Hashtbl.create 16 in
  let operand = function
    | Input name -> input name
    | Const c -> mask c
    | Op id -> Hashtbl.find results id
  in
  let apply kind a b =
    let bool c = if c then 1 else 0 in
    match kind with
    | Op.Add -> mask (a + b)
    | Op.Sub -> mask (a - b)
    | Op.Mul -> mask (a * b)
    | Op.Lt -> bool (a < b)
    | Op.Gt -> bool (a > b)
    | Op.Le -> bool (a <= b)
    | Op.Ge -> bool (a >= b)
    | Op.Eq -> bool (a = b)
    | Op.Ne -> bool (a <> b)
    | Op.And -> a land b
    | Op.Or -> a lor b
    | Op.Xor -> a lxor b
  in
  List.iter
    (fun o ->
      let a, b = o.args in
      Hashtbl.replace results o.id (apply o.kind (operand a) (operand b)))
    (topo_order t);
  List.map
    (fun name ->
      let v =
        if List.mem name t.inputs then input name
        else Hashtbl.find results (Option.get (op_by_result t name)).id
      in
      (name, v))
    t.outputs

let pp_operand ppf = function
  | Input name -> Format.pp_print_string ppf name
  | Const c -> Format.pp_print_int ppf c
  | Op id -> Format.fprintf ppf "@@N%d" id

(* Content digest. The canonical form sorts operations by id, so any
   permutation of [ops] that denotes the same DAG — in particular any
   topological re-ordering — digests identically. The [name] is
   excluded: a digest identifies the computation, not what a benchmark
   table happens to call it. Input and output order stay significant
   (they are the design's port ordering). *)
let digest t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "dfg/1;in:";
  List.iter
    (fun i ->
      Buffer.add_string buf i;
      Buffer.add_char buf ',')
    t.inputs;
  Buffer.add_string buf ";ops:";
  let operand = function
    | Input name -> "i" ^ name
    | Const c -> "c" ^ string_of_int c
    | Op id -> "r" ^ string_of_int id
  in
  List.iter
    (fun o ->
      let a, b = o.args in
      Buffer.add_string buf
        (Printf.sprintf "%d:%s:%s:%s:%s;" o.id (Op.symbol o.kind) (operand a)
           (operand b) o.result))
    (List.sort (fun a b -> compare a.id b.id) t.ops);
  Buffer.add_string buf ";out:";
  List.iter
    (fun o ->
      Buffer.add_string buf o;
      Buffer.add_char buf ',')
    t.outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp ppf t =
  Format.fprintf ppf "@[<v>design %s@,inputs: %s@,outputs: %s@,"
    t.name
    (String.concat ", " t.inputs)
    (String.concat ", " t.outputs);
  let pp_op o =
    let a, b = o.args in
    Format.fprintf ppf "N%-3d %s := %a %s %a@," o.id o.result pp_operand a
      (Op.symbol o.kind) pp_operand b
  in
  List.iter pp_op t.ops;
  Format.fprintf ppf "@]"
