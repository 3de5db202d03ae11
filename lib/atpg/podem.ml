module Netlist = Hlts_netlist.Netlist
module Sim = Hlts_sim.Sim
module Fault = Hlts_fault.Fault

type test = { t_frames : (int * bool) list array }

type verdict =
  | Detected of test
  | No_test_in_frames
  | Aborted

type stats = {
  implications : int;
  backtracks : int;
}

type engine = [ `Cone | `Full ]

(* three-valued logic on 0 / 1 / 2=X *)
let x = 2
let t_not a = if a = x then x else 1 - a
let t_and a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else x
let t_or a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else x
let t_xor a b = if a = x || b = x then x else a lxor b

let t_mux s a b =
  if s = 0 then a
  else if s = 1 then b
  else if a = b && a <> x then a
  else x

(* The [`Full] oracle's lookup tables: the pre-cone hashtable views of
   the circuit, kept apart from the cone engine's arrays so the property
   tests compare two backtraces and two D-frontiers that share no
   code. *)
type tables = {
  pi_nets : (int, unit) Hashtbl.t;
  driver : (int, Netlist.gate) Hashtbl.t;   (* net -> driving gate *)
  q_dff : (int, Netlist.dff) Hashtbl.t;     (* q net -> dff *)
  po_nets : int list;
}

let make_tables (c : Netlist.t) =
  let pi_nets = Hashtbl.create 64 in
  List.iter
    (fun (_, bus) -> List.iter (fun net -> Hashtbl.replace pi_nets net ()) bus)
    c.Netlist.pis;
  let driver = Hashtbl.create 256 in
  Array.iter (fun g -> Hashtbl.replace driver g.Netlist.output g) c.Netlist.gates;
  let q_dff = Hashtbl.create 64 in
  Array.iter (fun f -> Hashtbl.replace q_dff f.Netlist.q_output f) c.Netlist.dffs;
  { pi_nets; driver; q_dff;
    po_nets = List.concat_map (fun (_, bus) -> bus) c.Netlist.pos }

let bit_set b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_add b i =
  Bytes.set b (i lsr 3) (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

(* The prepared context of one ATPG run: fault-independent lookup views
   and every scratch plane, sized once for [max_frames]. A search at
   depth [k] uses (and first resets) only the [k * n] prefix of each
   plane. The run owns it, so concurrent runs share nothing. *)
type t = {
  sim : Sim.t;
  c : Netlist.t;
  order : Netlist.gate array;
  n : int;                       (* nets per frame *)
  max_frames : int;
  ops : Sim.ops;
  pi_arr : int array;
  is_pi : Bytes.t;               (* net bitset of the primary inputs *)
  driver_ix : int array;         (* net -> levelized driver gate, or -1 *)
  dff_of_q : int array;          (* net -> dff id whose Q it is, or -1 *)
  fan_idx : int array;
  fan_gates : int array;
  dfan_idx : int array;
  dfan_dffs : int array;
  gx : int array;
  (* max_frames * n: the good plane under the empty assignment, the
     same for every fault and depth; each search starts from a copy *)
  gv : int array;                (* good plane *)
  fv : int array;                (* faulty plane *)
  asg : int array;
  (* the assignment: frames*n words of 0/1/x, x for every net that is
     not an assigned primary input — the search's only record of its
     decisions *)
  pend : int array;
  (* per-gate schedule bitmask (32 gates per word) for the event-driven
     sweep; drained every frame *)
  dffp_a : int array;
  dffp_b : int array;
  (* per-dff double-buffered bitmasks: flip-flops whose D net changed in
     the frame being processed, seeding the next frame's Q loads *)
  fw : int;                      (* D-frontier words per frame *)
  front : int array;
  (* the D-frontier index, [fw] 32-bit words per frame: bit
     [n_gates - 1 - gi] is set iff cone gate [gi] has an X output in
     either plane and a D on an input. Reversed so that lowest-set-bit
     first visits the deepest gate first. *)
  cone_gate_mask : Bytes.t;
  (* gate-index bitset of the current fault's cone gates, so the
     event-driven sweep can test cone membership per gate *)
  tables : tables Lazy.t;
}

(* The three-valued output of gate [gi] over the plane [v] in the frame
   at [base]. *)
let eval_gate (ops : Sim.ops) (v : int array) base gi =
  let { Sim.kind; in0; in1; in2; _ } = ops in
  let a = Array.unsafe_get v (base + Array.unsafe_get in0 gi) in
  match Array.unsafe_get kind gi with
  | 0 -> t_and a (Array.unsafe_get v (base + Array.unsafe_get in1 gi))
  | 1 -> t_or a (Array.unsafe_get v (base + Array.unsafe_get in1 gi))
  | 2 -> t_not (t_and a (Array.unsafe_get v (base + Array.unsafe_get in1 gi)))
  | 3 -> t_not (t_or a (Array.unsafe_get v (base + Array.unsafe_get in1 gi)))
  | 4 -> t_xor a (Array.unsafe_get v (base + Array.unsafe_get in1 gi))
  | 5 -> t_not (t_xor a (Array.unsafe_get v (base + Array.unsafe_get in1 gi)))
  | 6 -> t_not a
  | 7 -> a
  | _ ->
    t_mux a
      (Array.unsafe_get v (base + Array.unsafe_get in1 gi))
      (Array.unsafe_get v (base + Array.unsafe_get in2 gi))

(* Frame [f] of the good plane [gv] under the empty assignment: the
   primary inputs keep the X [gv] was made with, the flip-flops load
   the previous frame's D nets. *)
let sweep_empty (c : Netlist.t) (ops : Sim.ops) gv f =
  let n = c.Netlist.n_nets in
  let base = f * n in
  gv.(base + c.Netlist.const0) <- 0;
  gv.(base + c.Netlist.const1) <- 1;
  Array.iter
    (fun (d : Netlist.dff) ->
      gv.(base + d.Netlist.q_output) <-
        (if f = 0 then x else gv.((f - 1) * n + d.Netlist.d_input)))
    c.Netlist.dffs;
  for gi = 0 to ops.Sim.n_gates - 1 do
    gv.(base + ops.Sim.out.(gi)) <- eval_gate ops gv base gi
  done

(* [Array.blit] stores through the write barrier once the target is in
   the major heap; a plain loop over ints does not need it. *)
let copy_ints (src : int array) (dst : int array) pos len =
  for i = pos to pos + len - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let create sim ~max_frames =
  let c = Sim.circuit sim in
  let n = c.Netlist.n_nets in
  let ops = Sim.ops sim in
  let cells = max 0 max_frames * n in
  let pi_arr = Sim.pi_nets sim in
  let is_pi = Bytes.make ((n / 8) + 1) '\000' in
  Array.iter (bit_add is_pi) pi_arr;
  let fw = (ops.Sim.n_gates + 31) / 32 in
  let dff_words = (Array.length c.Netlist.dffs + 31) / 32 in
  let gx = Array.make cells x in
  for f = 0 to max_frames - 1 do
    sweep_empty c ops gx f
  done;
  {
    sim;
    c;
    order = Sim.levelized sim;
    n;
    max_frames;
    ops;
    pi_arr;
    is_pi;
    driver_ix = Sim.driver_index sim;
    dff_of_q = Sim.dff_of_q sim;
    fan_idx = fst (Sim.fanout_gates sim);
    fan_gates = snd (Sim.fanout_gates sim);
    dfan_idx = fst (Sim.fanout_dffs sim);
    dfan_dffs = snd (Sim.fanout_dffs sim);
    gx;
    gv = Array.make cells x;
    fv = Array.make cells x;
    asg = Array.make cells x;
    pend = Array.make fw 0;
    dffp_a = Array.make dff_words 0;
    dffp_b = Array.make dff_words 0;
    fw;
    front = Array.make (max 0 max_frames * fw) 0;
    cone_gate_mask = Bytes.make ((ops.Sim.n_gates / 8) + 1) '\000';
    tables = lazy (make_tables c);
  }

(* One search at one unrolling depth over the planes of [p]. *)
type ctx = {
  p : t;
  n : int;
  gv : int array;
  fv : int array;
  asg : int array;
  site : int;
  sv : int;                      (* stuck value, 0 or 1 *)
  frames : int;
  mutable implications : int;
  mutable backtracks : int;
  (* cone engine (bit-identical to the full engine, property-tested):
     the faulty value can differ from the good one only inside the
     site's sequential output cone, so [fv] is swept over the cone's
     gates only (reads outside fall back to [gv]), and the D-frontier
     and detection scans are restricted to cone gates / cone POs. *)
  use_cone : bool;
  cone_gates : int array;
  cone_pos : int array;
  cone_bits : Bytes.t;
  mutable pending : (int * int) list;
  (* (frame, PI net) assignments touched since the last sweep; the
     event-driven resweep seeds exactly these *)
  mutable swept : bool;
}

let make_ctx ~engine (p : t) fault cone frames =
  let cells = frames * p.n in
  (* the cone engine's first sweep writes every net of the prefix *)
  if engine = `Full then begin
    Array.fill p.gv 0 cells x;
    Array.fill p.fv 0 cells x
  end;
  Array.fill p.asg 0 cells x;
  Array.fill p.front 0 (frames * p.fw) 0;
  Array.fill p.pend 0 (Array.length p.pend) 0;
  Array.fill p.dffp_a 0 (Array.length p.dffp_a) 0;
  Array.fill p.dffp_b 0 (Array.length p.dffp_b) 0;
  {
    p;
    n = p.n;
    gv = p.gv;
    fv = p.fv;
    asg = p.asg;
    site = fault.Fault.f_net;
    sv = (match fault.Fault.f_stuck with Fault.Stuck_at_0 -> 0 | Fault.Stuck_at_1 -> 1);
    frames;
    implications = 0;
    backtracks = 0;
    use_cone = engine = `Cone;
    cone_gates = Sim.cone_gates cone;
    cone_pos = Sim.cone_pos cone;
    cone_bits = Sim.cone_bits cone;
    pending = [];
    swept = false;
  }

(* --- full engine: the pre-cone oracle, kept verbatim ------------------- *)

let simulate_full ctx =
  let tables = Lazy.force ctx.p.tables in
  let c = ctx.p.c in
  for f = 0 to ctx.frames - 1 do
    let base = f * ctx.n in
    (* sources *)
    ctx.gv.(base + c.Netlist.const0) <- 0;
    ctx.fv.(base + c.Netlist.const0) <- 0;
    ctx.gv.(base + c.Netlist.const1) <- 1;
    ctx.fv.(base + c.Netlist.const1) <- 1;
    Hashtbl.iter
      (fun net () ->
        let v = ctx.asg.(base + net) in
        ctx.gv.(base + net) <- v;
        ctx.fv.(base + net) <- v)
      tables.pi_nets;
    Array.iter
      (fun (d : Netlist.dff) ->
        if f = 0 then begin
          ctx.gv.(base + d.Netlist.q_output) <- x;
          ctx.fv.(base + d.Netlist.q_output) <- x
        end
        else begin
          let prev = (f - 1) * ctx.n + d.Netlist.d_input in
          ctx.gv.(base + d.Netlist.q_output) <- ctx.gv.(prev);
          ctx.fv.(base + d.Netlist.q_output) <- ctx.fv.(prev)
        end)
      c.Netlist.dffs;
    (* fault forcing on source nets *)
    if not (Hashtbl.mem tables.driver ctx.site) then
      ctx.fv.(base + ctx.site) <- ctx.sv;
    (* sweep *)
    let gv = ctx.gv and fv = ctx.fv in
    Array.iter
      (fun (g : Netlist.gate) ->
        let out = base + g.Netlist.output in
        (match g.Netlist.kind, g.Netlist.inputs with
        | Netlist.G_not, [ a ] ->
          gv.(out) <- t_not gv.(base + a);
          fv.(out) <- t_not fv.(base + a)
        | Netlist.G_buf, [ a ] ->
          gv.(out) <- gv.(base + a);
          fv.(out) <- fv.(base + a)
        | Netlist.G_and, [ a; b ] ->
          gv.(out) <- t_and gv.(base + a) gv.(base + b);
          fv.(out) <- t_and fv.(base + a) fv.(base + b)
        | Netlist.G_or, [ a; b ] ->
          gv.(out) <- t_or gv.(base + a) gv.(base + b);
          fv.(out) <- t_or fv.(base + a) fv.(base + b)
        | Netlist.G_nand, [ a; b ] ->
          gv.(out) <- t_not (t_and gv.(base + a) gv.(base + b));
          fv.(out) <- t_not (t_and fv.(base + a) fv.(base + b))
        | Netlist.G_nor, [ a; b ] ->
          gv.(out) <- t_not (t_or gv.(base + a) gv.(base + b));
          fv.(out) <- t_not (t_or fv.(base + a) fv.(base + b))
        | Netlist.G_xor, [ a; b ] ->
          gv.(out) <- t_xor gv.(base + a) gv.(base + b);
          fv.(out) <- t_xor fv.(base + a) fv.(base + b)
        | Netlist.G_xnor, [ a; b ] ->
          gv.(out) <- t_not (t_xor gv.(base + a) gv.(base + b));
          fv.(out) <- t_not (t_xor fv.(base + a) fv.(base + b))
        | Netlist.G_mux2, [ s_; a; b ] ->
          gv.(out) <- t_mux gv.(base + s_) gv.(base + a) gv.(base + b);
          fv.(out) <- t_mux fv.(base + s_) fv.(base + a) fv.(base + b)
        | ( Netlist.G_and | Netlist.G_or | Netlist.G_nand | Netlist.G_nor
          | Netlist.G_xor | Netlist.G_xnor | Netlist.G_not | Netlist.G_buf
          | Netlist.G_mux2 ), _ ->
          invalid_arg "Podem.simulate: corrupt gate");
        if g.Netlist.output = ctx.site then fv.(out) <- ctx.sv)
      ctx.p.order
  done

let detected_full ctx =
  let po_nets = (Lazy.force ctx.p.tables).po_nets in
  let rec frame f =
    if f >= ctx.frames then false
    else
      let base = f * ctx.n in
      List.exists
        (fun po ->
          let g = ctx.gv.(base + po) and fl = ctx.fv.(base + po) in
          g <> x && fl <> x && g <> fl)
        po_nets
      || frame (f + 1)
  in
  frame 0

(* Candidate objectives, best first; the caller takes the first one whose
   backtrace reaches an unassigned primary input. *)
let objectives_full ctx =
  (* D-frontier: gates with a D on an input and X on their output.
     Late frames and late levels first (closest to the outputs). *)
  let acc = ref [] in
  for f = 0 to ctx.frames - 1 do
    let base = f * ctx.n in
    for gi = 0 to Array.length ctx.p.order - 1 do
      let g = ctx.p.order.(gi) in
      let out = base + g.Netlist.output in
      let out_x = ctx.gv.(out) = x || ctx.fv.(out) = x in
      if out_x then begin
        let carries_d net =
          let i = base + net in
          ctx.gv.(i) <> x && ctx.fv.(i) <> x && ctx.gv.(i) <> ctx.fv.(i)
        in
        if List.exists carries_d g.Netlist.inputs then begin
          let pick =
            match g.Netlist.kind, g.Netlist.inputs with
            | (Netlist.G_and | Netlist.G_nand), inputs ->
              List.find_opt (fun net -> ctx.gv.(base + net) = x) inputs
              |> Option.map (fun net -> (net, 1))
            | (Netlist.G_or | Netlist.G_nor), inputs ->
              List.find_opt (fun net -> ctx.gv.(base + net) = x) inputs
              |> Option.map (fun net -> (net, 0))
            | (Netlist.G_xor | Netlist.G_xnor), inputs ->
              List.find_opt (fun net -> ctx.gv.(base + net) = x) inputs
              |> Option.map (fun net -> (net, 0))
            | (Netlist.G_not | Netlist.G_buf), _ -> None
            | Netlist.G_mux2, [ s_; a; b ] ->
              if ctx.gv.(base + s_) = x then begin
                (* route the data input that carries the D *)
                if carries_d a then Some (s_, 0)
                else if carries_d b then Some (s_, 1)
                else Some (s_, 0)
              end
              else if ctx.gv.(base + s_) = 0 && ctx.gv.(base + a) = x then
                Some (a, 0)
              else if ctx.gv.(base + s_) = 1 && ctx.gv.(base + b) = x then
                Some (b, 0)
              else None
            | Netlist.G_mux2, _ -> None
          in
          match pick with
          | Some (net, v) -> acc := (f, net, v) :: !acc
          | None -> ()
        end
      end
    done
  done;
  (* reversed scan order: latest frame / deepest gate first *)
  !acc

(* Walks an objective back to an unassigned primary input; [None] when it
   dead-ends (frame-0 state or fully determined cone). *)
let backtrace_full ctx f0 net0 v0 =
  let tables = Lazy.force ctx.p.tables in
  let rec walk f net v guard =
    if guard <= 0 then None
    else begin
      let base = f * ctx.n in
      if Hashtbl.mem tables.pi_nets net then
        if ctx.asg.(base + net) <> x then None else Some (f, net, v)
      else
        match Hashtbl.find_opt tables.q_dff net with
        | Some dff ->
          if f = 0 then None else walk (f - 1) dff.Netlist.d_input v (guard - 1)
        | None -> begin
          match Hashtbl.find_opt tables.driver net with
          | None -> None (* constant *)
          | Some g -> begin
            let xin inputs =
              List.find_opt (fun n -> ctx.gv.(base + n) = x) inputs
            in
            match g.Netlist.kind, g.Netlist.inputs with
            | Netlist.G_not, [ a ] -> walk f a (t_not v) (guard - 1)
            | Netlist.G_buf, [ a ] -> walk f a v (guard - 1)
            | (Netlist.G_and | Netlist.G_nand), inputs -> begin
              let v' = if g.Netlist.kind = Netlist.G_nand then t_not v else v in
              match xin inputs with
              | Some a -> walk f a v' (guard - 1)
              | None -> None
            end
            | (Netlist.G_or | Netlist.G_nor), inputs -> begin
              let v' = if g.Netlist.kind = Netlist.G_nor then t_not v else v in
              match xin inputs with
              | Some a -> walk f a v' (guard - 1)
              | None -> None
            end
            | (Netlist.G_xor | Netlist.G_xnor), [ a; b ] -> begin
              let v' = if g.Netlist.kind = Netlist.G_xnor then t_not v else v in
              let ga = ctx.gv.(base + a) and gb = ctx.gv.(base + b) in
              if ga = x && gb <> x then walk f a (t_xor v' gb) (guard - 1)
              else if gb = x && ga <> x then walk f b (t_xor v' ga) (guard - 1)
              else if ga = x then walk f a 0 (guard - 1)
              else None
            end
            | Netlist.G_mux2, [ s_; a; b ] -> begin
              match ctx.gv.(base + s_) with
              | 0 -> walk f a v (guard - 1)
              | 1 -> walk f b v (guard - 1)
              | _ ->
                (* select the branch that can still justify [v]: a branch
                   already carrying [v] only needs the select set; among
                   undefined branches prefer [b] — in register hold-muxes
                   that is the load path, while the [a] (hold) path dead-
                   ends in the unknown initial state *)
                let ga = ctx.gv.(base + a) and gb = ctx.gv.(base + b) in
                if ga = v then walk f s_ 0 (guard - 1)
                else if gb = v then walk f s_ 1 (guard - 1)
                else if gb = x then walk f s_ 1 (guard - 1)
                else if ga = x then walk f s_ 0 (guard - 1)
                else None
            end
            (* malformed arities cannot occur in validated netlists *)
            | (Netlist.G_not | Netlist.G_buf), _ -> None
            | (Netlist.G_xor | Netlist.G_xnor), _ -> None
            | Netlist.G_mux2, _ -> None
          end
        end
    end
  in
  walk f0 net0 v0 (ctx.frames * (Array.length ctx.p.order + ctx.n) + 16)

(* --- cone engine ------------------------------------------------------- *)

let carries_d gv fv i =
  let g = Array.unsafe_get gv i and fl = Array.unsafe_get fv i in
  g <> x && fl <> x && g <> fl

(* Is gate [gi] on the D-frontier of the frame at [base]: X on its
   output in either plane and a D on an input? *)
let on_frontier gv fv (ops : Sim.ops) base gi =
  let o = base + Array.unsafe_get ops.Sim.out gi in
  (Array.unsafe_get gv o = x || Array.unsafe_get fv o = x)
  && (carries_d gv fv (base + Array.unsafe_get ops.Sim.in0 gi)
     || (let b = Array.unsafe_get ops.Sim.in1 gi in
         b >= 0 && carries_d gv fv (base + b))
     || (let c2 = Array.unsafe_get ops.Sim.in2 gi in
         c2 >= 0 && carries_d gv fv (base + c2)))

(* The first sweep of a search, under the empty assignment: the good
   plane is the run's template, so only the faulty plane is computed,
   and only over the cone. *)
let sweep_cone_all ctx =
  let p = ctx.p in
  let out = p.ops.Sim.out in
  let gv = ctx.gv and fv = ctx.fv in
  let dffs = p.c.Netlist.dffs in
  (* faulty plane: seed it with the good values wholesale, so every net
     outside the cone holds its provably-equal good value, then
     overwrite the cone frame by frame. Cone DFF Qs read the previous
     frame's faulty plane, which is fully materialized by the same
     scheme. *)
  copy_ints p.gx gv 0 (ctx.frames * ctx.n);
  copy_ints p.gx fv 0 (ctx.frames * ctx.n);
  for f = 0 to ctx.frames - 1 do
    let base = f * ctx.n in
    Array.iter
      (fun (d : Netlist.dff) ->
        let q = d.Netlist.q_output in
        fv.(base + q) <-
          (if f = 0 then x else fv.((f - 1) * ctx.n + d.Netlist.d_input)))
      dffs;
    fv.(base + ctx.site) <- ctx.sv;
    (* faulty sweep over the cone only; non-cone inputs read the copied
       good values. A gate's inputs are final once it is reached, so its
       D-frontier bit is set right after its output. *)
    let cg = ctx.cone_gates in
    for k = 0 to Array.length cg - 1 do
      let gi = Array.unsafe_get cg k in
      let o = Array.unsafe_get out gi in
      let value = eval_gate p.ops fv base gi in
      Array.unsafe_set fv (base + o) (if o = ctx.site then ctx.sv else value);
      if on_frontier gv fv p.ops base gi then begin
        let r = p.ops.Sim.n_gates - 1 - gi in
        let wi = (f * p.fw) + (r lsr 5) in
        p.front.(wi) <- p.front.(wi) lor (1 lsl (r land 31))
      end
    done
  done

(* de Bruijn index of the lowest set bit of a non-zero 32-bit word *)
let db32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 m = db32.((((m land (-m)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Event-driven resweep: the pending source changes are seeded into
   their frames and propagated gate-by-gate through the fanout index —
   a gate is re-evaluated only when one of its input nets actually
   changed in either plane, and frame boundaries are crossed only
   through flip-flops whose D net changed. Values are a pure function
   of the assignment, so the touched entries end up exactly as a full
   resweep would leave them and the untouched ones are already right.
   A gate's D-frontier bit reads only its own input and output nets, so
   recomputing the bit of every drained cone gate keeps the index
   exact. *)
let sweep_events ctx =
  let p = ctx.p in
  let ops = p.ops in
  let out = ops.Sim.out in
  let gv = ctx.gv and fv = ctx.fv in
  let n = ctx.n in
  let dffs = p.c.Netlist.dffs in
  let site = ctx.site and sv = ctx.sv in
  let gmask = p.cone_gate_mask and sbits = ctx.cone_bits in
  let fan_idx = p.fan_idx and fan_gates = p.fan_gates in
  let dfan_idx = p.dfan_idx and dfan_dffs = p.dfan_dffs in
  let pend = p.pend in
  let cur = ref p.dffp_a and nxt = ref p.dffp_b in
  (* a net changed: schedule its reader gates (always later in the
     levelized order) and remember the flip-flops it feeds *)
  let touch net =
    for i = fan_idx.(net) to fan_idx.(net + 1) - 1 do
      let gi = Array.unsafe_get fan_gates i in
      let w = gi lsr 5 in
      Array.unsafe_set pend w (Array.unsafe_get pend w lor (1 lsl (gi land 31)))
    done;
    for i = dfan_idx.(net) to dfan_idx.(net + 1) - 1 do
      let di = Array.unsafe_get dfan_dffs i in
      let w = di lsr 5 in
      let nx = !nxt in
      Array.unsafe_set nx w (Array.unsafe_get nx w lor (1 lsl (di land 31)))
    done
  in
  let fa =
    List.fold_left (fun acc (f, _) -> min acc f) ctx.frames ctx.pending
  in
  let front = p.front and last = ops.Sim.n_gates - 1 in
  for f = fa to ctx.frames - 1 do
    let base = f * n and fbase = f * p.fw in
    (* seed this frame's changed PIs *)
    List.iter
      (fun (fc, pn) ->
        if fc = f then begin
          let v = ctx.asg.(base + pn) in
          if gv.(base + pn) <> v then begin
            gv.(base + pn) <- v;
            if pn <> site then fv.(base + pn) <- v;
            touch pn
          end
        end)
      ctx.pending;
    (* seed flip-flops whose D net changed in the previous frame *)
    if f > fa then begin
      let cw = !cur in
      let prev = (f - 1) * n in
      for w = 0 to Array.length cw - 1 do
        while cw.(w) <> 0 do
          let di = (w lsl 5) lor ctz32 cw.(w) in
          cw.(w) <- cw.(w) land (cw.(w) - 1);
          let d = dffs.(di) in
          let q = d.Netlist.q_output in
          let gq = gv.(prev + d.Netlist.d_input) in
          let fq =
            if q = site then sv
            else if bit_set sbits q then fv.(prev + d.Netlist.d_input)
            else gq
          in
          let changed = gv.(base + q) <> gq || fv.(base + q) <> fq in
          gv.(base + q) <- gq;
          fv.(base + q) <- fq;
          if changed then touch q
        done
      done
    end;
    (* drain scheduled gates in levelized (ascending-index) order; a
       re-evaluated gate only schedules strictly later gates *)
    for w = 0 to Array.length pend - 1 do
      while Array.unsafe_get pend w <> 0 do
        let pw = Array.unsafe_get pend w in
        let gi = (w lsl 5) lor ctz32 pw in
        Array.unsafe_set pend w (pw land (pw - 1));
        let o = Array.unsafe_get out gi in
        let in_cone = bit_set gmask gi in
        let gvalue = eval_gate ops gv base gi in
        let fvalue =
          if o = site then sv
          else if in_cone then eval_gate ops fv base gi
          else gvalue
        in
        let og = Array.unsafe_get gv (base + o)
        and off = Array.unsafe_get fv (base + o) in
        if og <> gvalue || off <> fvalue then begin
          Array.unsafe_set gv (base + o) gvalue;
          Array.unsafe_set fv (base + o) fvalue;
          touch o
        end;
        if in_cone then begin
          let r = last - gi in
          let wi = fbase + (r lsr 5) and b = 1 lsl (r land 31) in
          let m = Array.unsafe_get front wi in
          let m' =
            if on_frontier gv fv ops base gi then m lor b else m land lnot b
          in
          if m' <> m then Array.unsafe_set front wi m'
        end
      done
    done;
    (* swap the dff buffers for the next frame *)
    let t = !cur in
    cur := !nxt;
    nxt := t
  done;
  (* discard propagation beyond the last frame *)
  Array.fill !cur 0 (Array.length !cur) 0;
  Array.fill !nxt 0 (Array.length !nxt) 0

let simulate_cone ctx =
  (if not ctx.swept then begin
     ctx.swept <- true;
     sweep_cone_all ctx
   end
   else sweep_events ctx);
  ctx.pending <- []

let detected_cone ctx =
  let pos = ctx.cone_pos in
  let rec frame f =
    if f >= ctx.frames then false
    else begin
      let base = f * ctx.n in
      let rec po i =
        if i >= Array.length pos then false
        else
          let g = ctx.gv.(base + pos.(i)) and fl = ctx.fv.(base + pos.(i)) in
          (g <> x && fl <> x && g <> fl) || po (i + 1)
      in
      po 0 || frame (f + 1)
    end
  in
  frame 0

let simulate ctx =
  ctx.implications <- ctx.implications + 1;
  if ctx.use_cone then simulate_cone ctx else simulate_full ctx

let detected ctx = if ctx.use_cone then detected_cone ctx else detected_full ctx

(* The first of a gate's inputs [a], [b], [c2] (-1 when unused) that is
   X in the good plane of the frame at [base], or -1. The compiled
   [in0]/[in1]/[in2] hold a gate's inputs in list order, so this picks
   the net [List.find_opt] picks in the [`Full] engine. *)
let first_x gv base a b c2 =
  if gv.(base + a) = x then a
  else if b >= 0 && gv.(base + b) = x then b
  else if c2 >= 0 && gv.(base + c2) = x then c2
  else -1

(* Walks an objective back to an unassigned primary input; [None] when it
   dead-ends (frame-0 state or fully determined cone). The array twin of
   [backtrace_full]. *)
let backtrace ctx f0 net0 v0 =
  let p = ctx.p in
  let { Sim.n_gates; kind; in0; in1; in2; _ } = p.ops in
  let gv = ctx.gv and n = ctx.n in
  let dffs = p.c.Netlist.dffs in
  let rec walk f net v guard =
    if guard <= 0 then None
    else begin
      let base = f * n in
      if bit_set p.is_pi net then
        if ctx.asg.(base + net) <> x then None else Some (f, net, v)
      else
        let d = p.dff_of_q.(net) in
        if d >= 0 then
          if f = 0 then None
          else walk (f - 1) dffs.(d).Netlist.d_input v (guard - 1)
        else
          let gi = p.driver_ix.(net) in
          if gi < 0 then None (* constant *)
          else begin
            let a = in0.(gi) and b = in1.(gi) and c2 = in2.(gi) in
            match kind.(gi) with
            | 6 (* not *) -> walk f a (t_not v) (guard - 1)
            | 7 (* buf *) -> walk f a v (guard - 1)
            | (0 | 1 | 2 | 3) as k (* and/or/nand/nor *) ->
              let v' = if k >= 2 then t_not v else v in
              let xi = first_x gv base a b c2 in
              if xi < 0 then None else walk f xi v' (guard - 1)
            | (4 | 5) as k (* xor/xnor *) ->
              let v' = if k = 5 then t_not v else v in
              let ga = gv.(base + a) and gb = gv.(base + b) in
              if ga = x && gb <> x then walk f a (t_xor v' gb) (guard - 1)
              else if gb = x && ga <> x then walk f b (t_xor v' ga) (guard - 1)
              else if ga = x then walk f a 0 (guard - 1)
              else None
            | _ (* mux2: a=select, b/c2=data *) -> begin
              match gv.(base + a) with
              | 0 -> walk f b v (guard - 1)
              | 1 -> walk f c2 v (guard - 1)
              | _ ->
                let gb = gv.(base + b) and gc = gv.(base + c2) in
                if gb = v then walk f a 0 (guard - 1)
                else if gc = v then walk f a 1 (guard - 1)
                else if gc = x then walk f a 1 (guard - 1)
                else if gb = x then walk f a 0 (guard - 1)
                else None
            end
          end
    end
  in
  walk f0 net0 v0 (ctx.frames * (n_gates + n) + 16)

(* The D-frontier walk fused with the backtrace: candidates come from
   the frontier index in the order the materialized list of
   [objectives_full] holds them — latest frame first, deepest gate first
   — and the walk stops at the first whose backtrace reaches an
   unassigned PI. *)
let fused_dfrontier ctx =
  let p = ctx.p in
  let { Sim.n_gates; kind; in0; in1; in2; _ } = p.ops in
  let gv = ctx.gv and fv = ctx.fv and front = p.front and fw = p.fw in
  let rec frame f =
    if f < 0 then None
    else begin
      let base = f * ctx.n in
      let carries_d net = carries_d gv fv (base + net) in
      let pick gi =
        let a = in0.(gi) and b = in1.(gi) and c2 = in2.(gi) in
        let x_input v =
          let xi = first_x gv base a b c2 in
          if xi < 0 then None else Some (xi, v)
        in
        match kind.(gi) with
        | 0 | 2 (* and/nand *) -> x_input 1
        | 1 | 3 (* or/nor *) -> x_input 0
        | 4 | 5 (* xor/xnor *) -> x_input 0
        | 6 | 7 (* not/buf *) -> None
        | _ (* mux2: a=select, b/c2=data *) ->
          if gv.(base + a) = x then begin
            if carries_d b then Some (a, 0)
            else if carries_d c2 then Some (a, 1)
            else Some (a, 0)
          end
          else if gv.(base + a) = 0 && gv.(base + b) = x then Some (b, 0)
          else if gv.(base + a) = 1 && gv.(base + c2) = x then Some (c2, 0)
          else None
      in
      let rec word w =
        if w >= fw then frame (f - 1) else bits w front.((f * fw) + w)
      and bits w m =
        if m = 0 then word (w + 1)
        else begin
          let gi = n_gates - 1 - ((w lsl 5) lor ctz32 m) in
          let next = m land (m - 1) in
          match pick gi with
          | Some (net, v) -> begin
            match backtrace ctx f net v with
            | Some pi -> Some pi
            | None -> bits w next
          end
          | None -> bits w next
        end
      in
      word 0
    end
  in
  frame (ctx.frames - 1)

(* Number of gates on the D-frontier, over all frames (debug log). *)
let frontier_size ctx =
  let rec pop m = if m = 0 then 0 else 1 + pop (m land (m - 1)) in
  Array.fold_left (fun acc m -> acc + pop m) 0
    (Array.sub ctx.p.front 0 (ctx.frames * ctx.p.fw))

let extract_test ctx =
  let p = ctx.p in
  let frame f =
    let base = f * ctx.n in
    Array.fold_right
      (fun net acc ->
        let v = ctx.asg.(base + net) in
        if v = x then acc else (net, v = 1) :: acc)
      p.pi_arr []
    |> List.sort compare
  in
  { t_frames = Array.init ctx.frames frame }

let debug = (try Sys.getenv "PODEM_DEBUG" = "1" with Not_found -> false)

let search ctx ~max_backtracks ~max_implications =
  (* decision stack: (frame, net, value, already flipped) *)
  let stack = ref [] in
  simulate ctx;
  let set f net v =
    ctx.asg.((f * ctx.n) + net) <- v;
    ctx.pending <- (f, net) :: ctx.pending
  in
  let assign f net v = set f net (if v then 1 else 0) in
  let rec backtrack () =
    match !stack with
    | [] -> `No_test
    | (f, net, v, flipped) :: rest ->
      stack := rest;
      set f net x;
      if flipped then backtrack ()
      else begin
        ctx.backtracks <- ctx.backtracks + 1;
        if ctx.backtracks > max_backtracks then `Abort
        else begin
          let v' = not v in
          assign f net v';
          stack := (f, net, v', true) :: !stack;
          simulate ctx;
          `Continue
        end
      end
  in
  let trace = if ctx.use_cone then backtrace else backtrace_full in
  let rec first_reachable = function
    | [] -> None
    | (f, net, v) :: rest -> begin
      match trace ctx f net v with
      | Some pi -> Some pi
      | None -> first_reachable rest
    end
  in
  let log what size =
    Printf.eprintf "%s=%d stack=%d bts=%d site_gv(f*)=%s\n%!" what size
      (List.length !stack) ctx.backtracks
      (String.concat ","
         (List.init ctx.frames (fun f ->
              string_of_int ctx.gv.((f * ctx.n) + ctx.site))))
  in
  let rec loop () =
    if detected ctx then `Detected (extract_test ctx)
    else if ctx.implications > max_implications then `Abort
    else begin
      (* activation: some frame carries D at the fault site *)
      let site_d f =
        let i = f * ctx.n + ctx.site in
        ctx.gv.(i) <> x && ctx.gv.(i) <> ctx.sv && ctx.fv.(i) = ctx.sv
      in
      let activated = ref false in
      for f = 0 to ctx.frames - 1 do
        if site_d f then activated := true
      done;
      let decision =
        if !activated && ctx.use_cone then begin
          if debug then log "frontier" (frontier_size ctx);
          fused_dfrontier ctx
        end
        else begin
          let objs =
            if !activated then objectives_full ctx
            else
              (* every frame where the good value at the site is still X *)
              List.filter_map
                (fun f ->
                  if ctx.gv.((f * ctx.n) + ctx.site) = x then
                    Some (f, ctx.site, 1 - ctx.sv)
                  else None)
                (List.init ctx.frames Fun.id)
          in
          if debug then log "objs" (List.length objs);
          first_reachable objs
        end
      in
      match decision with
      | None -> begin
        if debug then Printf.eprintf "  no reachable objective -> backtrack\n%!";
        match backtrack () with
        | `No_test -> `No_test
        | `Abort -> `Abort
        | `Continue -> loop ()
      end
      | Some (fa, pi, v) ->
        if debug then Printf.eprintf "  assign f%d pi%d := %d\n%!" fa pi v;
        let bv = v = 1 in
        assign fa pi bv;
        stack := (fa, pi, bv, false) :: !stack;
        simulate ctx;
        loop ()
    end
  in
  loop ()

let generate ?(max_implications = 1500) ?(engine = `Cone) p ~max_backtracks
    fault =
  let cone = Sim.cone p.sim fault.Fault.f_net in
  Bytes.fill p.cone_gate_mask 0 (Bytes.length p.cone_gate_mask) '\000';
  Array.iter (bit_add p.cone_gate_mask) (Sim.cone_gates cone);
  let implications = ref 0 and backtracks = ref 0 in
  let any_abort = ref false in
  (* Each unrolling depth gets its own backtrack budget (an exhausted
     search at a shallow depth says nothing about deeper ones, where the
     extra frames make state controllable); the implication budget is
     shared across depths so one hard fault cannot dominate the run. *)
  let rec try_frames k =
    if k > p.max_frames then
      ( (if !any_abort then Aborted else No_test_in_frames),
        { implications = !implications; backtracks = !backtracks } )
    else begin
      let ctx = make_ctx ~engine p fault cone k in
      let outcome =
        search ctx ~max_backtracks
          ~max_implications:(max 1 (max_implications - !implications))
      in
      implications := !implications + ctx.implications;
      backtracks := !backtracks + ctx.backtracks;
      match outcome with
      | `Detected test ->
        (Detected test, { implications = !implications; backtracks = !backtracks })
      | `Abort ->
        any_abort := true;
        try_frames (k + 1)
      | `No_test -> try_frames (k + 1)
    end
  in
  try_frames 1
