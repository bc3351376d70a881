open Rt_model
open Let_sem

(* The paper's MILP (Section VI): memory allocation (adjacency AD /
   position PL variables), assignment of communications to ordered DMA
   transfer slots (CG / RG variables), LET ordering (Constraints 7-8),
   data-acquisition deadlines (Constraint 9) and Property 3 (Constraint
   10). Constraint 6 (contiguity of every transfer at every instant) can
   be generated upfront or lazily by {!Solve} (see DESIGN.md).

   Times inside the MILP are float microseconds (numerically friendlier
   than nanoseconds against big-M constants); the conversion happens only
   here. *)

module P = Milp.Problem
module L = Milp.Linexpr

type objective = No_obj | Min_transfers | Min_delay_ratio

let objective_name = function
  | No_obj -> "NO-OBJ"
  | Min_transfers -> "OBJ-DMAT"
  | Min_delay_ratio -> "OBJ-DEL"

(* The wire and CLI names of the objectives. *)
let objective_flags =
  [ ("no-obj", No_obj); ("dmat", Min_transfers); ("del", Min_delay_ratio) ]

type options = {
  strict_property3 : bool;
      (* true (default): Constraint 10 bounds the last transfer of the
         instant; false: the paper's literal form (last LET read) *)
  full_c6 : bool; (* generate every Constraint 6 instance upfront *)
}

let default_options = { strict_property3 = true; full_c6 = false }

(* Chain nodes for the adjacency encoding: two dummy labels delimit each
   memory's placement chain, as in the paper's Constraint 4. *)
type node = Bottom | Top | Lab of int

type instance = {
  app : App.t;
  groups : Groups.t;
  gamma : Time.t array;
  options : options;
  objective : objective;
  problem : P.t;
  comms : Comm.t array; (* C(s0) *)
  comm_index : int Comm.Map.t;
  classes : (int * Comm.direction) array;
  class_of : int array; (* comm index -> class index *)
  g_max : int; (* transfer slots: |C(s0)| *)
  mems : Platform.memory array; (* memories holding labels *)
  mem_index : (Platform.memory, int) Hashtbl.t;
  mem_labels : int list array; (* real label ids per memory *)
  cg : int array array; (* [z].[g] binary *)
  u_slot : int array array; (* [g].[class] binary *)
  next_var : (int * node * node, int) Hashtbl.t; (* (mem, a, b): b right after a *)
  pl_var : (int * node, int) Hashtbl.t;
  ready_set : int list array; (* per task: comm indices defining readiness *)
  rg : int array array; (* [task].[g] binary; [||] when task has no comms *)
  lambda_var : int array; (* per task; -1 when absent *)
  lg_memo : (int * int * int, int) Hashtbl.t; (* (star label, z, g) -> var *)
  c6_done : (string, unit) Hashtbl.t; (* dedup of generated C6 blocks *)
  mutable vp_vars : (int * int list) list;
      (* Constraint 10 auxiliaries: (variable, relevant comm indices) *)
  lambda_o_us : float;
  omega_us_per_byte : float;
  total_bytes : int;
}

let us_of_time t = Time.to_us_float t

(* --- small accessors ------------------------------------------------ *)

let size_of inst z = Comm.size inst.app inst.comms.(z)

let cgi_expr inst z =
  L.of_list
    (List.init inst.g_max (fun g -> (float_of_int g, inst.cg.(z).(g))))

let rgi_expr inst i =
  L.of_list (List.init inst.g_max (fun g -> (float_of_int g, inst.rg.(i).(g))))

let node_name = function
  | Bottom -> "BOT"
  | Top -> "TOP"
  | Lab l -> string_of_int l

let next inst m a b =
  match Hashtbl.find_opt inst.next_var (m, a, b) with
  | Some v -> v
  | None -> invalid_arg "Formulation.next: no such adjacency variable"

let next_opt inst m a b = Hashtbl.find_opt inst.next_var (m, a, b)

let mem_idx inst m =
  match Hashtbl.find_opt inst.mem_index m with
  | Some i -> i
  | None -> invalid_arg "Formulation.mem_idx: memory holds no labels"

(* --- construction ---------------------------------------------------- *)

let find_class classes c =
  let rec go i = if classes.(i) = c then i else go (i + 1) in
  go 0

let build ?(options = default_options) objective app groups ~gamma =
  let comms = Array.of_list (Comm.Set.elements (Groups.s0 groups)) in
  let n_comms = Array.length comms in
  if n_comms = 0 then invalid_arg "Formulation.build: no inter-core communications";
  (* the encoding requires at most one reader per core for each label *)
  List.iter
    (fun (l : Label.t) ->
      let cores = List.map (App.core_of app) (App.inter_core_readers app l) in
      if List.length cores <> List.length (List.sort_uniq Int.compare cores) then
        invalid_arg
          (Fmt.str
             "Formulation.build: label %s has several readers on one core \
              (unsupported: they would share the local copy)"
             l.Label.name))
    (App.inter_core_labels app);
  let comm_index =
    Array.to_list comms
    |> List.mapi (fun i c -> (c, i))
    |> List.fold_left (fun m (c, i) -> Comm.Map.add c i m) Comm.Map.empty
  in
  let classes =
    Array.to_list comms
    |> List.map (fun c -> Comm.cls app c)
    |> List.sort_uniq compare |> Array.of_list
  in
  let class_of =
    Array.map (fun c -> find_class classes (Comm.cls app c)) comms
  in
  (* one transfer slot per communication suffices *)
  let g_max = n_comms in
  let platform = App.platform app in
  let lambda_o_us = us_of_time (Platform.lambda_o platform) in
  let omega_us_per_byte = platform.Platform.dma_ns_per_byte /. 1000.0 in
  let total_bytes =
    Array.to_list comms
    |> List.fold_left (fun acc c -> acc + Comm.size app c) 0
  in
  (* big-M large enough for Constraint 9's disabled branches *)
  let m9 =
    (float_of_int (g_max + 1) *. lambda_o_us)
    +. (omega_us_per_byte *. float_of_int total_bytes)
    +. 1.0
  in
  let problem = P.create ~big_m:m9 () in
  (* memories and their labels *)
  let mems =
    Platform.memories platform
    |> List.filter (fun m -> Mem_layout.Layout.expected_labels app m <> [])
    |> Array.of_list
  in
  let mem_index = Hashtbl.create 8 in
  Array.iteri (fun i m -> Hashtbl.replace mem_index m i) mems;
  let mem_labels =
    Array.map (fun m -> Mem_layout.Layout.expected_labels app m) mems
  in
  (* CG variables *)
  let cg =
    Array.init n_comms (fun z ->
        Array.init g_max (fun g ->
            P.binary ~name:(Fmt.str "CG_%d_%d" z g) problem))
  in
  (* slot-class variables *)
  let u_slot =
    Array.init g_max (fun g ->
        Array.init (Array.length classes) (fun k ->
            P.binary ~name:(Fmt.str "U_%d_%d" g k) problem))
  in
  (* adjacency and position variables per memory *)
  let next_var = Hashtbl.create 256 in
  let pl_var = Hashtbl.create 64 in
  Array.iteri
    (fun mi labels ->
      let nodes = Bottom :: Top :: List.map (fun l -> Lab l) labels in
      List.iter
        (fun a ->
          (match a with
           | Bottom ->
             ignore
               (Hashtbl.add pl_var (mi, a)
                  (P.continuous
                     ~name:(Fmt.str "PL_%d_%s" mi (node_name a))
                     ~lo:0.0 ~hi:0.0 problem))
           | Top ->
             let n = float_of_int (List.length labels + 1) in
             ignore
               (Hashtbl.add pl_var (mi, a)
                  (P.continuous
                     ~name:(Fmt.str "PL_%d_%s" mi (node_name a))
                     ~lo:n ~hi:n problem))
           | Lab _ ->
             ignore
               (Hashtbl.add pl_var (mi, a)
                  (P.continuous
                     ~name:(Fmt.str "PL_%d_%s" mi (node_name a))
                     ~lo:1.0
                     ~hi:(float_of_int (List.length labels))
                     problem)));
          List.iter
            (fun b ->
              (* b immediately after a: forbid self, into-Bottom, out-of-Top *)
              if a <> b && b <> Bottom && a <> Top
                 && not (a = Bottom && b = Top && labels <> [])
              then
                Hashtbl.add next_var (mi, a, b)
                  (P.binary
                     ~name:(Fmt.str "AD_%d_%s_%s" mi (node_name a) (node_name b))
                     problem))
            nodes)
        nodes)
    mem_labels;
  (* readiness sets: the paper's last-read when the task reads at s0, its
     writes otherwise (rule R1 makes write-only tasks wait for their own
     writes; with Constraint 7 the two coincide for tasks that read) *)
  let n_tasks = App.num_tasks app in
  let ready_set = Array.make n_tasks [] in
  let reads_of = Array.make n_tasks [] in
  let writes_of = Array.make n_tasks [] in
  Array.iteri
    (fun z (c : Comm.t) ->
      match c.Comm.kind with
      | Comm.Read -> reads_of.(c.Comm.task) <- z :: reads_of.(c.Comm.task)
      | Comm.Write -> writes_of.(c.Comm.task) <- z :: writes_of.(c.Comm.task))
    comms;
  for i = 0 to n_tasks - 1 do
    ready_set.(i) <- (if reads_of.(i) <> [] then reads_of.(i) else writes_of.(i))
  done;
  let rg =
    Array.init n_tasks (fun i ->
        if ready_set.(i) = [] then [||]
        else
          Array.init g_max (fun g ->
              P.binary ~name:(Fmt.str "RG_%d_%d" i g) problem))
  in
  let lambda_var =
    Array.init n_tasks (fun i ->
        if ready_set.(i) = [] then -1
        else
          P.continuous ~name:(Fmt.str "lambda_%d" i) ~lo:0.0
            ~hi:(us_of_time gamma.(i)) problem)
  in
  let inst =
    {
      app;
      groups;
      gamma;
      options;
      objective;
      problem;
      comms;
      comm_index;
      classes;
      class_of;
      g_max;
      mems;
      mem_index;
      mem_labels;
      cg;
      u_slot;
      next_var;
      pl_var;
      ready_set;
      rg;
      lambda_var;
      lg_memo = Hashtbl.create 256;
      c6_done = Hashtbl.create 64;
      vp_vars = [];
      lambda_o_us;
      omega_us_per_byte;
      total_bytes;
    }
  in
  inst

(* --- constraint groups ----------------------------------------------- *)

(* Constraint 1 + class consistency: each communication sits in exactly
   one slot, and a slot carries a single (memory, direction) class. *)
let add_c1_and_classes inst =
  let p = inst.problem in
  Array.iteri
    (fun z row ->
      ignore
        (P.add_constr ~name:(Fmt.str "C1_%d" z) p
           (L.of_list (Array.to_list (Array.map (fun v -> (1.0, v)) row)))
           P.Eq 1.0);
      (* CG_{z,g} <= U_{g, class(z)} *)
      Array.iteri
        (fun g v ->
          ignore
            (P.add_constr ~name:(Fmt.str "CLS_%d_%d" z g) p
               (L.sub (L.var v) (L.var inst.u_slot.(g).(inst.class_of.(z))))
               P.Le 0.0))
        row)
    inst.cg;
  Array.iteri
    (fun g urow ->
      ignore
        (P.add_constr ~name:(Fmt.str "CLS1_%d" g) p
           (L.of_list (Array.to_list (Array.map (fun v -> (1.0, v)) urow)))
           P.Le 1.0))
    inst.u_slot;
  (* a used slot may not follow an empty one: sum_z CG_{z,g+1} <= |C| sum_z CG_{z,g} *)
  for g = 0 to inst.g_max - 2 do
    let nc = float_of_int (Array.length inst.comms) in
    let lhs =
      L.of_list
        (Array.to_list (Array.map (fun row -> (1.0, row.(g + 1))) inst.cg))
    in
    let rhs =
      L.of_list (Array.to_list (Array.map (fun row -> (nc, row.(g))) inst.cg))
    in
    ignore
      (P.add_constr ~name:(Fmt.str "COMPRESS_%d" g) inst.problem
         (L.sub lhs rhs) P.Le 0.0)
  done

(* Constraints 2 and 3: RG is an indicator of the slot holding the last
   ready-relevant communication of each task. *)
let add_c2_c3 inst =
  let p = inst.problem in
  Array.iteri
    (fun i row ->
      if row <> [||] then begin
        ignore
          (P.add_constr ~name:(Fmt.str "C2_%d" i) p
             (L.of_list (Array.to_list (Array.map (fun v -> (1.0, v)) row)))
             P.Eq 1.0);
        (* RGI_i >= CGI_z for every ready-relevant z *)
        List.iter
          (fun z ->
            ignore
              (P.add_constr ~name:(Fmt.str "C3a_%d_%d" i z) p
                 (L.sub (rgi_expr inst i) (cgi_expr inst z))
                 P.Ge 0.0))
          inst.ready_set.(i);
        (* the chosen slot must contain at least one ready-relevant comm *)
        Array.iteri
          (fun g v ->
            let cover =
              L.of_list
                (List.map (fun z -> (1.0, inst.cg.(z).(g))) inst.ready_set.(i))
            in
            ignore
              (P.add_constr ~name:(Fmt.str "C3b_%d_%d" i g) p
                 (L.sub (L.var v) cover) P.Le 0.0))
          row
      end)
    inst.rg

(* Hash-table iteration order depends on internal layout, not on the
   model; emitting constraints (or decoding chains) in that order would
   make the constraint order — and with it the simplex trajectory and
   branch-and-bound node counts — vary between builds of the very same
   instance. Every iteration over a keyed table below goes through its
   sorted bindings instead. *)
let sorted_bindings tbl =
  List.sort
    (fun (k1, _) (k2, _) -> compare k1 k2)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Constraints 4 and 5: each memory's labels form a single chain from the
   bottom dummy to the top dummy, with consistent positions. *)
let add_c4_c5 inst =
  let p = inst.problem in
  Array.iteri
    (fun mi labels ->
      let nodes = Bottom :: Top :: List.map (fun l -> Lab l) labels in
      let n = List.length labels in
      let bigm = float_of_int (n + 2) in
      (* out-degree: every node except Top has exactly one successor *)
      List.iter
        (fun a ->
          if a <> Top then begin
            let succs =
              List.filter_map (fun b -> next_opt inst mi a b) nodes
            in
            ignore
              (P.add_constr ~name:(Fmt.str "C4out_%d_%s" mi (node_name a)) p
                 (L.of_list (List.map (fun v -> (1.0, v)) succs))
                 P.Eq 1.0)
          end)
        nodes;
      (* in-degree: every node except Bottom has exactly one predecessor *)
      List.iter
        (fun b ->
          if b <> Bottom then begin
            let preds =
              List.filter_map (fun a -> next_opt inst mi a b) nodes
            in
            ignore
              (P.add_constr ~name:(Fmt.str "C4in_%d_%s" mi (node_name b)) p
                 (L.of_list (List.map (fun v -> (1.0, v)) preds))
                 P.Eq 1.0)
          end)
        nodes;
      (* position linking (MTZ): next(a,b) = 1 => PL_b = PL_a + 1 *)
      List.iter
        (fun ((mi', a, b), v) ->
          if mi' = mi then begin
            let pa = Hashtbl.find inst.pl_var (mi, a) in
            let pb = Hashtbl.find inst.pl_var (mi, b) in
            let diff = L.sub (L.var pb) (L.var pa) in
            P.add_implies_ge ~name:(Fmt.str "C5a_%d" v) ~m:bigm p v diff 1.0;
            P.add_implies_le ~name:(Fmt.str "C5b_%d" v) ~m:bigm p v diff 1.0
          end)
        (sorted_bindings inst.next_var))
    inst.mem_labels

(* Constraints 7 and 8: LET ordering at s0. *)
let add_c7_c8 inst =
  let p = inst.problem in
  let n_tasks = App.num_tasks inst.app in
  let writes = Array.make n_tasks [] and reads = Array.make n_tasks [] in
  Array.iteri
    (fun z (c : Comm.t) ->
      match c.Comm.kind with
      | Comm.Write -> writes.(c.Comm.task) <- z :: writes.(c.Comm.task)
      | Comm.Read -> reads.(c.Comm.task) <- z :: reads.(c.Comm.task))
    inst.comms;
  (* Property 1: CGI_w + 1 <= CGI_r for every write/read pair of a task *)
  for i = 0 to n_tasks - 1 do
    List.iter
      (fun w ->
        List.iter
          (fun r ->
            ignore
              (P.add_constr ~name:(Fmt.str "C7_%d_%d_%d" i w r) p
                 (L.sub (cgi_expr inst r) (cgi_expr inst w))
                 P.Ge 1.0))
          reads.(i))
      writes.(i)
  done;
  (* Property 2: per label, the write precedes every read *)
  Array.iteri
    (fun w (cw : Comm.t) ->
      if cw.Comm.kind = Comm.Write then
        Array.iteri
          (fun r (cr : Comm.t) ->
            if cr.Comm.kind = Comm.Read && cr.Comm.label = cw.Comm.label then
              ignore
                (P.add_constr ~name:(Fmt.str "C8_%d_%d" w r) p
                   (L.sub (cgi_expr inst r) (cgi_expr inst w))
                   P.Ge 1.0))
          inst.comms)
    inst.comms

(* Constraint 9: data-acquisition deadlines at s0. *)
let add_c9 inst =
  let p = inst.problem in
  let m9 = P.big_m p in
  Array.iteri
    (fun i row ->
      if row <> [||] then begin
        let lam = inst.lambda_var.(i) in
        for gbar = 0 to inst.g_max - 1 do
          (* lambda_i >= (RGI_i + 1) lambda_O
                         + omega * sum_{g<=gbar} sum_z sigma_z CG_{z,g}
                         - (1 - RG_{i,gbar}) M *)
          let copy_terms =
            List.concat
              (List.init (gbar + 1) (fun g ->
                   List.init
                     (Array.length inst.comms)
                     (fun z ->
                       ( inst.omega_us_per_byte *. float_of_int (size_of inst z),
                         inst.cg.(z).(g) ))))
          in
          let rhs =
            L.add
              (L.scale inst.lambda_o_us (L.add_const (rgi_expr inst i) 1.0))
              (L.of_list copy_terms)
          in
          let rhs = L.add_term rhs m9 row.(gbar) in
          (* lambda_i - rhs >= -M  <=>  lambda >= rhs - (1-RG) M *)
          ignore
            (P.add_constr ~name:(Fmt.str "C9_%d_%d" i gbar) p
               (L.sub (L.var lam) rhs) P.Ge (-.m9))
        done
        (* lambda_i <= gamma_i is the variable's upper bound *)
      end)
    inst.rg

(* Constraint 10 (Property 3): every pattern's burst fits in its tightest
   gap. In strict mode the last *transfer* is bounded (sound); the paper's
   literal form bounds the last LET read instead. Patterns dominated by a
   superset pattern with a smaller gap are pruned. *)
let add_c10 inst =
  let p = inst.problem in
  let patterns = Groups.patterns inst.groups in
  (* pa is implied by pb when pb covers at least pa's communications and
     must finish within at most pa's gap (patterns are distinct sets) *)
  let dominated (pa : Groups.pattern) =
    List.exists
      (fun (pb : Groups.pattern) ->
        pb != pa
        && Comm.Set.subset pa.Groups.comms pb.Groups.comms
        && Time.compare pb.Groups.min_gap pa.Groups.min_gap <= 0)
      patterns
  in
  List.iteri
    (fun pi (pat : Groups.pattern) ->
      if not (dominated pat) then begin
        let members =
          Comm.Set.elements pat.Groups.comms
          |> List.map (fun c -> Comm.Map.find c inst.comm_index)
        in
        let relevant =
          if inst.options.strict_property3 then members
          else
            List.filter
              (fun z -> inst.comms.(z).Comm.kind = Comm.Read)
              members
        in
        match relevant with
        | [] -> ()
        | _ ->
          let v =
            P.continuous ~name:(Fmt.str "VP_%d" pi) ~lo:0.0
              ~hi:(float_of_int (inst.g_max - 1))
              p
          in
          List.iter
            (fun z ->
              ignore
                (P.add_constr ~name:(Fmt.str "C10a_%d_%d" pi z) p
                   (L.sub (L.var v) (cgi_expr inst z))
                   P.Ge 0.0))
            relevant;
          let bytes =
            Comm.Set.elements pat.Groups.comms
            |> List.fold_left (fun acc c -> acc + Comm.size inst.app c) 0
          in
          let gap_us = us_of_time pat.Groups.min_gap in
          (* (V + 1) lambda_O + omega * bytes <= gap *)
          ignore
            (P.add_constr ~name:(Fmt.str "C10b_%d" pi) p
               (L.scale inst.lambda_o_us (L.add_const (L.var v) 1.0))
               P.Le
               (gap_us -. (inst.omega_us_per_byte *. float_of_int bytes)));
          inst.vp_vars <- (v, relevant) :: inst.vp_vars
      end)
    patterns

(* --- Constraint 6 ----------------------------------------------------- *)

(* LG^z_{star} at slot g: continuous in [0,1], upper-bounded by the three
   conjuncts (label(z) right below [star] in global AND in the class's
   local memory, and comm z in slot g). Appears only on >=-sides, so no
   lower bound is needed. *)
let lg_var inst ~star ~z ~g =
  match Hashtbl.find_opt inst.lg_memo (star, z, g) with
  | Some v -> v
  | None ->
    let p = inst.problem in
    let c = inst.comms.(z) in
    let lz = c.Comm.label in
    let mg = mem_idx inst Platform.Global in
    let ml =
      mem_idx inst
        (Platform.Local (Comm.local_core inst.app c))
    in
    let v =
      P.continuous ~name:(Fmt.str "LG_%d_%d_%d" star z g) ~lo:0.0 ~hi:1.0 p
    in
    (match next_opt inst mg (Lab lz) (Lab star) with
     | Some adj ->
       ignore (P.add_constr p (L.sub (L.var v) (L.var adj)) P.Le 0.0)
     | None -> P.set_bounds ~hi:0.0 p v);
    (match next_opt inst ml (Lab lz) (Lab star) with
     | Some adj ->
       ignore (P.add_constr p (L.sub (L.var v) (L.var adj)) P.Le 0.0)
     | None -> P.set_bounds ~hi:0.0 p v);
    ignore (P.add_constr p (L.sub (L.var v) (L.var inst.cg.(z).(g))) P.Le 0.0);
    Hashtbl.replace inst.lg_memo (star, z, g) v;
    v

(* Add the Constraint 6 instances for one (pattern, class): for each pair
   of same-class communications present in the pattern and every slot g,
   if both are in slot g then some pattern communication of the class must
   sit right below one of the two labels in both memories. *)
let add_c6_for inst (pat : Groups.pattern) cls =
  let key =
    Fmt.str "%d|%a" (find_class inst.classes cls)
      Fmt.(list ~sep:(any ",") Comm.pp_plain)
      (Comm.Set.elements pat.Groups.comms)
  in
  if Hashtbl.mem inst.c6_done key then 0
  else begin
    Hashtbl.replace inst.c6_done key ();
    let members =
      Comm.Set.elements pat.Groups.comms
      |> List.filter (fun c -> Comm.cls inst.app c = cls)
      |> List.map (fun c -> Comm.Map.find c inst.comm_index)
    in
    let added = ref 0 in
    let rec pairs = function
      | [] -> ()
      | zi :: rest ->
        List.iter
          (fun zj ->
            let la = inst.comms.(zi).Comm.label in
            let lb = inst.comms.(zj).Comm.label in
            for g = 0 to inst.g_max - 1 do
              let rhs_terms =
                List.concat_map
                  (fun z ->
                    let lz = inst.comms.(z).Comm.label in
                    let t1 =
                      if lz <> la then [ (1.0, lg_var inst ~star:la ~z ~g) ]
                      else []
                    in
                    let t2 =
                      if lz <> lb then [ (1.0, lg_var inst ~star:lb ~z ~g) ]
                      else []
                    in
                    t1 @ t2)
                  members
              in
              (* CG_i,g + CG_j,g - 1 <= sum LG *)
              ignore
                (P.add_constr
                   ~name:(Fmt.str "C6_%d_%d_%d" zi zj g)
                   inst.problem
                   (L.sub
                      (L.of_list [ (1.0, inst.cg.(zi).(g)); (1.0, inst.cg.(zj).(g)) ])
                      (L.of_list rhs_terms))
                   P.Le 1.0);
              incr added
            done)
          rest;
        pairs rest
    in
    pairs members;
    !added
  end

(* All Constraint 6 instances (the paper's full formulation). *)
let add_c6_full inst =
  let total = ref 0 in
  List.iter
    (fun (pat : Groups.pattern) ->
      Array.iter
        (fun cls -> total := !total + add_c6_for inst pat cls)
        inst.classes)
    (Groups.patterns inst.groups);
  !total

(* --- objective -------------------------------------------------------- *)

let set_objective inst =
  let p = inst.problem in
  match inst.objective with
  | No_obj -> P.set_objective p P.Minimize L.zero
  | Min_transfers ->
    (* Eq. (4): minimize max_i RGI_i *)
    let w =
      P.continuous ~name:"OBJ_W" ~lo:0.0 ~hi:(float_of_int (inst.g_max - 1)) p
    in
    Array.iteri
      (fun i row ->
        if row <> [||] then
          ignore
            (P.add_constr ~name:(Fmt.str "OBJ4_%d" i) p
               (L.sub (L.var w) (rgi_expr inst i))
               P.Ge 0.0))
      inst.rg;
    P.set_objective p P.Minimize (L.var w)
  | Min_delay_ratio ->
    (* Eq. (5): minimize max_i lambda_i / T_i *)
    let l = P.continuous ~name:"OBJ_L" ~lo:0.0 p in
    Array.iteri
      (fun i lam ->
        if lam >= 0 then begin
          let ti = us_of_time (App.task inst.app i).Task.period in
          ignore
            (P.add_constr ~name:(Fmt.str "OBJ5_%d" i) p
               (L.sub (L.var l) (L.var ~coeff:(1.0 /. ti) lam))
               P.Ge 0.0)
        end)
      inst.lambda_var;
    P.set_objective p P.Minimize (L.var l)

(* A proven lower bound on the objective of every integer-feasible
   assignment, from the model's structure alone (no LP). A slot carries
   one class (CLS/CLS1), so communications of k classes fill at least k
   slots.
   - OBJ-DMAT: every communication sits in a slot <= max_i RGI_i (C3a for
     ready sets, C7 for the writes of a task that reads), so the K
     classes of C(s0) give max_i RGI_i >= K - 1.
   - OBJ-DEL: S_i, tau_i's ready set plus every write that C7 or C8
     orders before one of its reads, sits in slots <= RGI_i. The tasks
     share one DMA engine, so the floor is taken per period P over the
     union U_P of the S_i with T_i <= P (Lawler's backward rule for
     1|prec|f_max): of those tasks, the tau_j whose RGI is largest has
     every such S_i in slots <= RGI_j. C9 at gbar = RGI_j then charges
     lambda_j >= lambda_O |classes(U_P)| + omega bytes(U_P), one slot per
     class and every byte copied once (C1), and Eq. (5) divides by
     T_j <= P, so the objective is at least cost(U_P) / P. The P = T_i
     term with S_i alone is the per-task floor.
   The argument uses C1-C3, C7-C9 and the class rows only, so the floor
   holds under lazy Constraint-6 rows and either form of Constraint 10.
   Returned with the objective variable it bounds (OBJ_W or OBJ_L), so a
   caller can cap that variable at the floor. NO-OBJ has none. *)
let objective_floor inst =
  let var () =
    match L.terms (snd (P.objective inst.problem)) with
    | [ (_, v) ] -> v
    | _ -> invalid_arg "Formulation.objective_floor: objective is not one variable"
  in
  match inst.objective with
  | No_obj -> None
  | Min_transfers -> Some (var (), float_of_int (Array.length inst.classes - 1))
  | Min_delay_ratio ->
    let writes_before z =
      let r = inst.comms.(z) in
      List.filter
        (fun w ->
          let c = inst.comms.(w) in
          c.Comm.kind = Comm.Write
          && (c.Comm.task = r.Comm.task || c.Comm.label = r.Comm.label))
        (List.init (Array.length inst.comms) Fun.id)
    in
    (* (T_i, S_i) for every task with a ready set *)
    let sets =
      List.filter_map
        (fun i ->
          match inst.ready_set.(i) with
          | [] -> None
          | ready ->
            let reads =
              List.filter (fun z -> inst.comms.(z).Comm.kind = Comm.Read) ready
            in
            Some
              ( (App.task inst.app i).Task.period,
                ready @ List.concat_map writes_before reads ))
        (List.init (Array.length inst.ready_set) Fun.id)
    in
    let cost s =
      let s = List.sort_uniq Int.compare s in
      let classes =
        List.length
          (List.sort_uniq Int.compare (List.map (fun z -> inst.class_of.(z)) s))
      in
      let bytes = List.fold_left (fun acc z -> acc + size_of inst z) 0 s in
      (float_of_int classes *. inst.lambda_o_us)
      +. (inst.omega_us_per_byte *. float_of_int bytes)
    in
    let floor =
      List.fold_left
        (fun acc (p, _) ->
          let union =
            List.concat_map
              (fun (t, s) -> if Time.compare t p <= 0 then s else [])
              sets
          in
          Float.max acc (cost union /. us_of_time p))
        0.0 sets
    in
    Some (var (), floor)

(* Build the whole model (without Constraint 6 unless [full_c6]). *)
let make ?options objective app groups ~gamma =
  let inst = build ?options objective app groups ~gamma in
  add_c1_and_classes inst;
  add_c2_c3 inst;
  add_c4_c5 inst;
  add_c7_c8 inst;
  add_c9 inst;
  add_c10 inst;
  if inst.options.full_c6 then ignore (add_c6_full inst);
  set_objective inst;
  inst

(* --- decoding --------------------------------------------------------- *)

let chain_order inst x mi =
  let bindings = sorted_bindings inst.next_var in
  let rec follow acc node =
    let nexts =
      List.filter_map
        (fun ((mi', a, b), v) ->
          if mi' = mi && a = node && x.(v) > 0.5 then Some b else None)
        bindings
    in
    match nexts with
    | [ Top ] -> List.rev acc
    | [ Lab l ] -> follow (l :: acc) (Lab l)
    | [] -> List.rev acc (* numerically degenerate: stop *)
    | _ -> List.rev acc
  in
  follow [] Bottom

let decode inst x =
  let orders =
    Array.to_list
      (Array.mapi (fun mi m -> (m, chain_order inst x mi)) inst.mems)
  in
  let allocation = Mem_layout.Allocation.make inst.app orders in
  let slots = Array.make inst.g_max [] in
  Array.iteri
    (fun z row ->
      Array.iteri
        (fun g v -> if x.(v) > 0.5 then slots.(g) <- inst.comms.(z) :: slots.(g))
        row)
    inst.cg;
  Solution.make ~allocation ~slots

(* --- encoding (warm starts, feasibility tests) ------------------------ *)

(* Build a full variable assignment from a solution; returns None when the
   solution does not fit the instance's slot count. *)
let encode inst (sol : Solution.t) =
  let x = Array.make (P.num_vars inst.problem) 0.0 in
  let alloc = Solution.allocation sol in
  (* adjacency + positions *)
  Array.iteri
    (fun mi m ->
      let layout = Mem_layout.Allocation.layout alloc m in
      let order = Mem_layout.Layout.order layout in
      let nodes = (Bottom :: List.map (fun l -> Lab l) order) @ [ Top ] in
      let rec mark = function
        | a :: (b :: _ as rest) ->
          (match next_opt inst mi a b with
           | Some v -> x.(v) <- 1.0
           | None -> ());
          mark rest
        | [ _ ] | [] -> ()
      in
      mark nodes;
      List.iteri
        (fun i l -> x.(Hashtbl.find inst.pl_var (mi, Lab l)) <- float_of_int (i + 1))
        order;
      x.(Hashtbl.find inst.pl_var (mi, Bottom)) <- 0.0;
      x.(Hashtbl.find inst.pl_var (mi, Top)) <- float_of_int (List.length order + 1))
    inst.mems;
  (* slots *)
  let plan = Solution.s0_plan inst.app sol in
  if List.length plan > inst.g_max then None
  else begin
    let slot_of_comm = Hashtbl.create 64 in
    List.iteri
      (fun g transfer ->
        List.iter
          (fun c -> Hashtbl.replace slot_of_comm (Comm.Map.find c inst.comm_index) g)
          transfer)
      plan;
    let ok = ref true in
    Array.iteri
      (fun z _ ->
        match Hashtbl.find_opt slot_of_comm z with
        | Some g ->
          x.(inst.cg.(z).(g)) <- 1.0;
          x.(inst.u_slot.(g).(inst.class_of.(z))) <- 1.0
        | None -> ok := false)
      inst.comms;
    if not !ok then None
    else begin
      (* RG / lambda *)
      let slot_sizes = Array.make inst.g_max 0 in
      List.iteri
        (fun g transfer ->
          slot_sizes.(g) <- Properties.transfer_bytes inst.app transfer)
        plan;
      Array.iteri
        (fun i row ->
          if row <> [||] then begin
            let last =
              List.fold_left
                (fun acc z -> max acc (Hashtbl.find slot_of_comm z))
                0 inst.ready_set.(i)
            in
            x.(row.(last)) <- 1.0;
            let copies = ref 0 in
            for g = 0 to last do
              copies := !copies + slot_sizes.(g)
            done;
            let lam =
              (float_of_int (last + 1) *. inst.lambda_o_us)
              +. (inst.omega_us_per_byte *. float_of_int !copies)
            in
            x.(inst.lambda_var.(i)) <- lam
          end)
        inst.rg;
      (* Constraint 6 auxiliaries (present when C6 blocks have been
         generated): LG_{star,z,g} is the exact conjunction of the two
         adjacency literals and CG_{z,g} *)
      List.iter
        (fun ((star, z, g), v) ->
          let c = inst.comms.(z) in
          let lz = c.Comm.label in
          let in_slot =
            match Hashtbl.find_opt slot_of_comm z with
            | Some g' -> g' = g
            | None -> false
          in
          if in_slot then begin
            let adj m =
              let layout = Mem_layout.Allocation.layout alloc m in
              Mem_layout.Layout.adjacent_below layout ~a:star ~b:lz
            in
            if
              adj Platform.Global
              && adj (Platform.Local (Comm.local_core inst.app c))
            then x.(v) <- 1.0
          end)
        (sorted_bindings inst.lg_memo);
      (* Constraint 10 auxiliaries: exactly the max slot index among their
         relevant communications *)
      List.iter
        (fun (v, relevant) ->
          let m =
            List.fold_left
              (fun acc z -> max acc (Hashtbl.find slot_of_comm z))
              0 relevant
          in
          x.(v) <- float_of_int m)
        inst.vp_vars;
      (* objective auxiliaries *)
      P.iter_vars
        (fun j _ _ ->
          let name = P.var_name inst.problem j in
          if name = "OBJ_W" then begin
            let w = ref 0.0 in
            Array.iter
              (fun row ->
                Array.iteri
                  (fun g v -> if row <> [||] && x.(v) > 0.5 then w := Float.max !w (float_of_int g))
                  (if row = [||] then [||] else row))
              inst.rg;
            x.(j) <- !w
          end
          else if name = "OBJ_L" then begin
            let l = ref 0.0 in
            Array.iteri
              (fun i lam ->
                if lam >= 0 then
                  l :=
                    Float.max !l
                      (x.(lam) /. us_of_time (App.task inst.app i).Task.period))
              inst.lambda_var;
            x.(j) <- !l
          end)
        inst.problem;
      Some x
    end
  end

let stats_string inst =
  Fmt.str "%d vars, %d constraints, %d slots, %d comms, %d classes"
    (P.num_vars inst.problem)
    (P.num_constrs inst.problem)
    inst.g_max (Array.length inst.comms)
    (Array.length inst.classes)
