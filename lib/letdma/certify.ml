open Rt_model
open Let_sem
open Mem_layout

(* Re-verification of solved configurations from first principles. The
   checks deliberately bypass Solution.validate and re-derive everything
   from the raw model data (mapping rules, pattern sets, MILP rows), so a
   bug in the solver or in the shared validation path cannot vouch for
   itself. *)

let src = Logs.Src.create "letdma.certify" ~doc:"independent solution certifier"

module Log = (val Logs.src_log src : Logs.LOG)

type source = Milp_optimal | Milp_incumbent | Heuristic | Baseline

let source_name = function
  | Milp_optimal -> "milp-optimal"
  | Milp_incumbent -> "milp-incumbent"
  | Heuristic -> "heuristic"
  | Baseline -> "baseline"

let milp_source = function
  | Milp.Branch_bound.Optimal -> Milp_optimal
  | _ -> Milp_incumbent

type violation =
  | Missing_layout of Platform.memory
  | Bad_coverage of Platform.memory * string
  | Capacity of Platform.memory * int * int
  | Milp_residual of Milp.Problem.residual
  | Infeasible_transfer of string
  | Property of Time.t * string
  | Deadline_miss of int * Time.t * Time.t

let pp_violation app ppf = function
  | Missing_layout m -> Fmt.pf ppf "no layout for %a" Platform.pp_memory m
  | Bad_coverage (m, msg) ->
    Fmt.pf ppf "layout of %a does not match the mapping rules: %s"
      Platform.pp_memory m msg
  | Capacity (m, used, avail) ->
    Fmt.pf ppf "%a overflows: %d bytes placed, %d available"
      Platform.pp_memory m used avail
  | Milp_residual r -> Fmt.pf ppf "MILP residual: %a" Milp.Problem.pp_residual r
  | Infeasible_transfer msg -> Fmt.pf ppf "infeasible transfer: %s" msg
  | Property (t, msg) -> Fmt.pf ppf "at %a: %s" Time.pp t msg
  | Deadline_miss (i, lam, gam) ->
    Fmt.pf ppf "task %s: lambda %a exceeds gamma %a" (App.task app i).Task.name
      Time.pp lam Time.pp gam

type t = {
  source : source;
  checks : int;
  warnings : violation list;
  time_s : float;
}

let pp app ppf c =
  Fmt.pf ppf "@[<v>certificate[%s]: %d checks in %.4fs%a@]" (source_name c.source)
    c.checks c.time_s
    Fmt.(
      list ~sep:nop (fun ppf v ->
          pf ppf "@,  warning: %a" (pp_violation app) v))
    c.warnings

(* Rounding slack for deadline comparisons: the MILP works in float
   microseconds and the decoder rounds back to integer nanoseconds, so an
   exactly-tight Constraint 9 can land up to ~1 us past gamma without the
   solver being wrong. *)
let deadline_slack = Time.of_us 1

let memory_capacity (p : Platform.t) = function
  | Platform.Local _ -> p.Platform.local_mem_bytes
  | Platform.Global -> p.Platform.global_mem_bytes

let certify ?milp ~source app groups ~gamma sol =
  let t0 = Unix.gettimeofday () in
  let checks = ref 0 in
  let hard = ref [] in
  let warnings = ref [] in
  let fail v = hard := v :: !hard in
  (* Timing findings (Property 3, gamma deadlines) are hard only for MILP
     sources — the model constrains both, so a miss means the solver lied.
     The heuristic and the Giotto baseline may legitimately overrun; for
     them these surface as warnings on an otherwise-granted certificate. *)
  let timing_hard =
    match source with
    | Milp_optimal | Milp_incumbent -> true
    | Heuristic | Baseline -> false
  in
  let fail_timing v =
    if timing_hard then fail v else warnings := v :: !warnings
  in
  let check v ok = incr checks; if not ok then fail v in
  let check_result wrap r =
    incr checks;
    match r with Ok () -> () | Error msg -> fail (wrap msg)
  in
  let alloc = Solution.allocation sol in
  let platform = App.platform app in
  (* allocation coverage and capacity, memory by memory, against the
     mapping rules of Section III (not against the solution's own
     bookkeeping) *)
  List.iter
    (fun mem ->
      let expected = List.sort compare (Layout.expected_labels app mem) in
      if expected <> [] then begin
        match Allocation.layout_opt alloc mem with
        | None -> incr checks; fail (Missing_layout mem)
        | Some layout ->
          incr checks;
          let placed = List.sort compare (Layout.order layout) in
          if placed <> expected then
            fail
              (Bad_coverage
                 ( mem,
                   Fmt.str "%d labels placed, %d required" (List.length placed)
                     (List.length expected) ));
          let used = Layout.total_bytes layout in
          check (Capacity (mem, used, memory_capacity platform mem))
            (used <= memory_capacity platform mem)
      end)
    (Platform.memories platform);
  (* the solver's claimed assignment against the raw MILP rows *)
  (match milp with
   | None -> ()
   | Some (inst, x) ->
     incr checks;
     List.iter
       (fun r -> fail (Milp_residual r))
       (Milp.Problem.residuals inst.Formulation.problem x));
  (* every pattern's projected plan: partition, single class, Properties
     1-3 against the pattern's tightest cyclic gap, and contiguity of
     every transfer under the allocation. Structural breakage (foreign
     labels, unplaced labels) raises inside the projection helpers and is
     converted to a violation. *)
  (try
     List.iter
       (fun (pat : Groups.pattern) ->
         let time = List.hd pat.Groups.occurrences in
         let plan = Solution.plan_at app groups sol time in
         let prop wrap r = check_result (fun m -> wrap m) r in
         prop (fun m -> Property (time, m))
           (Properties.well_formed ~expected:pat.Groups.comms plan);
         prop (fun m -> Property (time, m)) (Properties.single_class app plan);
         prop (fun m -> Property (time, m)) (Properties.property1 plan);
         prop (fun m -> Property (time, m)) (Properties.property2 plan);
         incr checks;
         (match Properties.property3 app ~gap:pat.Groups.min_gap plan with
          | Ok () -> ()
          | Error m -> fail_timing (Property (time, m)));
         prop (fun m -> Infeasible_transfer m)
           (Allocation.plan_feasible app alloc plan))
       (Groups.patterns groups)
   with Invalid_argument msg | Failure msg ->
     incr checks;
     fail (Infeasible_transfer msg));
  (* analytic latencies against the gamma deadlines *)
  (try
     let lambda = Solution.lambda_s0 app sol in
     Array.iteri
       (fun i lam ->
         if i < Array.length gamma then begin
           incr checks;
           let gam = gamma.(i) in
           if Time.compare lam Time.(gam + deadline_slack) > 0 then
             fail_timing (Deadline_miss (i, lam, gam))
         end)
       lambda
   with Invalid_argument msg | Failure msg ->
     incr checks;
     fail (Infeasible_transfer msg));
  let time_s = Unix.gettimeofday () -. t0 in
  match List.rev !hard with
  | [] ->
    Log.debug (fun f ->
        f "certified %s solution: %d checks, %d warnings, %.4fs"
          (source_name source) !checks (List.length !warnings) time_s);
    Ok { source; checks = !checks; warnings = List.rev !warnings; time_s }
  | violations ->
    Log.warn (fun f ->
        f "@[<v>rejecting %s solution (%d violations):%a@]" (source_name source)
          (List.length violations)
          Fmt.(
            list ~sep:nop (fun ppf v -> pf ppf "@,  %a" (pp_violation app) v))
          violations);
    Error violations
