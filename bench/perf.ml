(* Perf baselines on disk.

   Measures serial vs parallel wall time for the fig1-style drain query
   (join + sort + top-k over everything — the regime exchanges exist for),
   guards the early-out regime (small k: the optimizer must keep the plan
   serial and pay no overhead), and records compact serve/lint wall times.
   Each measurement appends one JSON row (one object per line) to
   BENCH_RANKOPT.json so successive PRs accumulate a perf trajectory.

   Smoke mode (`make bench-smoke`, the `perf-smoke` experiment) runs a
   reduced-size subset in a few seconds and prints the rows without
   appending — CI runs it and must leave the working tree clean.

   Parallel speedup scales with physical cores: the `cores` field records
   [Domain.recommended_domain_count ()] so a row from a single-core CI
   container (speedup ~1.0) is not mistaken for a regression against a
   multicore workstation row. *)

let bench_file = "BENCH_RANKOPT.json"

let wall f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

(* Best-of-N: robust against one-off scheduler noise without bechamel's
   startup cost; the drain query runs long enough to dominate timer
   resolution. *)
let time_best ?(repeats = 3) f =
  let rec go best left =
    if left = 0 then best
    else
      let dt, _ = wall f in
      go (Float.min best dt) (left - 1)
  in
  go Float.infinity repeats

let emit ~append rows =
  List.iter print_endline rows;
  if append then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_file in
    List.iter
      (fun r ->
        output_string oc r;
        output_char oc '\n')
      rows;
    close_out oc;
    Printf.printf "(%d row(s) appended to %s)\n" (List.length rows) bench_file
  end

let cores () = Domain.recommended_domain_count ()

(* The checkout's revision ("-dirty" with uncommitted changes). *)
let rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | ic ->
      let r = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if r = "" then "unknown" else r
  | exception Unix.Unix_error _ -> "unknown"

let with_pool domains f =
  let pool = Rkutil.Task_pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Rkutil.Task_pool.shutdown pool)
    (fun () -> f pool)

let score_multiset (res : Core.Executor.run_result) =
  List.sort compare (List.map snd res.Core.Executor.rows)

(* The fig1-style drain query in the sort-plan regime: a selective join
   (low 1/domain selectivity) makes the rank-join's early-out useless, so
   scan + hash join + sort over everything wins. Serial is the canonical
   [Top_k (Sort (Hash ...))]; parallel is its exchange form — the exact
   plan the fuse_topk rewrite emits — measured plan-against-plan so the
   row isolates executor scaling from plan choice (which the earlyout row
   and the optimizer tests cover). *)
let drain_rows ~smoke () =
  Bench_util.section "perf: drain query, serial vs parallel";
  let n = if smoke then 6000 else 16000 in
  let domain = 8 * n in
  let repeats = if smoke then 2 else 3 in
  let cat = Bench_util.two_table_catalog ~n ~pool_frames:256 ~domain ~seed:7 () in
  let k = n / 8 in
  let serial_plan = Core.Plan.Top_k { k; input = Bench_util.sort_plan cat } in
  let query = Bench_util.topk_query ~k [ "A"; "B" ] in
  let placed =
    let env = Core.Cost_model.default_env ~k_min:k ~dop:4 cat query in
    Core.Parallel.has_exchange
      (Core.Optimizer.optimize ~env cat query).Core.Optimizer.plan
  in
  let serial_res = Core.Executor.run cat serial_plan in
  let serial_dt =
    time_best ~repeats (fun () -> ignore (Core.Executor.run cat serial_plan))
  in
  Bench_util.row "%-34s %10.3fs  (%s%s)\n" "serial" serial_dt
    (Core.Plan.describe serial_plan)
    (if placed then "; optimizer places an exchange at dop=4"
     else "; optimizer did NOT place an exchange at dop=4");
  let degrees = if smoke then [ 2; 4 ] else [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun d ->
        let par_plan = Core.Plan.Exchange { dop = d; input = serial_plan } in
        let dt, ok =
          with_pool d (fun pool ->
              let res = Core.Executor.run ~pool cat par_plan in
              let ok = score_multiset res = score_multiset serial_res in
              ( time_best ~repeats (fun () ->
                    ignore (Core.Executor.run ~pool cat par_plan)),
                ok ))
        in
        let speedup = serial_dt /. dt in
        Bench_util.row "%-34s %10.3fs  %5.2fx%s\n"
          (Printf.sprintf "parallel dop=%d" d)
          dt speedup
          (if ok then "" else "  [SCORES DIVERGE]");
        Printf.sprintf
          "{\"bench\":\"drain\",\"n\":%d,\"k\":%d,\"dop\":%d,\"cores\":%d,\
           \"exchange_planned\":%b,\"serial_s\":%.4f,\"parallel_s\":%.4f,\
           \"speedup\":%.3f,\"correct\":%b}"
          n k d (cores ()) placed serial_dt dt speedup ok)
      degrees
  in
  rows

(* Early-out guard: at small k the rank-join plan must stay serial under a
   parallel-enabled cost model, and planning with dop>1 must not slow the
   query down (the exchange-startup charge and the k* rule arbitrate). *)
let earlyout_rows ~smoke () =
  Bench_util.section "perf: early-out top-k stays serial";
  let n = if smoke then 4000 else 12000 in
  let domain = 50 in
  let repeats = if smoke then 3 else 5 in
  let cat = Bench_util.two_table_catalog ~n ~pool_frames:64 ~domain ~seed:7 () in
  let k = 10 in
  let query = Bench_util.topk_query ~k [ "A"; "B" ] in
  let serial = Core.Optimizer.optimize cat query in
  let env = Core.Cost_model.default_env ~k_min:k ~dop:4 cat query in
  let par_planned = Core.Optimizer.optimize ~env cat query in
  let kept_serial =
    not (Core.Parallel.has_exchange par_planned.Core.Optimizer.plan)
  in
  let serial_dt =
    time_best ~repeats (fun () -> ignore (Core.Optimizer.execute cat serial))
  in
  let par_dt =
    with_pool 4 (fun pool ->
        time_best ~repeats (fun () ->
            ignore (Core.Optimizer.execute ~pool cat par_planned)))
  in
  Bench_util.row "%-34s %10.4fs  (%s)\n" "serial plan" serial_dt
    (Core.Plan.describe serial.Core.Optimizer.plan);
  Bench_util.row "%-34s %10.4fs  plan %s\n" "planned with dop=4" par_dt
    (if kept_serial then "stayed serial" else "grew an exchange");
  [
    Printf.sprintf
      "{\"bench\":\"earlyout\",\"n\":%d,\"k\":%d,\"cores\":%d,\
       \"kept_serial\":%b,\"serial_s\":%.5f,\"dop4_s\":%.5f,\
       \"overhead\":%.4f}"
      n k (cores ()) kept_serial serial_dt par_dt
      ((par_dt -. serial_dt) /. serial_dt);
  ]

(* Compact serve/lint rows: wall time of a fixed statement burst through
   the service (reusing the serve bench's load generator) and of a fixed
   planlint sweep — enough signal for a trajectory without the full
   bench runs. *)
let serve_row ~smoke () =
  Bench_util.section "perf: service statement burst";
  let catalog = Bench_util.two_table_catalog ~n:2000 ~domain:100 ~seed:42 () in
  let stmts = if smoke then 300 else 1500 in
  ignore (Serve_bench.run_serial catalog 30) (* warm pool + caches *);
  let serial_dt = Serve_bench.run_serial catalog stmts in
  let service_dt, _, _, errors =
    Serve_bench.run_service catalog ~workers:2 ~clients:2 stmts
  in
  Bench_util.row "serial %.3fs; service(2w/2c) %.3fs; errors %d\n" serial_dt
    service_dt errors;
  [
    Printf.sprintf
      "{\"bench\":\"serve\",\"statements\":%d,\"cores\":%d,\
       \"serial_s\":%.4f,\"service_s\":%.4f,\"errors\":%d}"
      stmts (cores ()) serial_dt service_dt errors;
  ]

let lint_row ~smoke () =
  Bench_util.section "perf: planlint sweep";
  let cases = if smoke then 40 else 200 in
  let dt, outcome =
    wall (fun () -> Check.Rankcheck.run_lint ~seed:0 ~cases ())
  in
  Bench_util.row "%d cases, %d plans linted in %.3fs\n"
    outcome.Check.Rankcheck.o_cases outcome.Check.Rankcheck.o_plans dt;
  [
    Printf.sprintf
      "{\"bench\":\"lint\",\"cases\":%d,\"plans\":%d,\"wall_s\":%.4f,\
       \"failures\":%d}"
      outcome.Check.Rankcheck.o_cases outcome.Check.Rankcheck.o_plans dt
      (List.length outcome.Check.Rankcheck.o_failures);
  ]

let run ?(smoke = false) () =
  let rows =
    drain_rows ~smoke ()
    @ earlyout_rows ~smoke ()
    @ serve_row ~smoke ()
    @ lint_row ~smoke ()
  in
  Bench_util.section
    (if smoke then "perf rows (smoke: not appended)"
     else "perf rows appended to " ^ bench_file);
  emit ~append:(not smoke) rows
