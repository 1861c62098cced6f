(* Cache-miss planning cost: Optimizer.optimize on 2-, 3- and 4-way key
   chains over four 5000-row scored tables (key domain 500), each
   statement with fresh score weights and k — the shape of a plan-cache
   miss in the service benchmark's adhoc workload. Reports per arity the
   median optimize time, microseconds per generated plan and the exact
   plans-generated count (a deterministic counter: identical for every
   statement of one arity). Appends one JSON row to BENCH_RANKOPT.json
   (smoke mode prints a reduced run without appending). *)

let tables = [ "A"; "B"; "C"; "D" ]

let catalog () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (42 + (31 * i)))
           ~name ~n:5000 ~key_domain:500 ()))
    tables;
  cat

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let run ?(smoke = false) () =
  Bench_util.section "plan: optimize cost per cache miss, 2/3/4-way chains";
  let cat = catalog () in
  let statements = if smoke then 15 else 101 in
  let prng = Rkutil.Prng.create 5 in
  let query arity =
    let chain = List.filteri (fun i _ -> i < arity) tables in
    let weights =
      List.map (fun t -> (t, 0.5 +. (0.5 *. Rkutil.Prng.uniform prng))) chain
    in
    Bench_util.topk_query ~weights ~k:(1 + Rkutil.Prng.int prng 50) chain
  in
  let measure arity =
    (* one untimed statement warms allocation paths *)
    ignore (Core.Optimizer.optimize cat (query arity));
    let runs =
      List.init statements (fun _ ->
          let q = query arity in
          let dt, p = Perf.wall (fun () -> Core.Optimizer.optimize cat q) in
          (dt, p.Core.Optimizer.stats.Core.Enumerator.generated))
    in
    let generated = snd (List.hd runs) in
    let exact = List.for_all (fun (_, g) -> g = generated) runs in
    let ms = median (List.map fst runs) *. 1e3 in
    let us_per_plan = ms *. 1e3 /. float_of_int generated in
    Bench_util.row "%d-way  optimize %8.3f ms  %6.2f us/plan  %5d plans%s\n"
      arity ms us_per_plan generated
      (if exact then "" else "  [PLAN COUNT VARIES]");
    Printf.sprintf
      "\"optimize%d_ms\":%.4f,\"us_per_plan%d\":%.3f,\"plans_generated%d\":%d"
      arity ms arity us_per_plan arity generated
  in
  let fields = List.map measure [ 2; 3; 4 ] in
  let row =
    Printf.sprintf "{\"bench\":\"plan\",\"n\":5000,\"statements\":%d,\"cores\":%d,\"rev\":%S,%s}"
      statements (Perf.cores ()) (Perf.rev ()) (String.concat "," fields)
  in
  Bench_util.section
    (if smoke then "plan row (smoke: not appended)"
     else "plan row appended to " ^ Perf.bench_file);
  Perf.emit ~append:(not smoke) [ row ]
