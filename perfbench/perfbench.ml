(* Service benchmark for the rank-aware engine.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0: set the workload up eleven times (set-up time is the median),
   then run its statement stream for S seconds, untraced, and report the
   end-to-end metrics. --trace 1: run a fixed number of statements
   untraced, then replay the same statements on freshly loaded tables with
   every layer call timed, and report the per-layer metrics. The last line of
   standard output is the JSON result; the exit code is non-zero when any
   statement failed or any check did not hold. See README.md. *)

let default_seed = 42

type args = { workload : string; seed : int; seconds : int; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Workloads.names);
      ("--seed", Arg.Set_int seed, " input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Workloads.names);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

let log fmt = Printf.printf (fmt ^^ "\n%!")

(* The buffers of the class's statement shapes, by shape key. *)
let class_shapes (o : Drive.outcome) cls =
  let prefix = cls ^ "/" in
  List.sort compare
    (Hashtbl.fold
       (fun key b acc ->
         if String.starts_with ~prefix key then (key, Util.Fbuf.to_array b) :: acc
         else acc)
       o.Drive.by_shape [])

(* A class figure is the mean over its statement shapes of each shape's
   percentile, so no figure sits between two shapes or is set by their mix. *)
let class_pct (o : Drive.outcome) cls p =
  Util.mean_of (List.map (fun (_, a) -> Util.percentile a p) (class_shapes o cls))

let class_p50 o cls = class_pct o cls 0.5

let report_failures what failures =
  List.iter (fun f -> log "# %s failure: %s" what f) failures

(* Set-up as a user of the service pays it: load and index the tables,
   start the service, PREPARE, warm up. Generating the statements is the
   benchmark's own work and is done once, before. *)
let setup w =
  let t0 = Util.now_ns () in
  let d, warm = Drive.start w (w.Workloads.load ()) in
  (Util.seconds_since t0, d, warm)

(* The class figures behind the three latency slots, by class name. *)
let class_names (w : Workloads.t) =
  let tail = Printf.sprintf "p%.0f" (w.Workloads.tail *. 100.0) in
  (w.Workloads.main_cls ^ "_p50_ms", w.Workloads.main_cls ^ "_" ^ tail ^ "_ms",
   w.Workloads.side_cls ^ "_p50_ms")

(* Set-up is timed [setups] times from a compacted heap; the last one is
   kept for the timed phase. *)
let setups = 11

let end_to_end args =
  let generated = Workloads.make args.workload ~seed:args.seed ~seconds:args.seconds in
  let times = Array.make setups 0.0 in
  let rec go i =
    Gc.compact ();
    let s, d, warm = setup generated in
    times.(i) <- s;
    if i = setups - 1 then (d, warm)
    else begin
      Drive.stop d;
      go (i + 1)
    end
  in
  let d, warm = go 0 in
  let setup_s = Util.median times in
  let w = d.Drive.w in
  Gc.compact ();
  let o = Drive.run ~seconds:(float_of_int args.seconds) d w.Workloads.stream in
  let mismatches = if w.Workloads.read_only then Drive.recheck d o else [] in
  Drive.stop d;
  let p50_name, tail_name, side_name = class_names w in
  let main_p50 = class_p50 o w.Workloads.main_cls in
  let main_tail = class_pct o w.Workloads.main_cls w.Workloads.tail in
  let side_p50 = class_p50 o w.Workloads.side_cls in
  log "# workload %s seed %d: %d statements in %.3f s, %.3f CPU s (%d warm-up)"
    w.Workloads.name args.seed o.Drive.attempted o.Drive.elapsed_s o.Drive.cpu_s
    warm.Drive.attempted;
  List.iter
    (fun cls ->
      List.iter
        (fun (key, a) ->
          log "#   shape %-16s n=%-6d p50 %.4f ms, p%.0f %.4f ms (%d beyond)" key
            (Array.length a) (Util.median a) (w.Workloads.tail *. 100.0)
            (Util.percentile a w.Workloads.tail) (Util.beyond a w.Workloads.tail))
        (class_shapes o cls))
    (List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) o.Drive.by_class []));
  log "# %s = %.4f ms" p50_name main_p50;
  log "# %s = %.4f ms" tail_name main_tail;
  log "# %s = %.4f ms" side_name side_p50;
  Hashtbl.iter
    (fun cls _ ->
      if cls <> w.Workloads.main_cls && cls <> w.Workloads.side_cls then
        log "# %s_p50_ms = %.4f ms (report only)" cls (class_p50 o cls))
    o.Drive.by_class;
  report_failures "statement" (warm.Drive.failures @ o.Drive.failures);
  report_failures "re-check" mismatches;
  let failed = warm.Drive.failed + o.Drive.failed + List.length mismatches in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("throughput_sps", float_of_int o.Drive.attempted /. o.Drive.elapsed_s, "1/s");
      ("main_p50_ms", main_p50, "ms");
      ("main_tail_ms", main_tail, "ms");
      ("side_p50_ms", side_p50, "ms");
    ]
  in
  (failed, max 1 o.Drive.attempted, metrics)

let io_fields (s : Storage.Io_stats.snapshot) =
  Storage.Io_stats.
    [
      ("page_reads", s.page_reads);
      ("page_writes", s.page_writes);
      ("pool_hits", s.pool_hits);
      ("index_node_reads", s.index_node_reads);
      ("index_probes", s.index_probes);
      ("tuples_read", s.tuples_read);
    ]

let io_now cat = Storage.Io_stats.snapshot (Storage.Catalog.io cat)

let per_layer args =
  (* Untraced reference: a fixed statement count, so counts repeat. *)
  let w = Workloads.make args.workload ~seed:args.seed ~seconds:args.seconds in
  let n = w.Workloads.trace_count in
  let cat = w.Workloads.load () in
  let d, warm = Drive.start w cat in
  let c0 = Server.Service.cache_stats d.Drive.svc and io0 = io_now cat in
  Gc.compact ();
  let inline = not w.Workloads.read_only in
  let o = Drive.run ~limit:n ~inline d w.Workloads.stream in
  let svc_cache = Layers.cache_delta c0 (Server.Service.cache_stats d.Drive.svc) in
  let svc_io = Storage.Io_stats.diff (io_now cat) io0 in
  Drive.stop d;
  (* Traced replay of the same statements on freshly loaded tables. *)
  let cat = w.Workloads.load () in
  let r = Replay.create w cat in
  let warm2 = Replay.run ~record:false r w.Workloads.warmup in
  let rc0 = Server.Plan_cache.stats r.Replay.cache and rio0 = io_now cat in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let ro = Replay.run ~record:true ~limit:n ~inline r w.Workloads.stream in
  let g1 = Gc.quick_stat () in
  let rep_cache = Layers.cache_delta rc0 (Server.Plan_cache.stats r.Replay.cache) in
  let rep_io = Storage.Io_stats.diff (io_now cat) rio0 in
  Replay.stop r;
  (* Trace fidelity: the replay saw the plan cache, the storage layer and
     the answers exactly as the service did. *)
  let fidelity = ref [] in
  let expect what a b =
    if a <> b then fidelity := Printf.sprintf "%s: untraced %d, traced %d" what a b :: !fidelity
  in
  Layers.(expect "cache hits" svc_cache.hits rep_cache.hits);
  Layers.(expect "cache misses" svc_cache.misses rep_cache.misses);
  Layers.(expect "cache stale" svc_cache.stale rep_cache.stale);
  List.iter2 (fun (f, a) (_, b) -> expect f a b) (io_fields svc_io) (io_fields rep_io);
  (if o.Drive.digests <> ro.Replay.digests then
     let first = ref (-1) in
     Array.iteri
       (fun i x -> if !first < 0 && x <> ro.Replay.digests.(i) then first := i)
       o.Drive.digests;
     fidelity := Printf.sprintf "answers differ from statement %d" !first :: !fidelity);
  let spans = Replay.spans r and infos = Replay.infos r in
  let untraced_sps = float_of_int o.Drive.attempted /. o.Drive.elapsed_s in
  let traced_sps = float_of_int ro.Replay.attempted /. ro.Replay.elapsed_s in
  let metrics =
    Layers.metrics ~w ~spans ~infos ~cache:rep_cache
      ~untraced_main_p50_ms:(class_p50 o w.Workloads.main_cls)
      ~untraced_sps ~traced_sps
      ~minor_words:(g1.Gc.minor_words -. g0.Gc.minor_words)
      ~major_collections:(g1.Gc.major_collections - g0.Gc.major_collections)
  in
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" args.workload args.seed)
  in
  Layers.write_spans path spans;
  log "# workload %s seed %d: %d statements untraced, %d replayed traced; %d spans in %s"
    args.workload args.seed o.Drive.attempted ro.Replay.attempted (List.length spans) path;
  log "# tracing overhead: %.1f%% (untraced %.1f stmt/s, traced %.1f stmt/s)"
    (100.0 *. ((untraced_sps /. traced_sps) -. 1.0)) untraced_sps traced_sps;
  report_failures "statement"
    (warm.Drive.failures @ o.Drive.failures @ warm2.Replay.failures @ ro.Replay.failures);
  report_failures "trace fidelity" (List.rev !fidelity);
  let failed =
    warm.Drive.failed + o.Drive.failed + warm2.Replay.failed + ro.Replay.failed
    + List.length !fidelity
  in
  (failed, max 1 o.Drive.attempted, metrics)

let () =
  let args = parse_args () in
  let failed, attempted, metrics =
    if args.trace then per_layer args else end_to_end args
  in
  print_endline (Util.result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
