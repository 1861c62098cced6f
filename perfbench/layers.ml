(* Per-layer metrics of the traced run, each computed where the work
   happens: span durations per layer call and counts per statement.
   Each metric's comment names the end-to-end figure it should move. A
   metric whose layer a workload never calls reads 0. *)

open Replay

let us_of ns = ns /. 1e3

(* Durations (ns) of the spans called [name] whose statement passes [keep]. *)
let durations spans infos name keep =
  let b = Util.Fbuf.create () in
  List.iter
    (fun s ->
      if s.sp_name = name && keep infos.(s.sp_stmt) then
        Util.Fbuf.push b (Util.ns_between s.sp_t0 s.sp_t1))
    spans;
  Util.Fbuf.to_array b

let p50 a = Util.median a
let sum a = Array.fold_left ( +. ) 0.0 a
let all _ = true

let count infos keep =
  Array.fold_left (fun n i -> if keep i then n + 1 else n) 0 infos

let total infos f keep =
  Array.fold_left (fun n i -> if keep i then n +. f i else n) 0.0 infos

let ratio a b = if b = 0.0 then 0.0 else a /. b

type cache_delta = { hits : int; misses : int; stale : int; evictions : int }

let cache_delta (a : Server.Plan_cache.stats) (b : Server.Plan_cache.stats) =
  {
    hits = b.Server.Plan_cache.hits - a.Server.Plan_cache.hits;
    misses = b.Server.Plan_cache.misses - a.Server.Plan_cache.misses;
    stale = b.Server.Plan_cache.invalidations - a.Server.Plan_cache.invalidations;
    evictions = b.Server.Plan_cache.evictions - a.Server.Plan_cache.evictions;
  }

let metrics ~(w : Workloads.t) ~spans ~infos ~cache ~untraced_main_p50_ms
    ~untraced_sps ~traced_sps ~minor_words ~major_collections =
  let span_p50 ?(keep = all) name = p50 (durations spans infos name keep) in
  let cls c i = i.i_cls = c in
  let topk i = List.mem i.i_cls [ "topk"; "cold2"; "cold4" ] in
  let read i = i.i_cls <> "write" in
  let arity n i = i.arity = n in
  let optimized n i = i.arity = n && i.generated >= 0 in
  let n = float_of_int (Array.length infos) in
  let io f keep = total infos (fun i -> float_of_int (f i.io)) keep in
  let page_reads = io (fun s -> s.Storage.Io_stats.page_reads) all in
  let pool_hits = io (fun s -> s.Storage.Io_stats.pool_hits) all in
  let optimize n = durations spans infos "core.optimize" (arity n) in
  let generated n =
    total infos (fun i -> float_of_int i.generated) (optimized n)
  in
  let main = cls w.main_cls in
  let layer_p50_us =
    let by_shape = Hashtbl.create 8 in
    Array.iter
      (fun i -> if main i then Util.Fbuf.push_to by_shape i.i_shape i.layers_ns)
      infos;
    us_of (Util.mean_of_medians (Util.Fbuf.groups by_shape))
  in
  [
    (* parse: adhoc cold2, dashboard windows *)
    ("sqlfront.parse_us", us_of (span_p50 "sqlfront.parse"), "us");
    (* bind on cache misses: adhoc cold2 *)
    ("sqlfront.bind_us", us_of (span_p50 ~keep:read "sqlfront.bind"), "us");
    (* post-sort, aggregation, projection: report_ingest reports *)
    ("sqlfront.project_us", us_of (span_p50 "sqlfront.project"), "us");
    (* any-k cursor continuation: dashboard fetch *)
    ("sqlfront.cursor_fetch_us", us_of (span_p50 "sqlfront.cursor_fetch"), "us");
    (* planning: adhoc cold2 / cold4 *)
    ("core.optimize2_ms", p50 (optimize 2) /. 1e6, "ms");
    ("core.optimize4_ms", p50 (optimize 4) /. 1e6, "ms");
    ( "core.optimize_share",
      ratio (sum (durations spans infos "core.optimize" all)) (total infos (fun i -> i.total_ns) all),
      "ratio" );
    ( "core.plans_generated2",
      ratio (generated 2) (float_of_int (count infos (optimized 2))),
      "count" );
    ( "core.plans_generated4",
      ratio (generated 4) (float_of_int (count infos (optimized 4))),
      "count" );
    ("core.us_per_plan4", ratio (us_of (sum (optimize 4))) (generated 4), "us");
    (* k rebind on a cache hit: dashboard topk *)
    ("core.rebind_us", us_of (span_p50 "core.rebind"), "us");
    (* execution: dashboard topk, report_ingest reports *)
    ("core.execute_topk_us", us_of (span_p50 ~keep:topk "core.execute"), "us");
    ( "core.execute_report_ms",
      span_p50 ~keep:(cls "report") "core.execute" /. 1e6,
      "ms" );
    ( "core.exchange_plans",
      float_of_int (count infos (fun i -> i.exchange)),
      "count" );
    (* early stop: dashboard topk. Cursor-served EXECUTEs expose no
       operator stats; there the tuples their index scans delivered give
       the same sum of rank-join input depths. *)
    ( "exec.rankjoin_depth",
      ratio
        (total infos
           (fun i ->
             float_of_int
               (if i.executed then i.depth else i.io.Storage.Io_stats.tuples_read))
           topk)
        (float_of_int (count infos topk)),
      "count" );
    ( "exec.rows_examined_per_row",
      ratio
        (io (fun s -> s.Storage.Io_stats.tuples_read) read)
        (total infos (fun i -> float_of_int i.rows) read),
      "ratio" );
    (* buffer pool: report_ingest reports; 0 on dashboard *)
    ("storage.page_reads", ratio page_reads n, "count");
    ("storage.pool_hit_rate", ratio pool_hits (pool_hits +. page_reads), "ratio");
    ( "storage.index_node_reads",
      ratio
        (io (fun s -> s.Storage.Io_stats.index_node_reads) (cls "window"))
        (float_of_int (count infos (cls "window"))),
      "count" );
    (* write path: report_ingest writes *)
    ("storage.insert_us", us_of (span_p50 "storage.insert"), "us");
    ("storage.analyze_ms", span_p50 "storage.analyze" /. 1e6, "ms");
    (* plan cache: dashboard topk, adhoc cold*, report_ingest reports *)
    ( "server.cache_hit_rate",
      ratio (float_of_int cache.hits) (float_of_int (cache.hits + cache.misses)),
      "ratio" );
    ("server.cache_stale", float_of_int cache.stale, "count");
    ("server.cache_evictions", float_of_int cache.evictions, "count");
    ("server.cache_find_us", us_of (span_p50 "server.cache_find"), "us");
    (* reply encoding: report_ingest reports, dashboard topk *)
    ("server.encode_us", us_of (span_p50 "server.encode"), "us");
    ( "server.reply_bytes",
      ratio (total infos (fun i -> float_of_int i.bytes) all) n,
      "bytes" );
    (* hand-off, latches, metrics (and tracing overhead): dashboard *)
    ( "server.service_self_us",
      (untraced_main_p50_ms *. 1e3) -. layer_p50_us,
      "us" );
    ("gc.minor_words_per_stmt", ratio minor_words n, "words");
    ("gc.major_collections", float_of_int major_collections, "count");
    ("trace.untraced_sps", untraced_sps, "1/s");
    ("trace.traced_sps", traced_sps, "1/s");
  ]

(* Spans as JSON lines: name, start, end (monotonic ns) and the statement
   they belong to. *)
let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"stmt\":%d,\"span\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.sp_stmt (Util.json_string s.sp_name) s.sp_t0 s.sp_t1)
    spans;
  close_out oc
