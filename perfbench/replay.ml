(* The traced run. It replays the statement stream through the public
   functions Server.Service.run_template (and the DML path behind
   Server.Service.query) calls, in the same order, and times each call
   from outside. Nothing inside the engine is instrumented.

   The replay runs on the calling thread; exchanges still run on a pool
   of the service's size. It keeps its own plan cache of the service's
   capacity, so its hits, misses, stale lookups and I/O must equal the
   untraced run's (checked by the caller). *)

open Relalg
open Workloads

type span = { sp_stmt : int; sp_name : string; sp_t0 : int64; sp_t1 : int64 }

(* Per-statement facts, counted where the work happens. *)
type info = {
  i_cls : string;
  i_shape : string;
  mutable arity : int;  (** FROM tables; 0 for DML and FETCH *)
  mutable rows : int;
  mutable io : Storage.Io_stats.snapshot;
  mutable depth : int;  (** sum of rank-join input depths *)
  mutable executed : bool;  (** went through Core.Optimizer.execute *)
  mutable exchange : bool;
  mutable generated : int;  (** plans generated; -1 when not optimized *)
  mutable bytes : int;
  mutable layers_ns : float;
  mutable total_ns : float;
}

type cursor = {
  c_cursor : Sqlfront.Sql.cursor;
  c_tables : string list;
  c_epoch : int;
  c_deadline : float ref;
}

type t = {
  cat : Storage.Catalog.t;
  dop : int;
  timeout_s : float;
  pool : Rkutil.Task_pool.t;
  cache : Server.Plan_cache.t;
  templates : (string, Sqlfront.Sql.template) Hashtbl.t;
  cursors : (string, cursor) Hashtbl.t;
  mutable recording : bool;
  mutable stmt : int;
  mutable spans : span list;  (** newest first *)
  mutable infos : info list;  (** newest first *)
  mutable current : info;
}

let blank (s : stmt) =
  {
    i_cls = s.cls;
    i_shape = s.shape;
    arity = 0;
    rows = 0;
    io = Storage.Io_stats.(snapshot (create ()));
    depth = 0;
    executed = false;
    exchange = false;
    generated = -1;
    bytes = 0;
    layers_ns = 0.0;
    total_ns = 0.0;
  }

let create (w : Workloads.t) cat =
  let c = w.config in
  let templates = Hashtbl.create 8 in
  List.iter
    (fun (name, sql) ->
      match Sqlfront.Sql.template_of_sql sql with
      | Ok tpl -> Hashtbl.replace templates name tpl
      | Error e -> failwith ("PREPARE " ^ name ^ ": " ^ e))
    w.templates;
  {
    cat;
    dop = c.Server.Service.dop;
    timeout_s = c.Server.Service.default_timeout_s;
    pool = Rkutil.Task_pool.create ~domains:c.Server.Service.workers;
    cache = Server.Plan_cache.create ~capacity:c.Server.Service.cache_capacity ();
    templates;
    cursors = Hashtbl.create 4;
    recording = false;
    stmt = 0;
    spans = [];
    infos = [];
    current = blank { cls = ""; shape = ""; op = Query ""; expect = Groups };
  }

let stop t = Rkutil.Task_pool.shutdown t.pool

(* Time one call into a layer. A [side] call is extra work the service
   does not do on its own; it gets a span but stays out of the layer sum. *)
let span ?(side = false) t name f =
  let t0 = Util.now_ns () in
  let r = f () in
  let t1 = Util.now_ns () in
  if t.recording then begin
    t.spans <- { sp_stmt = t.stmt; sp_name = name; sp_t0 = t0; sp_t1 = t1 } :: t.spans;
    if not side then
      t.current.layers_ns <- t.current.layers_ns +. Util.ns_between t0 t1
  end;
  r

let ( let* ) = Result.bind

let drop_cursor t name =
  match Hashtbl.find_opt t.cursors name with
  | Some c ->
      Hashtbl.remove t.cursors name;
      Sqlfront.Sql.cursor_close c.c_cursor
  | None -> ()

(* Bind and optimize on a plan-cache miss: Sqlfront.Sql.prepare_ast, split
   so bind and optimize are timed apart. *)
let plan t ?k tpl =
  let* ast = Sqlfront.Sql.instantiate tpl ?k () in
  let* bound =
    span t "sqlfront.bind" (fun () -> Sqlfront.Binder.bind_result t.cat ast)
  in
  let logical = bound.Sqlfront.Binder.logical in
  let env =
    if t.dop > 1 then
      Some
        (Core.Cost_model.default_env
           ~k_min:(Option.value ~default:1 logical.Core.Logical.k)
           ~dop:t.dop t.cat logical)
    else None
  in
  match
    span t "core.optimize" (fun () -> Core.Optimizer.optimize ?env t.cat logical)
  with
  | planned ->
      t.current.generated <- planned.Core.Optimizer.stats.Core.Enumerator.generated;
      Ok { Sqlfront.Sql.bound; planned }
  | exception Failure m -> Error ("plan error: " ^ m)

(* Post-executor assembly: the tail of Sqlfront.Sql.run_prepared
   (aggregation, post-sort, post-limit, projection), so execution and
   projection are timed apart. *)
let finish (p : Sqlfront.Sql.prepared) (res : Core.Executor.run_result) =
  let bound = p.Sqlfront.Sql.bound in
  let schema = res.Core.Executor.schema in
  let limit rows =
    match bound.Sqlfront.Binder.post_limit with
    | None -> rows
    | Some k -> List.filteri (fun i _ -> i < k) rows
  in
  match bound.Sqlfront.Binder.aggregation with
  | Some agg ->
      let input =
        Exec.Operator.of_list schema (List.map fst res.Core.Executor.rows)
      in
      let out =
        Exec.Aggregate.hash_group_by
          ~group_by:agg.Sqlfront.Binder.agg_group_by
          ~aggregates:agg.Sqlfront.Binder.agg_specs input
      in
      {
        Sqlfront.Sql.columns =
          List.map Schema.column_name
            (Schema.columns out.Exec.Operator.schema);
        rows = limit (Exec.Operator.to_list out);
        scores = [];
        planned = p.Sqlfront.Sql.planned;
      }
  | None ->
      let rows = res.Core.Executor.rows in
      let sorted =
        match bound.Sqlfront.Binder.post_sort with
        | None -> rows
        | Some (e, dir) ->
            let f = Expr.compile_float schema e in
            List.stable_sort
              (fun (_, a) (_, b) ->
                match dir with
                | `Asc -> Float.compare a b
                | `Desc -> Float.compare b a)
              (List.map (fun (tu, _) -> (tu, f tu)) rows)
      in
      Sqlfront.Sql.project_rows p schema (limit sorted)

let rank_depth (res : Core.Executor.run_result) =
  List.fold_left
    (fun n (r : Core.Executor.rank_node_stats) ->
      n + Exec.Exec_stats.total_in r.Core.Executor.stats)
    0 res.Core.Executor.rank_nodes
  + List.fold_left
      (fun n (r : Core.Executor.nary_node_stats) ->
        n + Exec.Exec_stats.total_in r.Core.Executor.nary_stats)
      0 res.Core.Executor.nary_nodes

(* The SELECT path of Server.Service.run_template. *)
let select t ?k ?cursor_name (tpl : Sqlfront.Sql.template) =
  let tables = tpl.Sqlfront.Sql.tpl_ast.Sqlfront.Ast.from in
  t.current.arity <- List.length tables;
  let epoch = Storage.Catalog.epoch_of_tables t.cat tables in
  Option.iter (drop_cursor t) cursor_name;
  let eff_k = match k with Some _ -> k | None -> tpl.Sqlfront.Sql.tpl_inline_k in
  let deadline = Unix.gettimeofday () +. t.timeout_s in
  let interrupt () = Unix.gettimeofday () > deadline in
  let key = tpl.Sqlfront.Sql.tpl_text in
  let* p, cached =
    match
      span t "server.cache_find" (fun () ->
          Server.Plan_cache.find t.cache ~key ~epoch ~k:eff_k)
    with
    | Server.Plan_cache.Hit p ->
        (* Plan_cache.find already rebound k; rebinding once more, on the
           side, measures what that costs. *)
        Option.iter
          (fun k -> ignore (span ~side:true t "core.rebind" (fun () -> Sqlfront.Sql.rebind_k p k)))
          eff_k;
        Ok (p, true)
    | Server.Plan_cache.(Stale | Interval_miss | Absent) ->
        let* p = plan t ?k tpl in
        span t "server.cache_store" (fun () ->
            Server.Plan_cache.store t.cache ~key ~epoch p);
        Ok (p, false)
  in
  t.current.exchange <- Core.Parallel.has_exchange p.Sqlfront.Sql.planned.Core.Optimizer.plan;
  let* ans =
    match (cursor_name, eff_k) with
    | Some name, Some n when Sqlfront.Sql.cursor_eligible p ->
        let c_deadline = ref deadline in
        let cur, (rows, scores) =
          span t "core.execute" (fun () ->
              let cur =
                Sqlfront.Sql.open_cursor
                  ~interrupt:(fun () -> Unix.gettimeofday () > !c_deadline)
                  ~pool:t.pool t.cat p
              in
              (cur, Sqlfront.Sql.cursor_fetch cur n))
        in
        Hashtbl.replace t.cursors name
          { c_cursor = cur; c_tables = tables; c_epoch = epoch; c_deadline };
        Ok
          {
            Sqlfront.Sql.columns = Sqlfront.Sql.cursor_columns cur;
            rows;
            scores;
            planned = p.Sqlfront.Sql.planned;
          }
    | _ ->
        let res =
          span t "core.execute" (fun () ->
              Core.Optimizer.execute ~interrupt ~pool:t.pool t.cat
                p.Sqlfront.Sql.planned)
        in
        t.current.executed <- true;
        t.current.depth <- rank_depth res;
        Ok (span t "sqlfront.project" (fun () -> finish p res))
  in
  Ok (ans, cached)

(* FETCH NEXT: Server.Service.fetch. *)
let fetch t ~name n =
  match Hashtbl.find_opt t.cursors name with
  | None -> Error ("no open cursor " ^ name)
  | Some c ->
      if Storage.Catalog.epoch_of_tables t.cat c.c_tables <> c.c_epoch then begin
        drop_cursor t name;
        Error ("cursor " ^ name ^ " stale")
      end
      else begin
        c.c_deadline := Unix.gettimeofday () +. t.timeout_s;
        let rows, scores =
          span t "sqlfront.cursor_fetch" (fun () ->
              Sqlfront.Sql.cursor_fetch c.c_cursor n)
        in
        Ok (Sqlfront.Sql.cursor_columns c.c_cursor, rows, scores)
      end

(* A DELETE/UPDATE predicate over one table, bound as Sqlfront.Sql does. *)
let predicate cat table where =
  let q =
    {
      Sqlfront.Ast.select = [ Sqlfront.Ast.Star ];
      from = [ table ];
      where;
      rank_between = None;
      rank_dense = false;
      group_by = [];
      order_by = None;
      limit = None;
      limit_param = false;
    }
  in
  let* bound = Sqlfront.Binder.bind_result cat q in
  let rel = Core.Logical.find_relation bound.Sqlfront.Binder.logical table in
  Ok
    (Option.value ~default:(Expr.Const (Value.Bool true))
       rel.Core.Logical.filter)

let coerce dtype v =
  match (dtype, v) with
  | Value.Tint, Value.Float x when Float.is_integer x -> Value.Int (int_of_float x)
  | Value.Tfloat, Value.Int i -> Value.Float (float_of_int i)
  | _, v -> v

(* INSERT and UPDATE: the write path behind Server.Service.query
   (Sqlfront.Sql.execute), with the heap/index write and the statistics
   refresh timed apart. *)
let dml t sql =
  let* stmt =
    span t "sqlfront.parse" (fun () -> Sqlfront.Parser.parse_statement_result sql)
  in
  let analyze table =
    ignore (span t "storage.analyze" (fun () -> Storage.Catalog.analyze t.cat table))
  in
  match stmt with
  | Sqlfront.Ast.Insert { table; values } ->
      let info = Storage.Catalog.table t.cat table in
      let cols = Schema.columns info.Storage.Catalog.tb_schema in
      let tuples =
        List.map
          (fun row ->
            Array.of_list
              (List.map2
                 (fun (c : Schema.column) e ->
                   Sqlfront.Sql.constant_value c.Schema.dtype e)
                 cols row))
          values
      in
      span t "storage.insert" (fun () ->
          Storage.Catalog.insert_into t.cat ~table tuples);
      analyze table;
      Ok (List.length tuples)
  | Sqlfront.Ast.Update { table; assignments; where } ->
      let* pred = span t "sqlfront.bind" (fun () -> predicate t.cat table where) in
      let schema = (Storage.Catalog.table t.cat table).Storage.Catalog.tb_schema in
      let set =
        List.map
          (fun (column, e) ->
            let f =
              Expr.compile schema
                (Sqlfront.Binder.bind_single_table_expr t.cat table e)
            in
            let dtype =
              match Schema.index_of schema ~relation:table column with
              | Some i -> (Schema.nth schema i).Schema.dtype
              | None -> failwith ("unknown column " ^ column)
            in
            (column, fun tu -> coerce dtype (f tu)))
          assignments
      in
      let n =
        span t "storage.insert" (fun () ->
            Storage.Catalog.update_where t.cat ~table pred ~set)
      in
      analyze table;
      Ok n
  | _ -> Error "the replay runs INSERT and UPDATE only"

let reply ~columns ~rows ~scores ~affected ~cached ~latency_s =
  {
    Server.Service.columns;
    rows;
    scores;
    affected;
    cached;
    reoptimized = false;
    latency_s;
  }

let of_answer (a : Sqlfront.Sql.answer) ~cached ~latency_s =
  reply ~columns:a.Sqlfront.Sql.columns ~rows:a.Sqlfront.Sql.rows
    ~scores:a.Sqlfront.Sql.scores ~affected:None ~cached ~latency_s

(* Server.Service.query routes on the leading keyword. *)
let is_dml sql =
  match String.split_on_char ' ' (String.trim sql) with
  | w :: _ -> List.mem (String.lowercase_ascii w) [ "insert"; "delete"; "update" ]
  | [] -> false

(* One statement, start to encoded reply. *)
let statement t (s : stmt) =
  let info = blank s in
  t.current <- info;
  let io0 = Storage.Io_stats.snapshot (Storage.Catalog.io t.cat) in
  let t0 = Util.now_ns () in
  let latency () = Util.ns_between t0 (Util.now_ns ()) /. 1e9 in
  let result =
    match s.op with
    | Execute { name; k } ->
        let* ans, cached =
          select t ~k ~cursor_name:name (Hashtbl.find t.templates name)
        in
        Ok (of_answer ans ~cached ~latency_s:(latency ()))
    | Fetch { name; n } ->
        let* columns, rows, scores = fetch t ~name n in
        Ok
          (reply ~columns ~rows ~scores ~affected:None ~cached:true
             ~latency_s:(latency ()))
    | Query sql when is_dml sql ->
        let* n = dml t sql in
        Ok
          (reply ~columns:[] ~rows:[] ~scores:[] ~affected:(Some n) ~cached:false
             ~latency_s:(latency ()))
    | Query sql ->
        let* tpl =
          span t "sqlfront.parse" (fun () -> Sqlfront.Sql.template_of_sql sql)
        in
        let* ans, cached = select t tpl in
        Ok (of_answer ans ~cached ~latency_s:(latency ()))
  in
  let lines =
    match result with
    | Ok r ->
        span t "server.encode" (fun () ->
            Server.Protocol.render (Server.Protocol.render_reply r))
    | Error e -> [ "ERR " ^ e ]
  in
  let t1 = Util.now_ns () in
  info.total_ns <- Util.ns_between t0 t1;
  (* The header carries latency_ms, whose width varies from run to run;
     the payload is what the count compares. *)
  info.bytes <- Drive.reply_bytes (match lines with _ :: payload -> payload | [] -> []);
  info.io <-
    Storage.Io_stats.diff
      (Storage.Io_stats.snapshot (Storage.Catalog.io t.cat))
      io0;
  (match result with
  | Ok r -> info.rows <- List.length r.Server.Service.rows
  | Error _ -> ());
  if t.recording then begin
    t.spans <- { sp_stmt = t.stmt; sp_name = "statement"; sp_t0 = t0; sp_t1 = t1 } :: t.spans;
    t.infos <- info :: t.infos
  end;
  t.stmt <- t.stmt + 1;
  result

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;
  elapsed_s : float;
  digests : int array;
}

(* Replay [stmts] (at most [limit]); spans and per-statement facts are kept
   only while [record]. [inline] re-checks reads as Drive.run does. *)
let run ?(limit = max_int) ?(inline = false) ~record t (stmts : stmt array) =
  t.recording <- record;
  t.stmt <- 0;
  let cursors = Check.create () in
  let n = min limit (Array.length stmts) in
  let digests = Array.make n 0 in
  let failed = ref 0 and failures = ref [] in
  let rechecking = ref 0.0 in
  let t_start = Util.now_ns () in
  for i = 0 to n - 1 do
    let s = stmts.(i) in
    let verdict =
      match statement t s with
      | Error e -> Error e
      | Ok r ->
          digests.(i) <- Check.digest r;
          let checked = Check.reply cursors s r in
          if not inline then checked
          else begin
            let r0 = Util.now_ns () in
            let again = Check.inline t.cat i s r in
            rechecking := !rechecking +. Util.seconds_since r0;
            Result.bind checked (fun () -> again)
          end
    in
    match verdict with
    | Ok () -> ()
    | Error m ->
        incr failed;
        if List.length !failures < 5 then
          failures :=
            Printf.sprintf "replayed statement %d (%s/%s): %s" i s.cls s.shape m
            :: !failures
  done;
  let elapsed_s = Util.seconds_since t_start -. !rechecking in
  t.recording <- false;
  { attempted = n; failed = !failed; failures = List.rev !failures; elapsed_s; digests }

let spans t = List.rev t.spans
let infos t = Array.of_list (List.rev t.infos)
