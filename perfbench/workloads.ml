(* The three workloads: data, service configuration and statement streams.
   Everything here is a function of the seed, so every run of a workload
   with one seed executes the same statement sequence (a timed run executes
   a prefix of it).

   - dashboard: cache-hot ranked reads on pool-resident data. Fixed
     per-statement costs dominate: service hand-off, k rebind, early-stop
     execution, encoding. Planning and I/O changes must not move it.
   - adhoc: every statement is a template the plan cache has never seen,
     so planning dominates (6-27x execution). This is where planning-cost
     work must show, and dashboard is where it must not.
   - report_ingest: drains and writes on tables larger than the buffer
     pool, with intra-query parallelism. Exercises the execution spine,
     exchanges, pool misses, the write path and plan-cache invalidation. *)

type op =
  | Execute of { name : string; k : int }  (** EXECUTE of a PREPAREd template *)
  | Fetch of { name : string; n : int }  (** FETCH NEXT n on its cursor *)
  | Query of string  (** one-shot QUERY: SELECT or DML *)

(* What a correct reply looks like; every reply is checked inline. *)
type expect =
  | Desc of int  (** at most k rows, scores non-increasing *)
  | Asc of int  (** at most k rows, scores non-decreasing *)
  | Window of int  (** exactly this many rows, scores non-increasing *)
  | Next of int
      (** cursor continuation: at most n rows, scores non-increasing and
          not above the last score the cursor returned *)
  | Groups  (** an aggregate: at least one group *)
  | Affected of int  (** DML touching exactly this many rows *)

type stmt = {
  cls : string;  (** latency class, e.g. "topk" *)
  shape : string;  (** one statement shape within the class *)
  op : op;
  expect : expect;
}

type t = {
  name : string;
  config : Server.Service.config;
  load : unit -> Storage.Catalog.t;  (** loads the tables and indexes *)
  templates : (string * string) list;  (** PREPAREd (name, SQL) *)
  warmup : stmt array;  (** run untimed after set-up *)
  stream : stmt array;  (** the measured sequence *)
  main_cls : string;  (** class of the p50 and tail metrics *)
  tail : float;  (** tail percentile of the main class *)
  side_cls : string;  (** class of the second p50 metric *)
  read_only : bool;  (** no DML: answers can be re-checked afterwards *)
  trace_count : int;  (** statements the traced run replays *)
}

let names = [ "dashboard"; "adhoc"; "report_ingest" ]

(* The tables are one fixed dataset per workload; --seed drives the
   statement stream. Top-k costs hinge on the extreme tail of the score
   and key distributions, so tables redrawn per seed moved the dashboard's
   medians by a third from seed to seed, far beyond any useful bound. *)
let data_seed = 42

let load ~n ~domain tables () =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (data_seed + (31 * i)))
           ~name ~n ~key_domain:domain ()))
    tables;
  cat

let config ~workers ~dop =
  { Server.Service.default_config with workers; dop }

(* ------------------------------------------------------------------ *)
(* dashboard *)

let dash_templates =
  [
    ( "t2a",
      "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY 0.3*A.score \
       + 0.7*B.score DESC LIMIT ?" );
    ( "t2b",
      "SELECT A.id, B.id FROM A, B WHERE A.key = B.key ORDER BY 0.7*A.score \
       + 0.3*B.score DESC LIMIT ?" );
    ( "t3",
      "SELECT A.id, B.id, C.id FROM A, B, C WHERE A.key = B.key AND B.key = \
       C.key ORDER BY 0.4*A.score + 0.3*B.score + 0.3*C.score DESC LIMIT ?" );
    ("t1", "SELECT A.id, A.score FROM A ORDER BY A.score DESC LIMIT ?");
  ]

(* Served through the any-k cursor: EXECUTE, then FETCH NEXT pages. *)
let cursor_template =
  ( "cur",
    "SELECT B.id, C.id FROM B, C WHERE B.key = C.key ORDER BY 0.5*B.score + \
     0.5*C.score DESC LIMIT ?" )

let page = 20
let window_pages = 15

let window_sql lo =
  Printf.sprintf
    "SELECT A.id, A.score FROM A WHERE rank() BETWEEN %d AND %d ORDER BY \
     A.score DESC"
    lo
    (lo + page - 1)

(* The k values a template is EXECUTEd with: inside the k-interval of the
   plan chosen at k = 10, so after warm-up every EXECUTE is a cache hit. *)
let k_range cat ~dop sql =
  let ( let* ) = Result.bind in
  let r =
    let* tpl = Sqlfront.Sql.template_of_sql sql in
    let* ast = Sqlfront.Sql.instantiate tpl ~k:10 () in
    Sqlfront.Sql.prepare_ast ~dop cat ast
  in
  match r with
  | Error e -> failwith ("k_range: " ^ e)
  | Ok p ->
      let v = p.Sqlfront.Sql.planned.Core.Optimizer.k_validity in
      let hi =
        match v.Core.Optimizer.k_hi with Some h -> min h 50 | None -> 50
      in
      (max 1 v.Core.Optimizer.k_lo, max 10 hi)

let dashboard ~seed ~length =
  (* 3 x 4000 rows = 240 heap pages: pool-resident in 256 frames. The key
     domain n/10 makes each join dense enough for early stops. *)
  let load = load ~n:4000 ~domain:400 [ "A"; "B"; "C" ] in
  let cat = load () in  (* for the k-intervals only *)
  let ranges =
    List.map
      (fun (name, sql) -> (name, k_range cat ~dop:1 sql))
      (dash_templates @ [ cursor_template ])
  in
  let topk name k =
    { cls = "topk"; shape = name; op = Execute { name; k }; expect = Desc k }
  in
  let fetch =
    {
      cls = "fetch";
      shape = "cur";
      op = Fetch { name = "cur"; n = 10 };
      expect = Next 10;
    }
  in
  let window lo =
    {
      cls = "window";
      shape = "window";
      op = Query (window_sql lo);
      expect = Window page;
    }
  in
  let cursor_open = topk "cur" 10 in
  let warmup =
    List.concat_map
      (fun (name, (_, hi)) -> [ topk name 10; topk name hi ])
      ranges
    @ [ fetch; fetch ]
    @ List.init window_pages (fun i -> window (1 + (i * page)))
  in
  let prng = Rkutil.Prng.create (seed * 7919 + 1) in
  let tpl_names = Array.of_list (List.map fst dash_templates) in
  let out = ref [] and count = ref 0 in
  let emit s =
    out := s :: !out;
    incr count
  in
  while !count < length do
    let r = Rkutil.Prng.uniform prng in
    if r < 0.55 then begin
      let name = Rkutil.Prng.pick prng tpl_names in
      let lo, hi = List.assoc name ranges in
      emit (topk name (lo + Rkutil.Prng.int prng (hi - lo + 1)))
    end
    else if r < 0.90 then emit (window (1 + (page * Rkutil.Prng.int prng window_pages)))
    else begin
      (* 10% of events open the cursor and page through 30 more answers:
         about a quarter of the statements are FETCHes. *)
      emit cursor_open;
      emit fetch;
      emit fetch;
      emit fetch
    end
  done;
  {
    name = "dashboard";
    config = config ~workers:1 ~dop:1;
    load;
    templates = dash_templates @ [ cursor_template ];
    warmup = Array.of_list warmup;
    stream = Array.of_list (List.rev !out);
    main_cls = "topk";
    tail = 0.95;
    side_cls = "fetch";
    read_only = true;
    trace_count = 6000;
  }

(* ------------------------------------------------------------------ *)
(* adhoc *)

let chain_sql tables weights k =
  let rec joins = function
    | a :: (b :: _ as rest) -> Printf.sprintf "%s.key = %s.key" a b :: joins rest
    | _ -> []
  in
  Printf.sprintf "SELECT %s FROM %s WHERE %s ORDER BY %s DESC LIMIT %d"
    (String.concat ", " (List.map (fun t -> t ^ ".id") tables))
    (String.concat ", " tables)
    (String.concat " AND " (joins tables))
    (String.concat " + "
       (List.map2 (fun w t -> Printf.sprintf "%s*%s.score" w t) weights tables))
    k

let adhoc ~seed ~length =
  let load = load ~n:5000 ~domain:500 [ "A"; "B"; "C"; "D" ] in
  let prng = Rkutil.Prng.create (seed * 7919 + 2) in
  (* Weights are drawn fresh for every statement and never repeat, so
     every statement is a new plan-cache template. Keeping them within a
     factor of two of each other keeps rank-join depths, and so execution,
     small next to planning. *)
  let seen = Hashtbl.create 1024 in
  let rec fresh_weights n =
    let ws =
      List.init n (fun _ ->
          Printf.sprintf "%.4f" (0.5 +. (0.5 *. Rkutil.Prng.uniform prng)))
    in
    let key = String.concat "," ws in
    if Hashtbl.mem seen key then fresh_weights n
    else begin
      Hashtbl.add seen key ();
      ws
    end
  in
  let pairs = [| [ "A"; "B" ]; [ "B"; "C" ]; [ "C"; "D" ] |] in
  let gen i =
    let k = 1 + Rkutil.Prng.int prng 50 in
    if i mod 2 = 0 then
      let tables = Rkutil.Prng.pick prng pairs in
      {
        cls = "cold2";
        shape = "cold2";
        op = Query (chain_sql tables (fresh_weights 2) k);
        expect = Desc k;
      }
    else
      let tables = [ "A"; "B"; "C"; "D" ] in
      {
        cls = "cold4";
        shape = "cold4";
        op = Query (chain_sql tables (fresh_weights 4) k);
        expect = Desc k;
      }
  in
  let warmup = Array.init 4 gen in
  {
    name = "adhoc";
    config = config ~workers:1 ~dop:1;
    load;
    templates = [];
    warmup;
    stream = Array.init length (fun i -> gen (i + Array.length warmup));
    main_cls = "cold4";
    tail = 0.90;
    side_cls = "cold2";
    read_only = true;
    trace_count = 200;
  }

(* ------------------------------------------------------------------ *)
(* report_ingest *)

let report_rows = 20_000

let report_ingest ~seed ~length =
  (* 20k rows = 400 heap pages per table against 256 frames; the key
     domain 8n makes joins selective, so rank-join early stops cannot
     help and the drains dominate. *)
  let load = load ~n:report_rows ~domain:(8 * report_rows) [ "R"; "S" ] in
  let prng = Rkutil.Prng.create (seed * 7919 + 3) in
  let next_id = ref report_rows in
  let table () = if Rkutil.Prng.bool prng then "R" else "S" in
  let report shape sql expect =
    { cls = "report"; shape; op = Query sql; expect }
  in
  let gen () =
    let r = Rkutil.Prng.uniform prng in
    if r < 0.2 then
      let t = table () and k = 1000 + Rkutil.Prng.int prng 1001 in
      report "export"
        (Printf.sprintf "SELECT %s.id, %s.score FROM %s ORDER BY %s.score ASC LIMIT %d"
           t t t t k)
        (Asc k)
    else if r < 0.4 then
      let t = table () and k = 100 + Rkutil.Prng.int prng 401 in
      report "nonlinear"
        (Printf.sprintf
           "SELECT %s.id, %s.score FROM %s WHERE %s.score > 0.2 ORDER BY \
            %s.score * %s.score DESC LIMIT %d"
           t t t t t t k)
        (Desc k)
    else if r < 0.6 then
      let t = table () in
      report "aggregate"
        (Printf.sprintf
           "SELECT %s.key, COUNT(*), SUM(%s.score) FROM %s WHERE %s.score > \
            0.9 GROUP BY %s.key"
           t t t t t)
        Groups
    else if r < 0.8 then
      let k = 10 + Rkutil.Prng.int prng 41 in
      report "join"
        (Printf.sprintf
           "SELECT R.id, S.id FROM R, S WHERE R.key = S.key ORDER BY \
            0.5*R.score + 0.5*S.score DESC LIMIT %d"
           k)
        (Desc k)
    else if r < 0.9 then begin
      let id = !next_id in
      incr next_id;
      {
        cls = "write";
        shape = "insert";
        op =
          Query
            (Printf.sprintf "INSERT INTO R VALUES (%d, %d, %.4f)" id
               (Rkutil.Prng.int prng (8 * report_rows))
               (Rkutil.Prng.uniform prng));
        expect = Affected 1;
      }
    end
    else
      {
        cls = "write";
        shape = "update";
        op =
          Query
            (Printf.sprintf "UPDATE S SET score = %.4f WHERE id = %d"
               (Rkutil.Prng.uniform prng)
               (Rkutil.Prng.int prng report_rows));
        expect = Affected 1;
      }
  in
  let warmup = Array.init 8 (fun _ -> gen ()) in
  let stream = Array.init length (fun _ -> gen ()) in
  {
    name = "report_ingest";
    config = config ~workers:2 ~dop:2;
    load;
    templates = [];
    warmup;
    stream;
    main_cls = "report";
    tail = 0.95;
    side_cls = "write";
    read_only = false;
    trace_count = 150;
  }

(* Statements to generate for a timed run of [seconds]: comfortably more
   than the fastest run completes; a run that exhausts them stops early. *)
let make name ~seed ~seconds =
  match name with
  | "dashboard" -> dashboard ~seed ~length:(6_000 * seconds)
  | "adhoc" -> adhoc ~seed ~length:(400 * seconds)
  | "report_ingest" -> report_ingest ~seed ~length:(200 * seconds)
  | other -> invalid_arg ("unknown workload " ^ other)
