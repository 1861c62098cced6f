(* The planner fingerprint corpus: a fixed set of statements planned on
   fixed catalogs, each reduced to one line recording the chosen plan, the
   exact bits of its estimated cost and cardinality, its k-validity
   interval and the MEMO counters. Any change to what the optimizer decides
   — or to a single bit of what it estimates — changes a line.

   Corpus: every statement of examples/queries (rank-aware and traditional
   configurations), the differential-fuzz cases of seeds 0..199, and 2-,
   3- and 4-way key chains with fresh score weights on four 5000-row
   tables (the service benchmark's cache-miss planning shape); all at
   dop 1 and dop 2. *)

type item = {
  label : string;
  catalog : Storage.Catalog.t;
  query : (Core.Logical.t, string) result;
  dop : int;
  config : Core.Enumerator.config;
}

let env_of item query =
  Core.Cost_model.default_env
    ~k_min:(Option.value ~default:1 query.Core.Logical.k)
    ~dop:item.dop item.catalog query

let bind catalog ast =
  match Sqlfront.Binder.bind_result catalog ast with
  | Ok b -> Ok b.Sqlfront.Binder.logical
  | Error e -> Error e
  | exception e -> Error (Printexc.to_string e)

let bind_sql catalog sql =
  match Sqlfront.Sql.template_of_sql sql with
  | Error e -> Error e
  | Ok tpl -> (
      match Sqlfront.Sql.instantiate tpl () with
      | Error e -> Error e
      | Ok ast -> bind catalog ast)

let load_tables ~n ~domain names =
  let cat = Storage.Catalog.create () in
  List.iteri
    (fun i name ->
      ignore
        (Workload.Generator.load_scored_table cat
           (Rkutil.Prng.create (42 + (97 * i)))
           ~name ~n ~key_domain:domain ()))
    names;
  cat

(* Same splitting as `rankopt lint --dir`: ';'-separated, '--' comments. *)
let split_statements text =
  let strip line =
    let n = String.length line in
    let rec dash i =
      if i + 1 >= n then line
      else if line.[i] = '-' && line.[i + 1] = '-' then String.sub line 0 i
      else dash (i + 1)
    in
    dash 0
  in
  String.split_on_char '\n' text
  |> List.map strip |> String.concat "\n" |> String.split_on_char ';'
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let example_statements dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sql")
  |> List.sort String.compare
  |> List.concat_map (fun f ->
         In_channel.with_open_text (Filename.concat dir f) In_channel.input_all
         |> split_statements
         |> List.mapi (fun i sql -> (Printf.sprintf "%s#%d" f i, sql)))

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
       (List.map2 (fun w t -> Printf.sprintf "%.4f*%s.score" w t) weights tables))
    k

let chains () =
  let prng = Rkutil.Prng.create 7 in
  let shapes =
    [
      [ "A"; "B" ]; [ "B"; "C" ]; [ "C"; "D" ]; [ "A"; "B"; "C" ];
      [ "B"; "C"; "D" ]; [ "A"; "B"; "C"; "D" ];
    ]
  in
  List.concat_map
    (fun tables ->
      List.init 3 (fun _ ->
          let weights =
            List.map (fun _ -> 0.5 +. (0.5 *. Rkutil.Prng.uniform prng)) tables
          in
          let k = 1 + Rkutil.Prng.int prng 50 in
          chain_sql tables weights k))
    shapes

let traditional = { Core.Enumerator.rank_aware = false; first_rows = false }

let items ~examples_dir =
  let dops = [ 1; 2 ] in
  let examples =
    let cat = load_tables ~n:2000 ~domain:100 [ "A"; "B"; "C" ] in
    List.concat_map
      (fun (name, sql) ->
        List.concat_map
          (fun dop ->
            List.map
              (fun (cname, config) ->
                {
                  label = Printf.sprintf "example %s %s dop%d" name cname dop;
                  catalog = cat;
                  query = bind_sql cat sql;
                  dop;
                  config;
                })
              [ ("rank-aware", Core.Enumerator.default_config);
                ("traditional", traditional) ])
          dops)
      (example_statements examples_dir)
  in
  let fuzz =
    List.concat_map
      (fun seed ->
        let case = Check.Rankcheck.gen_case seed in
        let cat = Check.Rankcheck.build_catalog case in
        let query = bind cat case.Check.Rankcheck.c_query in
        List.map
          (fun dop ->
            {
              label = Printf.sprintf "fuzz seed %d dop%d" seed dop;
              catalog = cat;
              query;
              dop;
              config = Core.Enumerator.default_config;
            })
          dops)
      (List.init 200 Fun.id)
  in
  let chains =
    let cat = load_tables ~n:5000 ~domain:500 [ "A"; "B"; "C"; "D" ] in
    List.concat_map
      (fun sql ->
        List.map
          (fun dop ->
            {
              label = Printf.sprintf "chain dop%d %s" dop sql;
              catalog = cat;
              query = bind_sql cat sql;
              dop;
              config = Core.Enumerator.default_config;
            })
          dops)
      (chains ())
  in
  examples @ fuzz @ chains

let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let fingerprint item =
  match item.query with
  | Error e -> Printf.sprintf "%s | bind error: %s" item.label e
  | Ok query -> (
      match Core.Optimizer.optimize ~config:item.config ~env:(env_of item query)
              item.catalog query
      with
      | exception Failure msg -> Printf.sprintf "%s | plan error: %s" item.label msg
      | p ->
          let open Core.Optimizer in
          let v = p.k_validity in
          Printf.sprintf "%s | %s | cost=%s rows=%s | k=[%d,%s] | gen=%d ret=%d ent=%d"
            item.label
            (Core.Plan.describe p.plan)
            (bits p.est.Core.Cost_model.total_cost)
            (bits p.est.Core.Cost_model.rows)
            v.k_lo
            (match v.k_hi with Some h -> string_of_int h | None -> "inf")
            p.stats.Core.Enumerator.generated p.stats.Core.Enumerator.retained
            p.stats.Core.Enumerator.entries)
