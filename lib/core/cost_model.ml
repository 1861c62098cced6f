open Relalg

type env = {
  catalog : Storage.Catalog.t;
  query : Logical.t;
  k_min : int;
  cpu_factor : float;
  memory_tuples : int;
  sort_fan_in : int;
  nl_block_tuples : int;
  depth_mode : [ `Average | `Worst ];
  dop : int;
  exchange_startup : float;
  remote_startup : float;
  remote_row : float;
}

let default_env ?(k_min = 1) ?(cpu_factor = 0.002) ?(memory_tuples = 10_000)
    ?(sort_fan_in = 8) ?(nl_block_tuples = 1000) ?(depth_mode = `Worst)
    ?(dop = 1) ?(exchange_startup = 2.0) ?(remote_startup = 5.0)
    ?(remote_row = 0.01) catalog query =
  {
    catalog;
    query;
    k_min = max 1 k_min;
    cpu_factor;
    memory_tuples = max 2 memory_tuples;
    sort_fan_in = max 2 sort_fan_in;
    nl_block_tuples = max 1 nl_block_tuples;
    depth_mode;
    dop = max 1 dop;
    exchange_startup = Float.max 0.0 exchange_startup;
    remote_startup = Float.max 0.0 remote_startup;
    remote_row = Float.max 0.0 remote_row;
  }

type estimate = {
  rows : float;
  total_cost : float;
  cost_at : float -> float;
  k_dependent : bool;
}

let table_info env name = Storage.Catalog.table env.catalog name

let tuples_per_page env = float_of_int (Storage.Catalog.tuples_per_page env.catalog)

let base_cardinality env name =
  float_of_int (table_info env name).Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality

let filter_selectivity env pred =
  let default = 1.0 /. 3.0 in
  let column_const op r c =
    match (r : Expr.column_ref).relation with
    | None -> default
    | Some table -> (
        match Storage.Catalog.column_stats env.catalog ~table ~column:r.name with
        | None -> default
        | Some cs -> (
            let x = Value.to_float c in
            let h = cs.Storage.Catalog.cs_histogram in
            match op with
            | Expr.Eq -> Storage.Histogram.selectivity_eq h x
            | Expr.Ne -> 1.0 -. Storage.Histogram.selectivity_eq h x
            | Expr.Lt | Expr.Le -> Storage.Histogram.selectivity_le h x
            | Expr.Gt | Expr.Ge -> 1.0 -. Storage.Histogram.selectivity_le h x))
  in
  let rec go = function
    | Expr.Cmp (op, Expr.Col r, Expr.Const c)
      when not (Value.is_null c) ->
        column_const op r c
    | Expr.Cmp (op, Expr.Const c, Expr.Col r) when not (Value.is_null c) ->
        let flip = function
          | Expr.Lt -> Expr.Gt
          | Expr.Le -> Expr.Ge
          | Expr.Gt -> Expr.Lt
          | Expr.Ge -> Expr.Le
          | (Expr.Eq | Expr.Ne) as o -> o
        in
        column_const (flip op) r c
    | Expr.And (a, b) -> go a *. go b
    | Expr.Or (a, b) ->
        let sa = go a and sb = go b in
        Rkutil.Mathx.clamp ~lo:0.0 ~hi:1.0 (sa +. sb -. (sa *. sb))
    | Expr.Not a -> 1.0 -. go a
    | _ -> default
  in
  Rkutil.Mathx.clamp ~lo:1e-9 ~hi:1.0 (go pred)

let join_selectivity env (j : Logical.join_pred) =
  Storage.Catalog.estimate_join_selectivity env.catalog
    ~left:(j.Logical.left_table, j.Logical.left_column)
    ~right:(j.Logical.right_table, j.Logical.right_column)

(* Planning constants: the terms of a cost formula that depend only on the
   query, the catalog and a join predicate, relation or score expression —
   never on k or on a subplan's shape. A [planning] lives for one
   enumeration run (or one from-scratch estimate) and memoizes each term on
   first use. It is consulted only while an estimate is being built: the
   [cost_at] closures capture plain values, so a finished estimate can be
   probed from any domain. *)
type planning = {
  env : env;
  selectivities : (Logical.join_pred * float) list ref;
  ranked : (string * bool) list ref;
  log_cards : (string * float) list ref;
  slab_ranges : (Expr.t * float option) list ref;  (** keyed by [==] *)
}

let planning env =
  { env; selectivities = ref []; ranked = ref []; log_cards = ref []; slab_ranges = ref [] }

let planning_env p = p.env

let memo_assoc find cache key compute =
  match find key !cache with
  | Some v -> v
  | None ->
      let v = compute () in
      cache := (key, v) :: !cache;
      v

(* Clamped join selectivity of a predicate. *)
let selectivity p cond =
  memo_assoc List.assoc_opt p.selectivities cond (fun () ->
      Rkutil.Mathx.clamp ~lo:1e-12 ~hi:1.0 (join_selectivity p.env cond))

let is_ranked p name =
  memo_assoc List.assoc_opt p.ranked name (fun () ->
      match Logical.find_relation p.env.query name with
      | b -> b.Logical.weight > 0.0 && Option.is_some b.Logical.score
      | exception Not_found -> false)

let log_card p name =
  memo_assoc List.assoc_opt p.log_cards name (fun () ->
      log (Float.max 1.0 (base_cardinality p.env name)))

(* Number of ranked base relations under a plan (the model's l and r). *)
let ranked_fan p plan = List.length (List.filter (is_ranked p) (Plan.relations plan))

(* The depth-model parameters of a rank join, except k (set per probe by
   [at_k]): selectivity, fans, input cardinalities and the geometric mean
   of the base cardinalities. *)
let depth_base p ~cond ~left ~right ~left_rows ~right_rows =
  let s = selectivity p cond in
  let fan plan = max 1 (ranked_fan p plan) in
  let n =
    let logs = List.map (log_card p) (Plan.relations left @ Plan.relations right) in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (max 1 (List.length logs)))
  in
  {
    Depth_model.k = 1.0;
    s;
    n = Float.max 1.0 n;
    left = { Depth_model.fan = fan left; card = Float.max 1.0 left_rows };
    right = { Depth_model.fan = fan right; card = Float.max 1.0 right_rows };
  }

let at_k base k = { base with Depth_model.k = Float.max 1.0 k }

(* Score range (sum of |weight| * column range) of a linear score
   expression over columns with stats; [None] otherwise. *)
let slab_range p e =
  memo_assoc List.assq_opt p.slab_ranges e (fun () ->
      match Expr.as_linear e with
      | None -> None
      | Some lin ->
          List.fold_left
            (fun acc ((w, r) : float * Expr.column_ref) ->
              match acc, r.Expr.relation with
              | None, _ | _, None -> None
              | Some total, Some table -> (
                  match
                    Storage.Catalog.column_stats p.env.catalog ~table
                      ~column:r.Expr.name
                  with
                  | Some cs ->
                      Some
                        (total
                        +. Float.abs w
                           *. (cs.Storage.Catalog.cs_max -. cs.Storage.Catalog.cs_min))
                  | None -> None))
            (Some 0.0) lin.Expr.terms)

(* Mean score-decrement slab of a side's (weighted, linear) score
   expression, from column statistics: the "x"/"y" of the any-k formulas.
   [None] when the expression is not linear over columns with stats. *)
let side_slab p score_expr ~rows =
  if rows < 2.0 then None
  else
    match score_expr with
    | None -> None
    | Some e -> (
        match slab_range p e with
        | Some r when r > 0.0 -> Some (r /. (rows -. 1.0))
        | _ -> None)

let frac rows x = if rows <= 0.0 then 1.0 else Rkutil.Mathx.clamp ~lo:0.0 ~hi:1.0 (x /. rows)

(* The depths function of a rank join: k -> clamped depths. HRJN uses the
   histogram-derived slabs when both inputs are single ranked base
   relations (refining the uniform assumption, e.g. for asymmetric score
   weights); otherwise, and always for NRJN, the closed form of
   [depth_mode]. *)
let rank_depths p ~slab_scores ~cond ~left ~right ~left_rows ~right_rows =
  let base = depth_base p ~cond ~left ~right ~left_rows ~right_rows in
  let closed_form =
    match p.env.depth_mode with
    | `Average -> Depth_model.average_case_depths
    | `Worst -> Depth_model.worst_case_depths
  in
  let slabs =
    match slab_scores with
    | Some (left_score, right_score)
      when ranked_fan p left = 1 && ranked_fan p right = 1 -> (
        match
          ( side_slab p left_score ~rows:left_rows,
            side_slab p right_score ~rows:right_rows )
        with
        | Some x, Some y -> Some (x, y)
        | _ -> None)
    | _ -> None
  in
  fun k ->
    let pk = at_k base k in
    let d =
      match slabs with
      | Some (x, y) ->
          Depth_model.top_k_depths_slabs ~k:pk.Depth_model.k ~s:pk.Depth_model.s ~x ~y
      | None -> closed_form pk
    in
    Depth_model.clamped pk d

let rec estimate_with p plan =
  estimate_node p plan (List.map (estimate_with p) (Plan.children plan))

and estimate_node p plan inputs =
  let env = p.env in
  match plan, inputs with
  | Plan.Table_scan { table }, [] ->
      let info = table_info env table in
      let rows = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality in
      let pages = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_pages in
      let cost_at x =
        let x = Float.min x rows in
        (pages *. frac rows x) +. (env.cpu_factor *. x)
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = false }
  | Plan.Index_scan { table; index; _ }, [] ->
      let info = table_info env table in
      let rows = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality in
      let pages = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_pages in
      let leaf_cap = tuples_per_page env in
      let height = Float.max 1.0 (log (Float.max 2.0 rows) /. log leaf_cap) in
      let clustered =
        match
          List.find_opt
            (fun ix -> String.equal ix.Storage.Catalog.ix_name index)
            info.Storage.Catalog.tb_indexes
        with
        | Some ix -> ix.Storage.Catalog.ix_clustered
        | None -> true
      in
      let frames = float_of_int (Storage.Buffer_pool.frames (Storage.Catalog.pool env.catalog)) in
      let cost_at x =
        let x = Float.min x rows in
        if clustered then height +. (x /. leaf_cap) +. (env.cpu_factor *. x)
        else begin
          (* Unclustered: each entry fetches a heap page at random. With a
             pool that holds the whole table the cost is the distinct pages
             touched (Cardenas); with a smaller pool most fetches miss. *)
          let touched =
            if pages <= 0.0 then 0.0 else pages *. (1.0 -. exp (-.x /. pages))
          in
          let io =
            if frames >= pages then touched
            else Float.max touched (x *. (1.0 -. (frames /. Float.max 1.0 pages)))
          in
          height +. (x /. leaf_cap) +. io +. (env.cpu_factor *. x)
        end
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = false }
  | Plan.Rank_index_scan { table; index; lo; hi; _ }, [] -> (
      let info = table_info env table in
      let card = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality in
      let pages = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_pages in
      let window = float_of_int (max 0 (hi - lo + 1)) in
      let rows = Float.min window card in
      let leaf_cap = tuples_per_page env in
      match index with
      | Some nm ->
          (* Counted descent: one root-to-leaf walk positions the window,
             then the leaf chain yields window entries — O(log n + window),
             independent of lo. Unclustered leaves add per-entry heap
             fetches (Cardenas, as for Index_scan). *)
          let height = Float.max 1.0 (log (Float.max 2.0 card) /. log leaf_cap) in
          let clustered =
            match
              List.find_opt
                (fun ix -> String.equal ix.Storage.Catalog.ix_name nm)
                info.Storage.Catalog.tb_indexes
            with
            | Some ix -> ix.Storage.Catalog.ix_clustered
            | None -> true
          in
          let frames =
            float_of_int (Storage.Buffer_pool.frames (Storage.Catalog.pool env.catalog))
          in
          let cost_at x =
            let x = Float.min x rows in
            let heap_io =
              if clustered then 0.0
              else begin
                let touched =
                  if pages <= 0.0 then 0.0 else pages *. (1.0 -. exp (-.x /. pages))
                in
                if frames >= pages then touched
                else Float.max touched (x *. (1.0 -. (frames /. Float.max 1.0 pages)))
              end
            in
            height +. (x /. leaf_cap) +. heap_io +. (env.cpu_factor *. x)
          in
          { rows; total_cost = cost_at rows; cost_at; k_dependent = false }
      | None ->
          (* No order-statistic index: drain the heap, sort by score, slice
             the window. Blocking, so flat in x. *)
          let scan = pages +. (env.cpu_factor *. card) in
          let sort_cpu =
            env.cpu_factor *. card *. log (Float.max 2.0 card) /. log 2.0
          in
          let total = scan +. sort_cpu +. (env.cpu_factor *. rows) in
          { rows; total_cost = total; cost_at = (fun _ -> total); k_dependent = false })
  | Plan.Remote_scan { tables; k_bound; score; _ }, [] ->
      (* One shard's pushed subquery, seen from the coordinator: a startup
         round-trip plus per-row transfer. The shard serves its stream
         incrementally (rank index / HRJN on its side), so the coordinator's
         view is linear in the rows actually pulled — that linearity is what
         the gather's threshold exploits. Shard-local cardinality is the
         coordinator's full-table estimate; k' caps the contribution. *)
      let card =
        List.fold_left (fun acc t -> acc *. base_cardinality env t) 1.0 tables
      in
      let rows =
        match k_bound with
        | Some k -> Float.min (float_of_int k) card
        | None -> card
      in
      let cost_at x =
        let x = Float.min x rows in
        env.remote_startup +. ((env.remote_row +. env.cpu_factor) *. x)
      in
      {
        rows;
        total_cost = cost_at rows;
        cost_at;
        k_dependent = Option.is_some score;
      }
  | Plan.Gather_merge { k; score; _ }, ests ->
      let n = float_of_int (max 1 (List.length ests)) in
      let sum_rows = List.fold_left (fun acc e -> acc +. e.rows) 0.0 ests in
      let rows =
        match k with
        | Some k -> Float.min (float_of_int k) sum_rows
        | None -> sum_rows
      in
      let cost_at x =
        let x = Float.min x rows in
        (* Threshold merge: with homogeneously distributed scores each shard
           is drained to ~x/N plus one batch of slack before its bound drops
           below the global k-th candidate; skewed shards cost less, so this
           is the flat-prior estimate. The heap hand-off is log N per row. *)
        let per_shard = (x /. n) +. 8.0 in
        List.fold_left
          (fun acc e -> acc +. e.cost_at (Float.min per_shard e.rows))
          (env.cpu_factor *. x *. (log (Float.max 2.0 n) /. log 2.0))
          ests
      in
      {
        rows;
        total_cost = cost_at rows;
        cost_at;
        k_dependent = Option.is_some score;
      }
  | Plan.Filter { pred; _ }, [ i ] ->
      let sel = filter_selectivity env pred in
      let rows = i.rows *. sel in
      let cost_at x =
        let x = Float.min x rows in
        let need = if sel <= 0.0 then i.rows else Float.min i.rows (x /. sel) in
        i.cost_at need +. (env.cpu_factor *. need)
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = i.k_dependent }
  | Plan.Sort _, [ i ] ->
      let rows = i.rows in
      let pages = rows /. tuples_per_page env in
      let extra_io =
        if rows <= float_of_int env.memory_tuples then 0.0
        else begin
          let runs = Float.ceil (rows /. float_of_int env.memory_tuples) in
          let passes =
            Float.ceil (log (Float.max 2.0 runs) /. log (float_of_int env.sort_fan_in))
          in
          2.0 *. pages *. Float.max 1.0 passes
        end
      in
      let cpu = env.cpu_factor *. rows *. log (Float.max 2.0 rows) /. log 2.0 in
      let total = i.total_cost +. extra_io +. cpu in
      { rows; total_cost = total; cost_at = (fun _ -> total); k_dependent = false }
  | Plan.Top_k { k; _ }, [ i ] ->
      let kf = float_of_int k in
      let rows = Float.min kf i.rows in
      let cost_at x = i.cost_at (Float.min x rows) in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = i.k_dependent }
  | Plan.Join { algo; cond; left; right; left_score; right_score }, [ l; r ] ->
      estimate_join p ~algo ~cond ~left ~right ~left_score ~right_score l r
  | Plan.Exchange { dop; input }, [ i ] ->
      let d = float_of_int (max 1 dop) in
      (* Off-spine subtrees (hash build sides, NL inners, INL probe paths)
         are built once, by one worker; only the driving spine's work
         divides by the degree. Startup charges pump scheduling, the
         per-tuple term charges the slot/merge hand-off at the gather. *)
      let serial =
        List.fold_left
          (fun acc sub -> acc +. (estimate_with p sub).total_cost)
          0.0
          (Parallel.off_spine input)
      in
      let parallel = Float.max 0.0 (i.total_cost -. serial) in
      let total =
        env.exchange_startup +. serial +. (parallel /. d)
        +. (env.cpu_factor *. i.rows)
      in
      (* A gather consumes whole morsels: there is no early-out below the
         exchange, so the cost is flat in x. This is exactly how the
         pipeline-breaking enters the k* rule: a serial incremental plan
         with cost_at(k) below this flat line stays serial. *)
      {
        rows = i.rows;
        total_cost = total;
        cost_at = (fun _ -> total);
        k_dependent = false;
      }
  | Plan.Nary_rank_join { key; tables; _ }, ests ->
      let m = List.length ests in
      (* Pairwise selectivity from the first adjacent pair (shared key, so
         all pairs estimate alike). *)
      let s =
        match tables with
        | a :: b :: _ ->
            selectivity p
              {
                Logical.left_table = a;
                left_column = key;
                right_table = b;
                right_column = key;
              }
        | _ -> 1.0
      in
      let rows =
        List.fold_left (fun acc e -> acc *. e.rows) 1.0 ests
        *. (s ** float_of_int (m - 1))
      in
      let cpu = env.cpu_factor in
      let cost_at x =
        let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
        let d = Depth_model.nary_uniform_depth ~m ~k:x ~s in
        List.fold_left
          (fun acc e ->
            let di = Float.min d e.rows in
            acc +. e.cost_at di +. (cpu *. di))
          (cpu *. x) ests
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = true }
  | Plan.Any_k { keys; _ }, ests ->
      let m = List.length ests in
      (* One selectivity per join-tree edge; the acyclic output cardinality
         is the product of input cardinalities and edge selectivities. *)
      let edge_sel (_, pk, ck) =
        match pk, ck with
        | Expr.Col l, Expr.Col r -> (
            match l.Expr.relation, r.Expr.relation with
            | Some lt, Some rt ->
                selectivity p
                  {
                    Logical.left_table = lt;
                    left_column = l.Expr.name;
                    right_table = rt;
                    right_column = r.Expr.name;
                  }
            | _ -> 1.0 /. 3.0)
        | _ -> 1.0 /. 3.0
      in
      let rows =
        List.fold_left (fun acc e -> acc *. e.rows) 1.0 ests
        *. List.fold_left (fun acc k -> acc *. edge_sel k) 1.0 keys
      in
      let cpu = env.cpu_factor in
      (* Build: every input materialized in full plus the per-bucket sort
         of the DP tables. Enumeration: a bounded per-result delay (heap
         pop + O(m) candidate expansions), flat in the answer's rank. *)
      let build =
        List.fold_left
          (fun acc e ->
            let n = Float.max 1.0 e.rows in
            acc +. e.total_cost +. (cpu *. n *. (log n /. log 2.0)))
          0.0 ests
      in
      let delay =
        cpu
        *. (float_of_int m
           +. log (Float.max 2.0 rows) /. log 2.0)
      in
      let cost_at x =
        let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
        build +. (delay *. x)
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = true }
  | _ -> invalid_arg "Cost_model.estimate_node: inputs do not match the plan"

and estimate_join p ~algo ~cond ~left ~right ~left_score ~right_score l r =
  let env = p.env in
  let s = selectivity p cond in
  let rows = l.rows *. r.rows *. s in
  let cpu = env.cpu_factor in
  match algo with
  | Plan.Nested_loops ->
      let blocks = Float.max 1.0 (Float.ceil (l.rows /. float_of_int env.nl_block_tuples)) in
      let total =
        l.total_cost +. (blocks *. r.total_cost) +. (cpu *. l.rows *. r.rows)
      in
      let cost_at x =
        let f = frac rows x in
        r.total_cost +. (f *. (total -. r.total_cost))
      in
      { rows; total_cost = total; cost_at; k_dependent = false }
  | Plan.Index_nl ->
      (* Right side must be a single base relation probed via an index. *)
      let right_distinct =
        match
          Storage.Catalog.column_stats env.catalog ~table:cond.Logical.right_table
            ~column:cond.Logical.right_column
        with
        | Some cs when cs.Storage.Catalog.cs_distinct > 0 ->
            float_of_int cs.Storage.Catalog.cs_distinct
        | _ -> Float.max 1.0 r.rows
      in
      let leaf_cap = tuples_per_page env in
      let height = Float.max 1.0 (log (Float.max 2.0 r.rows) /. log leaf_cap) in
      let matches_per_probe = r.rows /. right_distinct in
      let per_probe = height +. (matches_per_probe /. leaf_cap) in
      let total =
        l.total_cost +. (l.rows *. per_probe) +. (cpu *. (l.rows +. rows))
      in
      let cost_at x =
        let f = frac rows x in
        l.cost_at (f *. l.rows)
        +. (f *. l.rows *. per_probe)
        +. (cpu *. f *. (l.rows +. rows))
      in
      { rows; total_cost = total; cost_at; k_dependent = l.k_dependent }
  | Plan.Hash ->
      (* The executor's hash join spills Grace partitions when the build
         side exceeds memory: both inputs are then written and re-read. *)
      let spill_io =
        if r.rows <= float_of_int env.memory_tuples then 0.0
        else 2.0 *. ((l.rows +. r.rows) /. tuples_per_page env)
      in
      let total =
        l.total_cost +. r.total_cost +. spill_io
        +. (cpu *. (l.rows +. r.rows +. rows))
      in
      let cost_at x =
        let f = frac rows x in
        r.total_cost +. spill_io
        +. l.cost_at (f *. l.rows)
        +. (cpu *. ((f *. l.rows) +. r.rows +. (f *. rows)))
      in
      { rows; total_cost = total; cost_at; k_dependent = l.k_dependent }
  | Plan.Sort_merge ->
      let total = l.total_cost +. r.total_cost +. (cpu *. (l.rows +. r.rows)) in
      let cost_at x =
        let f = frac rows x in
        l.cost_at (f *. l.rows) +. r.cost_at (f *. r.rows)
        +. (cpu *. f *. (l.rows +. r.rows))
      in
      {
        rows;
        total_cost = total;
        cost_at;
        k_dependent = l.k_dependent || r.k_dependent;
      }
  | Plan.Hrjn ->
      let depths =
        rank_depths p ~slab_scores:(Some (left_score, right_score)) ~cond ~left ~right
          ~left_rows:l.rows ~right_rows:r.rows
      in
      let cost_at x =
        let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
        let d = depths x in
        l.cost_at d.Depth_model.d_left
        +. r.cost_at d.Depth_model.d_right
        +. (cpu
           *. (d.Depth_model.d_left +. d.Depth_model.d_right +. x
              +. Depth_model.buffer_upper_bound d ~s))
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = true }
  | Plan.Nrjn ->
      (* Outer depth from the model; the inner input is fully re-scanned for
         every outer tuple. *)
      let depths =
        rank_depths p ~slab_scores:None ~cond ~left ~right ~left_rows:l.rows
          ~right_rows:r.rows
      in
      let cost_at x =
        let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
        let d = depths x in
        let outer = d.Depth_model.d_left in
        l.cost_at outer
        +. (outer *. r.total_cost)
        +. (cpu *. ((outer *. r.rows) +. x))
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = true }

let estimate env plan = estimate_with (planning env) plan

let rank_join_depths env plan ~k ~cond ~left ~right =
  let p = planning env in
  let l = estimate_with p left and r = estimate_with p right in
  let left_score, right_score =
    match plan with
    | Plan.Join { left_score; right_score; _ } -> (left_score, right_score)
    | _ -> (None, None)
  in
  rank_depths p ~slab_scores:(Some (left_score, right_score)) ~cond ~left ~right
    ~left_rows:l.rows ~right_rows:r.rows k

let any_k_depths_for env ~k ~cond ~left ~right =
  let p = planning env in
  let l = estimate_with p left and r = estimate_with p right in
  let pk =
    at_k
      (depth_base p ~cond ~left ~right ~left_rows:l.rows ~right_rows:r.rows)
      k
  in
  (* Use the slab formulation with equal slabs scaled by n/card: for the
     model's uniform-[0,n] convention the slab is n/card per input. *)
  let x = pk.Depth_model.n /. pk.Depth_model.left.Depth_model.card in
  let y = pk.Depth_model.n /. pk.Depth_model.right.Depth_model.card in
  let c_l, c_r = Depth_model.any_k_depths ~k:pk.Depth_model.k ~s:pk.Depth_model.s ~x ~y in
  Depth_model.clamped pk { Depth_model.d_left = c_l; d_right = c_r }

let k_star env ~rank_plan ~sort_plan =
  let rank = estimate env rank_plan in
  let sort = estimate env sort_plan in
  let na = Float.max 1.0 rank.rows in
  let f k = rank.cost_at k -. sort.total_cost in
  if f na <= 0.0 then None (* rank plan cheaper everywhere: k* > na *)
  else if f 1.0 >= 0.0 then Some 1.0
  else Some (Rkutil.Mathx.bisect ~f ~lo:1.0 ~hi:na ())
