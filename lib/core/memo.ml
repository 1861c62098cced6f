type subplan = {
  plan : Plan.t;
  est : Cost_model.estimate;
  order : Plan.order option;
  order_key : Interesting_orders.key option;
  pipelined : bool;
  dop : int;
  vectorized : bool;
  decision_cost : float;
}

let make env plan est ~order ~order_key =
  {
    plan;
    est;
    order;
    order_key;
    pipelined = Plan.pipelined plan;
    dop = Plan.dop plan;
    vectorized = Vectorize.vectorized plan;
    decision_cost = est.Cost_model.cost_at (float_of_int env.Cost_model.k_min);
  }

let subplan_of env plan =
  let order = Plan.order_of plan in
  make env plan (Cost_model.estimate env plan) ~order
    ~order_key:(Option.map Plan.order_key order)

let extend p ?order_key plan inputs =
  let est =
    Cost_model.estimate_node p plan (List.map (fun sp -> sp.est) inputs)
  in
  let order, order_key =
    match Plan.order_source plan, inputs with
    | `First_input, first :: _ -> (first.order, first.order_key)
    | `First_input, [] -> invalid_arg "Memo.extend: missing input"
    | `Own None, _ -> (None, None)
    | `Own (Some o as order), _ ->
        (order, Some (match order_key with Some k -> k | None -> Plan.order_key o))
  in
  make (Cost_model.planning_env p) plan est ~order ~order_key

type t = {
  entries : (int, subplan list ref) Hashtbl.t;
  mutable generated : int;
}

let create () = { entries = Hashtbl.create 64; generated = 0 }

(* Does [a] win the cost comparison against [b] decisively — i.e. for every
   number of results that could be requested from this memo entry? *)
let cost_dominates a b =
  let open Cost_model in
  match a.est.k_dependent, b.est.k_dependent with
  | false, false -> a.est.total_cost <= b.est.total_cost
  | true, true ->
      (* Same k propagates to both: compare at the minimum (costs of rank
         plans only grow with k at the same rate family). *)
      a.decision_cost <= b.decision_cost
      && a.est.total_cost <= b.est.total_cost
  | true, false ->
      (* Rank plan vs blocking plan: decisive only when the rank plan wins
         even at full output (k* > na). *)
      let na = Float.max 1.0 a.est.rows in
      a.est.cost_at na <= b.est.total_cost
  | false, true ->
      (* Blocking plan vs rank plan: decisive when it wins already at k_min
         (k* <= k_min; larger k only makes the rank plan dearer). *)
      a.est.total_cost <= b.decision_cost

let dominates ~first_rows a b =
  Interesting_orders.key_satisfies ~have:a.order_key ~want:b.order_key
  && ((not first_rows) || a.pipelined || not b.pipelined)
  && cost_dominates a b

let add t ~first_rows ~key sp =
  t.generated <- t.generated + 1;
  let entry =
    match Hashtbl.find_opt t.entries key with
    | Some e -> e
    | None ->
        let e = ref [] in
        Hashtbl.add t.entries key e;
        e
  in
  if List.exists (fun q -> dominates ~first_rows q sp) !entry then false
  else begin
    entry := sp :: List.filter (fun q -> not (dominates ~first_rows sp q)) !entry;
    true
  end

let plans t key =
  match Hashtbl.find_opt t.entries key with Some e -> !e | None -> []

let entry_keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [])

let retained t = Hashtbl.fold (fun _ e acc -> acc + List.length !e) t.entries 0

let generated t = t.generated

let best t ?order key =
  let candidates =
    match order with
    | None -> plans t key
    | Some o ->
        let want = Some (Plan.order_key o) in
        List.filter
          (fun sp -> Interesting_orders.key_satisfies ~have:sp.order_key ~want)
          (plans t key)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun acc sp ->
             if sp.decision_cost < acc.decision_cost then sp else acc)
           first rest)

let pp_entry fmt plans =
  List.iter
    (fun sp ->
      Format.fprintf fmt "  %-40s cost=%-10.1f %s %s@."
        (Plan.describe sp.plan) sp.est.Cost_model.total_cost
        (match sp.order with
        | None -> "order=DC"
        | Some o ->
            Format.asprintf "order=%a %s" Relalg.Expr.pp o.Plan.expr
              (match o.Plan.direction with
              | Interesting_orders.Asc -> "ASC"
              | Interesting_orders.Desc -> "DESC"))
        (if sp.pipelined then "pipelined" else "blocking"))
    plans
