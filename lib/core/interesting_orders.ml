open Relalg

type direction = Asc | Desc

type reason =
  | Join
  | Rank_join
  | Join_and_rank_join
  | Order_by

type key = { expr_key : Expr.key; key_direction : direction }

let key expr direction = { expr_key = Expr.key expr; key_direction = direction }

let key_equal a b =
  a.key_direction = b.key_direction && Expr.key_equal a.expr_key b.expr_key

let key_satisfies ~have ~want =
  match want with
  | None -> true
  | Some w -> ( match have with None -> false | Some h -> key_equal h w)

type interesting_order = {
  expr : Expr.t;
  direction : direction;
  reason : reason;
  relations : string list;
  key : key;
}

let reason_name = function
  | Join -> "Join"
  | Rank_join -> "Rank-join"
  | Join_and_rank_join -> "Join and Rank-join"
  | Order_by -> "Orderby"

let merge_reason a b =
  match a, b with
  | Order_by, _ | _, Order_by -> Order_by
  | Join, Rank_join | Rank_join, Join -> Join_and_rank_join
  | Join_and_rank_join, _ | _, Join_and_rank_join -> Join_and_rank_join
  | Join, Join -> Join
  | Rank_join, Rank_join -> Rank_join

(* Subsets (as lists) of size >= 2 of the given elements, by bitmask. *)
let subsets_of_size_ge2 xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let acc = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let members = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then members := arr.(i) :: !members
    done;
    if List.length !members >= 2 then acc := !members :: !acc
  done;
  List.rev !acc

let derive ?(rank_aware = true) (q : Logical.t) =
  let orders : interesting_order list ref = ref [] in
  let add expr direction reason relations =
    let key = key expr direction in
    let rec merge = function
      | [] -> [ { expr; direction; reason; relations; key } ]
      | o :: rest ->
          if key_equal o.key key then
            { o with reason = merge_reason o.reason reason } :: rest
          else o :: merge rest
    in
    orders := merge !orders
  in
  (* 1. Columns of equi-join predicates (ascending, for sort-merge). *)
  List.iter
    (fun (j : Logical.join_pred) ->
      add
        (Expr.col ~relation:j.Logical.left_table j.Logical.left_column)
        Asc Join
        [ j.Logical.left_table ];
      add
        (Expr.col ~relation:j.Logical.right_table j.Logical.right_column)
        Asc Join
        [ j.Logical.right_table ])
    q.Logical.joins;
  let ranked = Logical.ranked_relations q in
  if Logical.is_ranking q then begin
    if rank_aware then begin
      (* 2. Individual score expressions: rank-join inputs. *)
      List.iter
        (fun (b : Logical.base) ->
          match b.Logical.score with
          | Some e -> add e Desc Rank_join [ b.Logical.name ]
          | None -> ())
        ranked;
      (* 3. Partial combinations: what rank-join subplans produce. The full
         combination is the ORDER BY itself, tagged below. *)
      let names = List.map (fun (b : Logical.base) -> b.Logical.name) ranked in
      List.iter
        (fun subset ->
          if List.length subset < List.length names then
            match Logical.partial_scoring_expr q subset with
            | Some e -> add e Desc Rank_join subset
            | None -> ())
        (subsets_of_size_ge2 names)
    end;
    (* 4. The final ranking expression (present even for the traditional
       optimizer: it is an ORDER BY). *)
    match Logical.scoring_expr q with
    | Some e ->
        add e Desc Order_by
          (List.map (fun (b : Logical.base) -> b.Logical.name) ranked)
    | None -> ()
  end;
  (* An attribute interesting in both directions (join column ascending,
     rank attribute descending) carries both reasons, as in Table 1. *)
  let combined =
    List.map
      (fun o ->
        let cross_reason =
          List.fold_left
            (fun acc o' ->
              if
                o.direction <> o'.direction
                && Expr.key_equal o.key.expr_key o'.key.expr_key
              then
                merge_reason acc o'.reason
              else acc)
            o.reason !orders
        in
        { o with reason = cross_reason })
      !orders
  in
  combined

let for_subset orders names =
  List.filter
    (fun o -> List.for_all (fun r -> List.mem r names) o.relations)
    orders

let pp fmt o =
  Format.fprintf fmt "%a %s (%s)" Expr.pp o.expr
    (match o.direction with Asc -> "ASC" | Desc -> "DESC")
    (reason_name o.reason)
