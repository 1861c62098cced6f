exception Parse_error of string

type state = {
  mutable tokens : Lexer.token list;
}

let peek st = match st.tokens with [] -> Lexer.Teof | t :: _ -> t

let advance st =
  match st.tokens with
  | [] -> ()
  | _ :: rest -> st.tokens <- rest

let fail expected st =
  raise
    (Parse_error
       (Format.asprintf "expected %s, found %a" expected Lexer.pp_token (peek st)))

let eat_keyword st kw =
  match peek st with
  | Lexer.Tkeyword k when String.equal k kw -> advance st
  | _ -> fail ("keyword " ^ kw) st

let eat_symbol st sym =
  match peek st with
  | Lexer.Tsymbol s when String.equal s sym -> advance st
  | _ -> fail ("symbol " ^ sym) st

(* A count literal (LIMIT k, rank <= k, rank() BETWEEN bounds) as an int.
   Literals are lexed as floats; one at or past 2^62 does not fit an OCaml
   int, and converting it would silently wrap to a wrong count. *)
let count_literal what f =
  if f >= 0x1p62 then
    raise (Parse_error (what ^ " out of range (must be below 2^62)"))
  else int_of_float f

let ident st =
  match peek st with
  | Lexer.Tident name ->
      advance st;
      name
  | _ -> fail "identifier" st

(* expr := term (('+' | '-') term)*
   term := factor (('*' | '/') factor)*
   factor := number | string | column | '-' factor | '(' expr ')' *)
let rec parse_expr st =
  let lhs = parse_term st in
  let rec loop acc =
    match peek st with
    | Lexer.Tsymbol "+" ->
        advance st;
        loop (Ast.Binop (Ast.Add, acc, parse_term st))
    | Lexer.Tsymbol "-" ->
        advance st;
        loop (Ast.Binop (Ast.Sub, acc, parse_term st))
    | _ -> acc
  in
  loop lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec loop acc =
    match peek st with
    | Lexer.Tsymbol "*" ->
        advance st;
        loop (Ast.Binop (Ast.Mul, acc, parse_factor st))
    | Lexer.Tsymbol "/" ->
        advance st;
        loop (Ast.Binop (Ast.Div, acc, parse_factor st))
    | _ -> acc
  in
  loop lhs

and parse_factor st =
  match peek st with
  | Lexer.Tnumber f ->
      advance st;
      Ast.Number f
  | Lexer.Tstring s ->
      advance st;
      Ast.String s
  | Lexer.Tsymbol "-" ->
      advance st;
      Ast.Unary_minus (parse_factor st)
  | Lexer.Tsymbol "(" ->
      advance st;
      let e = parse_expr st in
      eat_symbol st ")";
      e
  | Lexer.Tident first -> (
      advance st;
      match peek st with
      | Lexer.Tsymbol "." ->
          advance st;
          let name = ident st in
          Ast.Column { table = Some first; name }
      | _ -> Ast.Column { table = None; name = first })
  | _ -> fail "expression" st

let parse_cmpop st =
  match peek st with
  | Lexer.Tsymbol "=" ->
      advance st;
      Ast.Eq
  | Lexer.Tsymbol "<>" ->
      advance st;
      Ast.Ne
  | Lexer.Tsymbol "<" ->
      advance st;
      Ast.Lt
  | Lexer.Tsymbol "<=" ->
      advance st;
      Ast.Le
  | Lexer.Tsymbol ">" ->
      advance st;
      Ast.Gt
  | Lexer.Tsymbol ">=" ->
      advance st;
      Ast.Ge
  | _ -> fail "comparison operator" st

let parse_condition st =
  let lhs = parse_expr st in
  let op = parse_cmpop st in
  let rhs = parse_expr st in
  Ast.Compare (op, lhs, rhs)

let agg_of_name name =
  match String.uppercase_ascii name with
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | "AVG" -> Some Ast.Avg
  | _ -> None

let parse_alias st =
  match peek st with
  | Lexer.Tkeyword "AS" ->
      advance st;
      Some (ident st)
  | _ -> None

let parse_select_item st =
  match peek st with
  | Lexer.Tsymbol "*" ->
      advance st;
      Ast.Star
  | Lexer.Tident name when agg_of_name name <> None && (
      match st.tokens with
      | _ :: Lexer.Tsymbol "(" :: _ -> true
      | _ -> false) ->
      let fn = Option.get (agg_of_name name) in
      advance st;
      eat_symbol st "(";
      let arg =
        match peek st with
        | Lexer.Tsymbol "*" ->
            advance st;
            None
        | _ -> Some (parse_expr st)
      in
      eat_symbol st ")";
      (match fn, arg with
      | Ast.Count, _ -> ()
      | _, None -> fail "an argument expression (only COUNT accepts *)" st
      | _, Some _ -> ());
      Ast.Aggregate { fn; arg; alias = parse_alias st }
  | Lexer.Tident r
    when String.lowercase_ascii r = "rank"
         && (match st.tokens with
            | _ :: Lexer.Tsymbol "(" :: Lexer.Tsymbol ")" :: rest -> (
                (* Bare rank() projects the output row's 1-based rank; the
                   OVER form belongs to the WITH desugaring, not here. *)
                match rest with Lexer.Tkeyword "OVER" :: _ -> false | _ -> true)
            | _ -> false) ->
      advance st;
      eat_symbol st "(";
      eat_symbol st ")";
      let alias = Option.value ~default:"rank" (parse_alias st) in
      Ast.Rank_of_row { alias }
  | _ -> (
      let expr = parse_expr st in
      match parse_alias st with
      | Some a -> Ast.Item { expr; alias = Some a }
      | None -> Ast.Item { expr; alias = None })

let rec comma_separated st parse_one =
  let first = parse_one st in
  match peek st with
  | Lexer.Tsymbol "," ->
      advance st;
      first :: comma_separated st parse_one
  | _ -> [ first ]

(* The inner select list of the WITH form: normal items plus exactly one
   rank() OVER (ORDER BY ...) [AS alias] item. *)
let parse_inner_items st =
  let items = ref [] in
  let rank = ref None in
  let parse_one () =
    match st.tokens with
    | Lexer.Tident r :: Lexer.Tsymbol "(" :: Lexer.Tsymbol ")" :: _
      when String.lowercase_ascii r = "rank" ->
        advance st;
        eat_symbol st "(";
        eat_symbol st ")";
        eat_keyword st "OVER";
        eat_symbol st "(";
        eat_keyword st "ORDER";
        eat_keyword st "BY";
        let e = parse_expr st in
        let dir =
          match peek st with
          | Lexer.Tkeyword "DESC" ->
              advance st;
              Ast.Desc
          | Lexer.Tkeyword "ASC" ->
              advance st;
              Ast.Asc
          | _ -> Ast.Desc
        in
        eat_symbol st ")";
        let alias = Option.value ~default:"rank" (parse_alias st) in
        if !rank <> None then fail "a single rank() item" st;
        rank := Some (e, dir, alias)
    | _ -> items := parse_select_item st :: !items
  in
  parse_one ();
  let rec more () =
    match peek st with
    | Lexer.Tsymbol "," ->
        advance st;
        parse_one ();
        more ()
    | _ -> ()
  in
  more ();
  match !rank with
  | None -> fail "a rank() OVER (ORDER BY ...) item in the WITH subquery" st
  | Some r -> (List.rev !items, r)

(* WITH cte AS (SELECT ... rank() OVER (...) AS r FROM ... [WHERE ...])
   SELECT cols FROM cte WHERE r <= k  — desugared to a plain top-k query. *)
let parse_with_query st =
  eat_keyword st "WITH";
  let cte = ident st in
  eat_keyword st "AS";
  eat_symbol st "(";
  eat_keyword st "SELECT";
  let inner_items, (rank_expr, rank_dir, rank_alias) = parse_inner_items st in
  eat_keyword st "FROM";
  let from = comma_separated st ident in
  let where =
    match peek st with
    | Lexer.Tkeyword "WHERE" ->
        advance st;
        let rec conjuncts () =
          let c = parse_condition st in
          match peek st with
          | Lexer.Tkeyword "AND" ->
              advance st;
              c :: conjuncts ()
          | _ -> [ c ]
        in
        conjuncts ()
    | _ -> []
  in
  eat_symbol st ")";
  eat_keyword st "SELECT";
  let outer_items = comma_separated st parse_select_item in
  eat_keyword st "FROM";
  let outer_from = ident st in
  if not (String.equal outer_from cte) then
    fail (Printf.sprintf "the CTE name %s in the outer FROM" cte) st;
  eat_keyword st "WHERE";
  let k =
    match st.tokens with
    | Lexer.Tident r :: Lexer.Tsymbol "<=" :: Lexer.Tnumber f :: rest
      when String.equal r rank_alias && Float.is_integer f && f >= 0.0 ->
        st.tokens <- rest;
        count_literal "rank bound" f
    | Lexer.Tident r :: Lexer.Tsymbol "<" :: Lexer.Tnumber f :: rest
      when String.equal r rank_alias && Float.is_integer f && f >= 1.0 ->
        st.tokens <- rest;
        count_literal "rank bound" f - 1
    | _ -> fail (Printf.sprintf "%s <= k in the outer WHERE" rank_alias) st
  in
  (match peek st with
  | Lexer.Teof -> ()
  | _ -> fail "end of query" st);
  (* Map the outer select list back onto the inner expressions. *)
  let lookup_alias name =
    List.find_map
      (function
        | Ast.Item { expr; alias = Some a } when String.equal a name -> Some expr
        | Ast.Item { expr = Ast.Column { name = n; _ } as expr; alias = None }
          when String.equal n name ->
            Some expr
        | _ -> None)
      inner_items
  in
  let select =
    List.concat_map
      (function
        | Ast.Star -> inner_items @ [ Ast.Rank_of_row { alias = rank_alias } ]
        | Ast.Item { expr = Ast.Column { table = None; name }; alias }
          when String.equal name rank_alias ->
            [ Ast.Rank_of_row { alias = Option.value ~default:rank_alias alias } ]
        | Ast.Item { expr = Ast.Column { table = None; name }; alias } -> (
            match lookup_alias name with
            | Some e -> [ Ast.Item { expr = e; alias = Some (Option.value ~default:name alias) } ]
            | None -> fail (Printf.sprintf "an output column of %s (got %s)" cte name) st)
        | _ -> fail "outer select items must be CTE column names" st)
      outer_items
  in
  {
    Ast.select;
    from;
    where;
    rank_between = None;
    rank_dense = false;
    group_by = [];
    order_by = Some (rank_expr, rank_dir);
    limit = Some k;
    limit_param = false;
  }

let parse_plain_query st =
  eat_keyword st "SELECT";
  let select = comma_separated st parse_select_item in
  eat_keyword st "FROM";
  let from = comma_separated st ident in
  let rank_between = ref None in
  let rank_dense = ref false in
  (* rank() BETWEEN i AND j (or dense_rank() BETWEEN i AND j) — a by-rank
     window conjunct; the ranks must be positive integer literals with
     i <= j *)
  let parse_rank_between ~dense =
    advance st;
    (* rank / dense_rank *)
    eat_symbol st "(";
    eat_symbol st ")";
    eat_keyword st "BETWEEN";
    let bound what =
      match peek st with
      | Lexer.Tnumber f when Float.is_integer f && f >= 1.0 ->
          advance st;
          count_literal (what ^ " rank") f
      | _ -> fail (what ^ " rank (positive integer)") st
    in
    let lo = bound "lower" in
    eat_keyword st "AND";
    let hi = bound "upper" in
    if hi < lo then fail "a non-empty rank window (lo <= hi)" st;
    if !rank_between <> None then fail "at most one rank() window" st;
    rank_between := Some (lo, hi);
    rank_dense := dense
  in
  let where =
    match peek st with
    | Lexer.Tkeyword "WHERE" ->
        advance st;
        let rec conjuncts () =
          match st.tokens with
          | Lexer.Tident r :: Lexer.Tsymbol "(" :: Lexer.Tsymbol ")" :: _
            when String.equal (String.lowercase_ascii r) "rank"
                 || String.equal (String.lowercase_ascii r) "dense_rank" -> (
              parse_rank_between
                ~dense:(String.equal (String.lowercase_ascii r) "dense_rank");
              match peek st with
              | Lexer.Tkeyword "AND" ->
                  advance st;
                  conjuncts ()
              | _ -> [])
          | _ -> (
              let c = parse_condition st in
              match peek st with
              | Lexer.Tkeyword "AND" ->
                  advance st;
                  c :: conjuncts ()
              | _ -> [ c ])
        in
        conjuncts ()
    | _ -> []
  in
  let group_by =
    match peek st with
    | Lexer.Tkeyword "GROUP" ->
        advance st;
        eat_keyword st "BY";
        comma_separated st parse_expr
    | _ -> []
  in
  let order_by =
    match peek st with
    | Lexer.Tkeyword "ORDER" ->
        advance st;
        eat_keyword st "BY";
        let e = parse_expr st in
        let dir =
          match peek st with
          | Lexer.Tkeyword "DESC" ->
              advance st;
              Ast.Desc
          | Lexer.Tkeyword "ASC" ->
              advance st;
              Ast.Asc
          | _ -> Ast.Desc
        in
        Some (e, dir)
    | _ -> None
  in
  let limit, limit_param =
    match peek st with
    | Lexer.Tkeyword "LIMIT" -> (
        advance st;
        match peek st with
        | Lexer.Tnumber f when Float.is_integer f && f >= 0.0 ->
            advance st;
            (Some (count_literal "LIMIT" f), false)
        | Lexer.Tsymbol "?" ->
            advance st;
            (None, true)
        | _ -> fail "non-negative integer or ?" st)
    | _ -> (None, false)
  in
  (match peek st with
  | Lexer.Teof -> ()
  | _ -> fail "end of query" st);
  {
    Ast.select;
    from;
    where;
    rank_between = !rank_between;
    rank_dense = !rank_dense;
    group_by;
    order_by;
    limit;
    limit_param;
  }

let parse_query st =
  match peek st with
  | Lexer.Tkeyword "WITH" -> parse_with_query st
  | _ -> parse_plain_query st

let parse_insert st =
  eat_keyword st "INSERT";
  eat_keyword st "INTO";
  let table = ident st in
  eat_keyword st "VALUES";
  let parse_row st =
    eat_symbol st "(";
    let values = comma_separated st parse_expr in
    eat_symbol st ")";
    values
  in
  let rows = comma_separated st parse_row in
  (match peek st with
  | Lexer.Teof -> ()
  | _ -> fail "end of statement" st);
  Ast.Insert { table; values = rows }

let parse_delete st =
  eat_keyword st "DELETE";
  eat_keyword st "FROM";
  let table = ident st in
  let where =
    match peek st with
    | Lexer.Tkeyword "WHERE" ->
        advance st;
        let rec conjuncts () =
          let c = parse_condition st in
          match peek st with
          | Lexer.Tkeyword "AND" ->
              advance st;
              c :: conjuncts ()
          | _ -> [ c ]
        in
        conjuncts ()
    | _ -> []
  in
  (match peek st with
  | Lexer.Teof -> ()
  | _ -> fail "end of statement" st);
  Ast.Delete { table; where }

let parse_where_opt st =
  match peek st with
  | Lexer.Tkeyword "WHERE" ->
      advance st;
      let rec conjuncts () =
        let c = parse_condition st in
        match peek st with
        | Lexer.Tkeyword "AND" ->
            advance st;
            c :: conjuncts ()
        | _ -> [ c ]
      in
      conjuncts ()
  | _ -> []

let parse_update st =
  eat_keyword st "UPDATE";
  let table = ident st in
  eat_keyword st "SET";
  let parse_assignment st =
    let column = ident st in
    eat_symbol st "=";
    let e = parse_expr st in
    (column, e)
  in
  let assignments = comma_separated st parse_assignment in
  let where = parse_where_opt st in
  (match peek st with
  | Lexer.Teof -> ()
  | _ -> fail "end of statement" st);
  Ast.Update { table; assignments; where }

let parse_statement_tokens st =
  match peek st with
  | Lexer.Tkeyword "INSERT" -> parse_insert st
  | Lexer.Tkeyword "DELETE" -> parse_delete st
  | Lexer.Tkeyword "UPDATE" -> parse_update st
  | _ -> Ast.Select (parse_query st)

let parse input =
  let st = { tokens = Lexer.tokenize input } in
  parse_query st

let parse_statement input =
  let st = { tokens = Lexer.tokenize input } in
  parse_statement_tokens st

let parse_statement_result input =
  match parse_statement input with
  | s -> Ok s
  | exception Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error msg -> Error ("lex error: " ^ msg)

let parse_result input =
  match parse input with
  | q -> Ok q
  | exception Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error msg -> Error ("lex error: " ^ msg)
