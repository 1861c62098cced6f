type column_ref = { relation : string option; name : string }

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Col of column_ref
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t

let col ?relation name = Col { relation; name }

let cfloat f = Const (Value.Float f)

let cint i = Const (Value.Int i)

let ( + ) a b = Add (a, b)

let ( - ) a b = Sub (a, b)

let ( * ) a b = Mul (a, b)

let ( = ) a b = Cmp (Eq, a, b)

let weighted_sum terms =
  let term (w, e) = if Stdlib.( = ) w 1.0 then e else Mul (cfloat w, e) in
  match terms with
  | [] -> cfloat 0.0
  | first :: rest ->
      List.fold_left (fun acc t -> Add (acc, term t)) (term first) rest

let ref_name r = match r.relation with None -> r.name | Some q -> q ^ "." ^ r.name

let numeric2 op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
      match op with
      | `Add -> Value.Int (Stdlib.( + ) x y)
      | `Sub -> Value.Int (Stdlib.( - ) x y)
      | `Mul -> Value.Int (Stdlib.( * ) x y)
      | `Div -> Value.Float (float_of_int x /. float_of_int y))
  | _ ->
      let x = Value.to_float a and y = Value.to_float b in
      let r =
        match op with
        | `Add -> x +. y
        | `Sub -> x -. y
        | `Mul -> x *. y
        | `Div -> x /. y
      in
      Value.Float r

let apply_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    let c = Value.compare a b in
    let r =
      match op with
      | Eq -> Stdlib.( = ) c 0
      | Ne -> Stdlib.( <> ) c 0
      | Lt -> Stdlib.( < ) c 0
      | Le -> Stdlib.( <= ) c 0
      | Gt -> Stdlib.( > ) c 0
      | Ge -> Stdlib.( >= ) c 0
    in
    Value.Bool r

let truthy = function Value.Bool b -> b | Value.Null -> false | _ -> false

(* Three-valued logic is collapsed: Null behaves as false in And/Or/Not,
   which matches how the engine uses predicates (WHERE semantics). *)
let rec compile schema expr : Tuple.t -> Value.t =
  match expr with
  | Const v -> fun _ -> v
  | Col r ->
      let idx =
        match Schema.index_of schema ?relation:r.relation r.name with
        | Some i -> i
        | None -> invalid_arg ("Expr: unbound column " ^ ref_name r)
      in
      fun t -> t.(idx)
  | Neg e ->
      let f = compile schema e in
      fun t -> (
        match f t with
        | Value.Null -> Value.Null
        | Value.Int x -> Value.Int (Stdlib.( - ) 0 x)
        | v -> Value.Float (-.Value.to_float v))
  | Add (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Add (fa t) (fb t)
  | Sub (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Sub (fa t) (fb t)
  | Mul (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Mul (fa t) (fb t)
  | Div (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> numeric2 `Div (fa t) (fb t)
  | Cmp (op, a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> apply_cmp op (fa t) (fb t)
  | And (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> Value.Bool (truthy (fa t) && truthy (fb t))
  | Or (a, b) ->
      let fa = compile schema a and fb = compile schema b in
      fun t -> Value.Bool (truthy (fa t) || truthy (fb t))
  | Not e ->
      let f = compile schema e in
      fun t -> Value.Bool (not (truthy (f t)))

let eval schema expr tuple = compile schema expr tuple

let eval_bool schema expr tuple = truthy (eval schema expr tuple)

let eval_float schema expr tuple = Value.to_float (eval schema expr tuple)

let compile_float schema expr =
  let f = compile schema expr in
  fun t -> Value.to_float (f t)

let compile_bool schema expr =
  let f = compile schema expr in
  fun t -> truthy (f t)

let column_refs expr =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Col r ->
        let key = ref_name r in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          acc := r :: !acc
        end
    | Neg e | Not e -> go e
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b)
    | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        go a;
        go b
  in
  go expr;
  List.rev !acc

let relations expr =
  let refs = column_refs expr in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun r ->
      match r.relation with
      | None -> None
      | Some q ->
          if Hashtbl.mem seen q then None
          else begin
            Hashtbl.add seen q ();
            Some q
          end)
    refs

let bound_by schema expr =
  List.for_all
    (fun r ->
      match Schema.index_of schema ?relation:r.relation r.name with
      | Some _ -> true
      | None -> false
      | exception Invalid_argument _ -> false)
    (column_refs expr)

type linear = {
  terms : (float * column_ref) list;
  intercept : float;
}

let const_value = function
  | Const v when not (Value.is_null v) -> (
      match v with
      | Value.Int x -> Some (float_of_int x)
      | Value.Float x -> Some x
      | _ -> None)
  | _ -> None

(* The terms of a linear form as a concatenation tree: a long left-deep
   sum appends each term in O(1) instead of copying the list so far. *)
type terms = Nil | One of float * column_ref | Cat of terms * terms

let rec scale_terms f = function
  | Nil -> Nil
  | One (w, r) -> One (f w, r)
  | Cat (a, b) -> Cat (scale_terms f a, scale_terms f b)

let terms_to_list t =
  let rec go acc = function
    | Nil -> acc
    | One (w, r) -> (w, r) :: acc
    | Cat (a, b) -> go (go acc b) a
  in
  go [] t

(* Recognise linear combinations: c, x, e1+e2, e1-e2, -e, c*e, e*c, e/c. *)
let rec linearize = function
  | Const _ as e -> Option.map (fun c -> (Nil, c)) (const_value e)
  | Col r -> Some (One (1.0, r), 0.0)
  | Neg e ->
      Option.map (fun (ts, c) -> (scale_terms (fun w -> -.w) ts, -.c)) (linearize e)
  | Add (a, b) ->
      Option.bind (linearize a) (fun (ta, ca) ->
          Option.map (fun (tb, cb) -> (Cat (ta, tb), ca +. cb)) (linearize b))
  | Sub (a, b) ->
      Option.bind (linearize a) (fun (ta, ca) ->
          Option.map
            (fun (tb, cb) -> (Cat (ta, scale_terms (fun w -> -.w) tb), ca -. cb))
            (linearize b))
  | Mul (a, b) -> (
      match const_value a, const_value b with
      | Some c, _ ->
          Option.map
            (fun (ts, c0) -> (scale_terms (fun w -> c *. w) ts, c *. c0))
            (linearize b)
      | _, Some c ->
          Option.map
            (fun (ts, c0) -> (scale_terms (fun w -> c *. w) ts, c *. c0))
            (linearize a)
      | None, None -> None)
  | Div (a, b) -> (
      match const_value b with
      | Some c when Stdlib.( <> ) c 0.0 ->
          Option.map
            (fun (ts, c0) -> (scale_terms (fun w -> w /. c) ts, c0 /. c))
            (linearize a)
      | _ -> None)
  | Cmp _ | And _ | Or _ | Not _ -> None

(* Canonical linear form: terms merged by qualified column name (weights
   summed in occurrence order, the last occurrence's reference kept), zero
   terms dropped, sorted by name. Each term's name is computed once; a
   stable sort groups equal names in occurrence order. *)
type term = { tname : string; tw : float; tref : column_ref }

let canonical expr =
  match linearize expr with
  | None -> None
  | Some (terms, intercept) ->
      let named =
        List.stable_sort
          (fun a b -> String.compare a.tname b.tname)
          (List.map
             (fun (w, r) -> { tname = ref_name r; tw = w; tref = r })
             (terms_to_list terms))
      in
      let rec merge acc = function
        | a :: b :: rest when String.equal a.tname b.tname ->
            merge acc ({ b with tw = a.tw +. b.tw } :: rest)
        | a :: rest -> merge (if Stdlib.( = ) a.tw 0.0 then acc else a :: acc) rest
        | [] -> List.rev acc
      in
      Some (merge [] named, intercept)

let as_linear expr =
  Option.map
    (fun (ts, intercept) ->
      { terms = List.map (fun t -> (t.tw, t.tref)) ts; intercept })
    (canonical expr)

let of_linear { terms; intercept } =
  let base =
    match terms with
    | [] -> cfloat intercept
    | _ -> weighted_sum (List.map (fun (w, r) -> (w, Col r)) terms)
  in
  if Stdlib.( = ) intercept 0.0 || Stdlib.( = ) terms [] then base
  else Add (base, cfloat intercept)

(* The part of a linear form that decides the order it induces: sorted
   term names and their weights (the intercept shifts, never reorders). *)
type ordering = { names : string array; weights : float array }

let same_ordering a b =
  let n = Array.length a.weights in
  if Stdlib.( = ) n 0 || Stdlib.( = ) (Array.length b.weights) 0 then
    Stdlib.( = ) n 0 && Stdlib.( = ) (Array.length b.weights) 0
  else
    let scale = b.weights.(0) /. a.weights.(0) in
    let rec terms_match i =
      Stdlib.( = ) i n
      || String.equal a.names.(i) b.names.(i)
         && Stdlib.( < )
              (Float.abs ((a.weights.(i) *. scale) -. b.weights.(i)))
              (1e-9 *. Float.abs b.weights.(i) +. 1e-12)
         && terms_match (Stdlib.( + ) i 1)
    in
    Stdlib.( > ) scale 0.0
    && Stdlib.( = ) n (Array.length b.weights)
    && terms_match 0

let rec structural_equal a b =
  match a, b with
  | Const u, Const v -> Value.equal u v
  | Col r, Col s -> String.equal (ref_name r) (ref_name s)
  | Neg x, Neg y | Not x, Not y -> structural_equal x y
  | Add (x1, y1), Add (x2, y2)
  | Sub (x1, y1), Sub (x2, y2)
  | Mul (x1, y1), Mul (x2, y2)
  | Div (x1, y1), Div (x2, y2)
  | And (x1, y1), And (x2, y2)
  | Or (x1, y1), Or (x2, y2) ->
      structural_equal x1 x2 && structural_equal y1 y2
  | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
      Stdlib.( = ) o1 o2 && structural_equal x1 x2 && structural_equal y1 y2
  | _ -> false

type key = { source : t; ordering : ordering option }

let key e =
  let ordering (ts, _) =
    {
      names = Array.of_list (List.map (fun t -> t.tname) ts);
      weights = Array.of_list (List.map (fun t -> t.tw) ts);
    }
  in
  { source = e; ordering = Option.map ordering (canonical e) }

let key_equal a b =
  match a.ordering, b.ordering with
  | Some oa, Some ob -> same_ordering oa ob
  | _ -> structural_equal a.source b.source

let equal a b = key_equal (key a) (key b)

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp fmt = function
  | Const v -> Value.pp fmt v
  | Col r -> Format.pp_print_string fmt (ref_name r)
  | Neg e -> Format.fprintf fmt "-(%a)" pp e
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b
  | Cmp (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp a (cmp_symbol op) pp b
  | And (a, b) -> Format.fprintf fmt "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a OR %a)" pp a pp b
  | Not e -> Format.fprintf fmt "NOT (%a)" pp e

let to_string e = Format.asprintf "%a" pp e
