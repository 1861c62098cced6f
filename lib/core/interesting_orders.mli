(** Interesting order expressions — Definition 1 and Table 1 of the paper.

    Classic System R collects interesting orders from join columns, GROUP BY
    and ORDER BY. The paper's extension also makes {e score expressions}
    interesting: an order on a relation's score attribute feeds a rank-join
    directly, and an order on a partial weighted sum is what a rank-join
    {e subplan} produces for consumption by rank-joins above it. *)

open Relalg

type direction = Asc | Desc

type reason =
  | Join  (** Equi-join column: enables sort-merge join. *)
  | Rank_join  (** Score attribute or partial combination: feeds a rank-join. *)
  | Join_and_rank_join  (** Both of the above. *)
  | Order_by  (** The query's full ranking expression. *)

type key = { expr_key : Expr.key; key_direction : direction }
(** An order (expression and direction) in the form the optimizer compares:
    the expression's canonical linear form is computed once, when the key
    is made, instead of on every comparison. *)

val key : Expr.t -> direction -> key

val key_equal : key -> key -> bool
(** Same direction and {!Relalg.Expr.equal} expressions. *)

val key_satisfies : have:key option -> want:key option -> bool
(** [true] when a plan producing [have] can serve where [want] is required
    ([want = None] is satisfied by anything). *)

type interesting_order = {
  expr : Expr.t;
  direction : direction;
  reason : reason;
  relations : string list;  (** Relations whose columns appear in [expr]. *)
  key : key;  (** [key expr direction]. *)
}

val derive : ?rank_aware:bool -> Logical.t -> interesting_order list
(** All interesting order expressions of a query. With [rank_aware:false]
    (the traditional optimizer) score attributes and partial combinations are
    {e not} interesting — only join columns and the final ORDER BY, as in
    Figure 2. Default [true], as in Figure 3 / Table 1. *)

val for_subset : interesting_order list -> string list -> interesting_order list
(** Orders still useful when planning the given subset of relations: orders
    whose expressions are fully contained in the subset. An order "retires"
    once no later operation can use it; retirement is handled by the
    enumerator via property comparison, not here. *)

val pp : Format.formatter -> interesting_order -> unit

val reason_name : reason -> string
