(** The MEMO structure of bottom-up dynamic-programming enumeration.

    One entry per subset of the query's relations (keyed by bitmask); each
    entry holds the non-pruned subplans, at most one per property class.
    Pruning implements Section 3.3:

    - a subplan is pruned by a cheaper subplan with the same or stronger
      properties (order, pipelining);
    - comparisons between a k-dependent rank-join plan and a k-independent
      (blocking sort) plan use the crossover k{^*}: the sort plan is pruned
      when the rank plan wins over the whole feasible range (k* > n{_a});
      the rank plan is pruned when the sort plan already wins at
      [k = k_min] and the rank plan has no pipelining advantage; otherwise
      both are retained. *)

type subplan = {
  plan : Plan.t;
  est : Cost_model.estimate;
  order : Plan.order option;
  order_key : Interesting_orders.key option;
      (** [order] in comparable form ({!Plan.order_key}), computed once so
          dominance tests and order requests never re-normalise it. *)
  pipelined : bool;
  dop : int;  (** Degree-of-parallelism property bit: [Plan.dop plan]. *)
  vectorized : bool;
      (** Vectorized-execution property bit: {!Vectorize.vectorized}
          — whether the executor runs any of the plan batch-at-a-time.
          Stored (like [dop]) so EXPLAIN, the plan cache and planlint's
          PL15 see the property the plan was planned with. *)
  decision_cost : float;
      (** [est.cost_at k_min]: the cost same-kind comparisons use. *)
}

val subplan_of : Cost_model.env -> Plan.t -> subplan
(** Compute a plan's estimate and properties from scratch. *)

val extend :
  Cost_model.planning ->
  ?order_key:Interesting_orders.key ->
  Plan.t ->
  subplan list ->
  subplan
(** [extend p plan inputs]: the subplan of [plan], whose direct inputs
    ({!Plan.children}) are the plans of [inputs]. The estimate is built
    from the inputs' stored estimates and a pass-through order reuses the
    first input's key, so costing a new plan does not revisit its subtree.
    [order_key], when given, must be the key of the order the node itself
    produces (callers pass a key they computed once for many plans). The
    result equals [subplan_of] of the plan field for field. *)

type t

val create : unit -> t

val add : t -> first_rows:bool -> key:int -> subplan -> bool
(** Insert with pruning; [false] when the plan was pruned on arrival. With
    [first_rows:false], pipelining is not a protected property (plain System
    R behaviour). Every call counts toward {!generated}. *)

val plans : t -> int -> subplan list
(** Retained plans of an entry (empty list for an absent entry). *)

val entry_keys : t -> int list

val retained : t -> int
(** Total retained plans across all entries — the quantity Figures 2 and 3
    compare. *)

val generated : t -> int
(** Total plans ever offered to {!add}. *)

val best : t -> ?order:Plan.order -> int -> subplan option
(** Cheapest retained plan of an entry, optionally restricted to plans
    producing the given order. *)

val pp_entry : Format.formatter -> subplan list -> unit
