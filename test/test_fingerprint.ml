(* Planner fingerprint: the optimizer's decisions over a fixed corpus (see
   Planner_corpus) must stay bit-identical to the recorded fixture, and
   every MEMO subplan — costed incrementally from its inputs' stored
   estimates — must carry exactly what a from-scratch estimate gives.

   When a change deliberately alters plans or estimates, the suite writes
   the new fingerprint to _build/default/test/planner_fingerprint.actual;
   review the differences and copy it over planner_fingerprint.expected. *)

open Core

let items = lazy (Planner_corpus.items ~examples_dir:"../examples/queries")

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_fingerprint () =
  let expected = read_lines "planner_fingerprint.expected" in
  let actual = List.map Planner_corpus.fingerprint (Lazy.force items) in
  if actual <> expected then begin
    Out_channel.with_open_text "planner_fingerprint.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else Some (e, a)
      | e :: _, [] -> Some (e, "<missing>")
      | [], a :: _ -> Some ("<missing>", a)
      | [], [] -> None
    in
    match first_diff (expected, actual) with
    | Some (e, a) ->
        Alcotest.failf "fingerprint differs (%d vs %d lines):\nexpected %s\nactual   %s"
          (List.length expected) (List.length actual) e a
    | None -> ()
  end

let bits = Int64.bits_of_float

(* Every stored subplan field against its from-scratch recomputation. *)
let check_subplan env label (sp : Memo.subplan) =
  let fresh = Memo.subplan_of env sp.Memo.plan in
  let where what =
    Printf.sprintf "%s: %s of %s" label what (Plan.describe sp.Memo.plan)
  in
  let same_float what a b =
    if bits a <> bits b then Alcotest.failf "%s: %h vs %h" (where what) a b
  in
  let est = sp.Memo.est and fe = fresh.Memo.est in
  same_float "total_cost" est.Cost_model.total_cost fe.Cost_model.total_cost;
  same_float "rows" est.Cost_model.rows fe.Cost_model.rows;
  List.iter
    (fun k ->
      same_float
        (Printf.sprintf "cost_at %g" k)
        (est.Cost_model.cost_at k) (fe.Cost_model.cost_at k))
    [ 1.0; float_of_int env.Cost_model.k_min; 10.0; est.Cost_model.rows ];
  same_float "decision cost" sp.Memo.decision_cost fresh.Memo.decision_cost;
  if est.Cost_model.k_dependent <> fe.Cost_model.k_dependent then
    Alcotest.fail (where "k_dependent");
  let keys_agree =
    Interesting_orders.key_satisfies ~have:sp.Memo.order_key
      ~want:fresh.Memo.order_key
    && Interesting_orders.key_satisfies ~have:fresh.Memo.order_key
         ~want:sp.Memo.order_key
  in
  if not keys_agree then Alcotest.fail (where "order key");
  if
    sp.Memo.pipelined <> fresh.Memo.pipelined
    || sp.Memo.dop <> fresh.Memo.dop
    || sp.Memo.vectorized <> fresh.Memo.vectorized
  then Alcotest.fail (where "property bits")

let test_incremental_estimates () =
  let checked = ref 0 in
  List.iter
    (fun (item : Planner_corpus.item) ->
      match item.Planner_corpus.query with
      | Ok query when query.Logical.rank_range = None ->
          let env = Planner_corpus.env_of item query in
          let result = Enumerator.run ~config:item.Planner_corpus.config env in
          let memo = result.Enumerator.memo in
          List.iter
            (fun key ->
              List.iter
                (fun sp ->
                  incr checked;
                  check_subplan env item.Planner_corpus.label sp)
                (Memo.plans memo key))
            (Memo.entry_keys memo);
          Option.iter (check_subplan env item.Planner_corpus.label)
            result.Enumerator.best
      | _ -> ())
    (Lazy.force items);
  Alcotest.(check bool) "subplans checked" true (!checked > 10_000)

let suites =
  [
    ( "core.fingerprint",
      [
        Alcotest.test_case "chosen plans, estimates, k-intervals match fixture"
          `Quick test_fingerprint;
        Alcotest.test_case "memo subplans equal from-scratch estimates" `Quick
          test_incremental_estimates;
      ] );
  ]
