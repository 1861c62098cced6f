(* Answer checks, applied to every reply of both the untraced and the
   traced run, and the digest that lets the two runs be compared. *)

open Workloads

let rec ordered cmp = function
  | a :: (b :: _ as rest) -> cmp a b && ordered cmp rest
  | _ -> true

let last = function [] -> None | xs -> Some (List.nth xs (List.length xs - 1))

(* Per open cursor: the rows it has returned and the last score, so a
   FETCH can be checked to continue where the previous reply stopped. *)
type cursor = { returned : int; last_score : float option }

type t = (string, cursor) Hashtbl.t

let create () : t = Hashtbl.create 4

(* Rows the cursor [name] returned before the next statement. *)
let position (cursors : t) name =
  match Hashtbl.find_opt cursors name with Some c -> c.returned | None -> 0

(* Every ranked shape the workloads generate has at least k answers (see
   Workloads), so a short reply is a wrong one. *)
let reply (cursors : t) (s : stmt) (r : Server.Service.reply) =
  let rows = List.length r.Server.Service.rows in
  let scores = r.Server.Service.scores in
  let ranked () = List.length scores = rows in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let exactly what n =
    if rows <> n then fail "%d rows, expected %s = %d" rows what n else Ok ()
  in
  let ( >>= ) = Result.bind in
  let verdict =
    match s.expect with
    | Desc k ->
        exactly "k" k >>= fun () ->
        if ranked () && ordered ( >= ) scores then Ok ()
        else fail "scores not non-increasing"
    | Asc k ->
        exactly "k" k >>= fun () ->
        if ranked () && ordered ( <= ) scores then Ok ()
        else fail "scores not non-decreasing"
    | Window w ->
        exactly "the window width" w >>= fun () ->
        if ranked () && ordered ( >= ) scores then Ok ()
        else fail "window scores not non-increasing"
    | Next n -> (
        let previous =
          match s.op with
          | Fetch { name; _ } -> Hashtbl.find_opt cursors name
          | _ -> None
        in
        match previous with
        | None -> fail "FETCH without an open cursor"
        | Some prev -> (
            exactly "n" n >>= fun () ->
            if not (ranked () && ordered ( >= ) scores) then
              fail "fetched scores not non-increasing"
            else
              match (prev.last_score, scores) with
              | Some p, first :: _ when first > p ->
                  fail "FETCH restarted above the previous page"
              | _ -> Ok ()))
    | Groups -> if rows >= 1 then Ok () else fail "no groups"
    | Affected n -> (
        match r.Server.Service.affected with
        | Some m when m = n -> Ok ()
        | Some m -> fail "%d rows affected, expected %d" m n
        | None -> fail "no affected count")
  in
  (match s.op with
  | Execute { name; _ } ->
      Hashtbl.replace cursors name { returned = rows; last_score = last scores }
  | Fetch { name; _ } ->
      let prev =
        Option.value (Hashtbl.find_opt cursors name)
          ~default:{ returned = 0; last_score = None }
      in
      Hashtbl.replace cursors name
        {
          returned = prev.returned + rows;
          last_score =
            (match last scores with Some l -> Some l | None -> prev.last_score);
        }
  | Query _ -> ());
  verdict

(* A fingerprint of one reply: its row count, affected count and exact
   score bits. Equal digests across the untraced and traced runs mean the
   two executed the same statements to the same answers. *)
let digest (r : Server.Service.reply) =
  List.fold_left
    (fun h s -> Hashtbl.hash (h, Int64.bits_of_float s))
    (Hashtbl.hash
       (List.length r.Server.Service.rows, r.Server.Service.affected))
    r.Server.Service.scores

(* Whether a fresh one-shot answer agrees with a reply. Ranked answers
   must have identical score lists (ties may be listed in another order,
   so rows are not compared). Aggregates, which have no scores, must have
   the same groups with the same counts; their sums may differ in the
   last bits when exchanges add rows in another order. *)
let agrees ~(fresh : Sqlfront.Sql.answer) ~scores ~rows =
  let group (row : Relalg.Tuple.t) =
    ( Array.to_list (Array.map Relalg.Value.to_string (Array.sub row 0 (Array.length row - 1))),
      Relalg.Value.to_float row.(Array.length row - 1) )
  in
  let groups rs = List.sort compare (List.map group rs) in
  let close (ka, a) (kb, b) =
    ka = kb && Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
  in
  if scores <> [] || fresh.Sqlfront.Sql.scores <> [] then
    fresh.Sqlfront.Sql.scores = scores
  else
    let a = groups fresh.Sqlfront.Sql.rows and b = groups rows in
    List.length a = List.length b && List.for_all2 close a b

(* The in-line re-check of a workload that writes, whose answers cannot be
   re-checked after the run: every [inline_every]-th statement, if it is a
   read, is re-run through a fresh Sqlfront.Sql.query on the same catalog
   right after its reply. The untraced and the traced run re-check the
   same statements, so their buffer pools and I/O totals stay equal. *)
let inline_every = 5

let inline cat i (s : stmt) (r : Server.Service.reply) =
  match (s.op, s.expect) with
  | Query sql, (Desc _ | Asc _ | Groups) when i mod inline_every = 0 -> (
      match Sqlfront.Sql.query cat sql with
      | Error e -> Error ("fresh query failed: " ^ e)
      | Ok fresh ->
          if agrees ~fresh ~scores:r.Server.Service.scores ~rows:r.Server.Service.rows
          then Ok ()
          else Error ("answer differs from a fresh one-shot query: " ^ sql))
  | _ -> Ok ()
