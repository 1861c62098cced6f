(* The untraced run: one in-process session against a Server.Service,
   closed loop. Each statement is timed from the session call through
   Server.Protocol.render_reply and render of its reply. *)

open Workloads

type session = {
  w : Workloads.t;
  cat : Storage.Catalog.t;
  svc : Server.Service.t;
  sess : Server.Service.session;
}

let send sess (s : stmt) =
  match s.op with
  | Execute { name; k } -> Server.Service.execute_prepared sess ~k name
  | Fetch { name; n } -> Server.Service.fetch sess ~name n
  | Query sql -> Server.Service.query sess sql

(* The reply as the line protocol would put it on the wire. *)
let encode = function
  | Ok reply -> Server.Protocol.render (Server.Protocol.render_reply reply)
  | Error e ->
      Server.Protocol.render
        (Server.Protocol.err_response
           ~code:(Server.Service.error_code e)
           (Server.Service.error_message e))

let reply_bytes lines =
  List.fold_left (fun n l -> n + String.length l + 1) 0 lines

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the log *)
  elapsed_s : float;  (** wall time, in-line re-checks excluded *)
  cpu_s : float;  (** process CPU time, all domains, same interval *)
  by_class : (string, Util.Fbuf.t) Hashtbl.t;  (** ms per statement *)
  by_shape : (string, Util.Fbuf.t) Hashtbl.t;  (** key "class/shape" *)
  digests : int array;  (** one per statement, in order *)
  samples : (int * float list) list;
      (** (stream index, scores) of every [sample_every]-th statement *)
  cursor_pos : int array;
      (** rows the statement's cursor had returned before it (FETCH only) *)
}

let sample_every = 25

let error_text = function
  | Ok _ -> ""
  | Error e -> Server.Service.error_code e ^ " " ^ Server.Service.error_message e

(* Run [stmts] in order; stop after [limit] statements or once [seconds]
   have passed, whichever comes first. With [inline], the reads Check.inline
   selects are re-run through a fresh one-shot query right after their
   reply, outside the statement's timing. *)
let run ?(seconds = infinity) ?(limit = max_int) ?(inline = false) t
    (stmts : stmt array) =
  let cursors = Check.create () in
  let by_class = Hashtbl.create 8 and by_shape = Hashtbl.create 16 in
  let n = min limit (Array.length stmts) in
  let digests = Array.make n 0 and cursor_pos = Array.make n 0 in
  let failed = ref 0 and failures = ref [] and samples = ref [] in
  let fail i (s : stmt) m =
    incr failed;
    if List.length !failures < 5 then
      failures := Printf.sprintf "statement %d (%s/%s): %s" i s.cls s.shape m
                  :: !failures
  in
  let rechecking = ref 0.0 in
  let cpu0 = Util.cpu_s () and t_start = Util.now_ns () in
  let i = ref 0 in
  while !i < n && Util.seconds_since t_start -. !rechecking < seconds do
    let s = stmts.(!i) in
    (match s.op with
    | Fetch { name; _ } -> cursor_pos.(!i) <- Check.position cursors name
    | Execute _ | Query _ -> ());
    let t0 = Util.now_ns () in
    let r = send t.sess s in
    let lines = encode r in
    let t1 = Util.now_ns () in
    ignore (Sys.opaque_identity (reply_bytes lines));
    let ms = Util.ns_between t0 t1 /. 1e6 in
    Util.Fbuf.push_to by_class s.cls ms;
    Util.Fbuf.push_to by_shape (s.cls ^ "/" ^ s.shape) ms;
    (match r with
    | Error _ -> fail !i s (error_text r)
    | Ok reply -> (
        digests.(!i) <- Check.digest reply;
        if !i mod sample_every = 0 then
          samples := (!i, reply.Server.Service.scores) :: !samples;
        (match Check.reply cursors s reply with
        | Ok () -> ()
        | Error m -> fail !i s m);
        if inline then
          let r0 = Util.now_ns () in
          (match Check.inline t.cat !i s reply with
          | Ok () -> ()
          | Error m -> fail !i s m);
          rechecking := !rechecking +. Util.seconds_since r0));
    incr i
  done;
  {
    attempted = !i;
    failed = !failed;
    failures = List.rev !failures;
    elapsed_s = Util.seconds_since t_start -. !rechecking;
    cpu_s = Util.cpu_s () -. cpu0;
    by_class;
    by_shape;
    digests = Array.sub digests 0 !i;
    samples = List.rev !samples;
    cursor_pos = Array.sub cursor_pos 0 !i;
  }

(* Service start, PREPARE and warm-up on freshly loaded tables. Warm-up
   failures count like any other failed statement. *)
let start (w : Workloads.t) cat =
  let svc = Server.Service.create ~config:w.config cat in
  let sess = Server.Service.open_session svc in
  List.iter
    (fun (name, sql) ->
      match Server.Service.prepare sess ~name sql with
      | Ok _ -> ()
      | Error e -> failwith ("PREPARE " ^ name ^ ": " ^ Server.Service.error_message e))
    w.templates;
  let t = { w; cat; svc; sess } in
  let warm = run t w.warmup in
  (t, warm)

let stop t =
  Server.Service.close_session t.sess;
  Server.Service.shutdown t.svc

(* The SQL a fresh one-shot query needs to reproduce statement [i]'s
   answer, and how many leading scores of that answer to skip. *)
let oneshot (w : Workloads.t) (o : outcome) i =
  let with_k name k =
    let sql = List.assoc name w.templates in
    String.concat (string_of_int k) (String.split_on_char '?' sql)
  in
  match w.stream.(i).op with
  | Execute { name; k } -> (with_k name k, 0)
  | Fetch { name; n } -> (with_k name (o.cursor_pos.(i) + n), o.cursor_pos.(i))
  | Query sql -> (sql, 0)

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

(* Re-run up to [max_checks] sampled statements of a read-only workload
   through a fresh Sqlfront.Sql.query (no service, no plan cache) and
   require identical score lists. Returns the mismatches. *)
let recheck ?(max_checks = 200) t (o : outcome) =
  let samples = Array.of_list o.samples in
  let stride = max 1 (Array.length samples / max_checks) in
  let bad = ref [] in
  Array.iteri
    (fun j (i, scores) ->
      if j mod stride = 0 then
        let sql, skip = oneshot t.w o i in
        match Sqlfront.Sql.query t.cat sql with
        | Error e -> bad := Printf.sprintf "statement %d: %s" i e :: !bad
        | Ok ans ->
            if drop skip ans.Sqlfront.Sql.scores <> scores then
              bad := Printf.sprintf "statement %d: scores differ from %s" i sql :: !bad)
    samples;
  List.rev !bad
