(* Clock, sample buffers, percentiles and the JSON result line. *)

(* Monotonic nanoseconds. Wall-clock time can step; this cannot. *)
let now_ns () = Monotonic_clock.now ()

let ns_between a b = Int64.to_float (Int64.sub b a)

let seconds_since t0 = ns_between t0 (now_ns ()) /. 1e9

(* CPU seconds of the whole process, every domain and thread. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A growable float buffer: one sample per statement or per call. *)
module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let push b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0.0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len

  (* Append to the buffer under [key], creating it on first use. *)
  let push_to tbl key x =
    let b =
      match Hashtbl.find_opt tbl key with
      | Some b -> b
      | None ->
          let b = create () in
          Hashtbl.add tbl key b;
          b
    in
    push b x

  let groups tbl = Hashtbl.fold (fun _ b acc -> to_array b :: acc) tbl []
end

(* The p-th percentile (0 < p < 1) of the samples, linear between the two
   nearest ranks; 0 for no samples. *)
let percentile samples p =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median samples = percentile samples 0.5

let mean_of = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The mean over groups of samples (statement shapes) of each group's
   median. *)
let mean_of_medians groups = mean_of (List.map median groups)

(* Samples strictly above the p-th percentile: a tail is only reported
   where a run leaves at least ten of them. *)
let beyond samples p =
  let cut = percentile samples p in
  Array.fold_left (fun n x -> if x > cut then n + 1 else n) 0 samples

(* JSON has no NaN or infinity; a metric with no samples reads 0. *)
let json_number x = if Float.is_finite x then Printf.sprintf "%.12g" x else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The last line of standard output: the JSON result. *)
let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number value) (json_string unit))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)
