(* See metrics.mli.  Design constraints that shape the implementation:

   - Deterministic export: the control-plane benchmark asserts that two
     identical runs produce byte-identical snapshots, so every number
     here must derive from the simulated timeline (values recorded,
     simulated timestamps), never from wall clocks, and [to_json] must
     emit metrics and labels in a canonical (sorted) order with exact
     float round-trip ([Trace.float_lit]).

   - Cheap hot path: [inc]/[observe] on the service event loop are a
     hashtable probe plus an array write; percentile sorting happens
     only at snapshot time. *)

type hist = {
  mutable samples : float array;
  mutable len : int;
  mutable sum : float;
}

type metric =
  | Counter of { mutable count : int }
  | Gauge of { mutable last : float; mutable max : float; mutable set : bool }
  | Histogram of hist

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let mismatch name m want =
  raise
    (Invalid_argument
       (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name m) want))

let inc t ?(by = 1) name =
  match Hashtbl.find_opt t.table name with
  | None -> Hashtbl.replace t.table name (Counter { count = by })
  | Some (Counter c) -> c.count <- c.count + by
  | Some m -> mismatch name m "counter"

let set t name v =
  match Hashtbl.find_opt t.table name with
  | None -> Hashtbl.replace t.table name (Gauge { last = v; max = v; set = true })
  | Some (Gauge g) ->
      g.last <- v;
      if (not g.set) || v > g.max then g.max <- v;
      g.set <- true
  | Some m -> mismatch name m "gauge"

let observe t name v =
  match Hashtbl.find_opt t.table name with
  | None ->
      let h = { samples = Array.make 16 0.; len = 1; sum = v } in
      h.samples.(0) <- v;
      Hashtbl.replace t.table name (Histogram h)
  | Some (Histogram h) ->
      if h.len = Array.length h.samples then begin
        let bigger = Array.make (2 * h.len) 0. in
        Array.blit h.samples 0 bigger 0 h.len;
        h.samples <- bigger
      end;
      h.samples.(h.len) <- v;
      h.len <- h.len + 1;
      h.sum <- h.sum +. v
  | Some m -> mismatch name m "histogram"

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c.count
  | None -> 0
  | Some m -> mismatch name m "counter"

let gauge t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge g) when g.set -> Some g.last
  | Some (Gauge _) | None -> None
  | Some m -> mismatch name m "gauge"

let sorted_samples h =
  let a = Array.sub h.samples 0 h.len in
  Array.sort compare a;
  a

(* Nearest-rank percentile over the recorded samples (no
   interpolation): p99 of 200 samples is the 198th order statistic. *)
let rank p n = min (n - 1) (max 0 (int_of_float (ceil (p /. 100. *. float n)) - 1))

let percentile t name p =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) when h.len > 0 ->
      let a = sorted_samples h in
      Some a.(rank p h.len)
  | Some (Histogram _) | None -> None
  | Some m -> mismatch name m "histogram"

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Label scopes                                                        *)
(* ------------------------------------------------------------------ *)

(* A scope is a recording handle that writes each signal twice: once
   under the bare name (the fleet-wide series) and once under
   "name.<label>" (the per-shard breakdown).  An unlabeled scope writes
   the bare name only. *)
type scope = { st : t; label : string option }

let scoped t label = { st = t; label }

let labelled s name =
  match s.label with None -> None | Some l -> Some (name ^ "." ^ l)

let scope_inc s ?(by = 1) name =
  inc s.st ~by name;
  match labelled s name with None -> () | Some n -> inc s.st ~by n

let scope_set s name v =
  set s.st name v;
  match labelled s name with None -> () | Some n -> set s.st n v

let scope_observe s name v =
  observe s.st name v;
  match labelled s name with None -> () | Some n -> observe s.st n v

let scope_metrics s = s.st

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)
(* ------------------------------------------------------------------ *)

let kv k v = Printf.sprintf "\"%s\":%s" (Trace.json_escape k) v

let metric_to_json = function
  | Counter c -> Printf.sprintf "{\"type\":\"counter\",\"count\":%d}" c.count
  | Gauge g ->
      if g.set then
        Printf.sprintf "{\"type\":\"gauge\",\"last\":%s,\"max\":%s}"
          (Trace.float_lit g.last) (Trace.float_lit g.max)
      else "{\"type\":\"gauge\"}"
  | Histogram h ->
      if h.len = 0 then "{\"type\":\"histogram\",\"count\":0}"
      else begin
        let a = sorted_samples h in
        let pct p = Trace.float_lit a.(rank p h.len) in
        Printf.sprintf
          "{\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}"
          h.len
          (Trace.float_lit h.sum)
          (Trace.float_lit a.(0))
          (Trace.float_lit a.(h.len - 1))
          (pct 50.) (pct 90.) (pct 99.)
      end

let to_json t =
  let fields =
    List.map (fun n -> kv n (metric_to_json (Hashtbl.find t.table n))) (names t)
  in
  "{\n  " ^ String.concat ",\n  " fields ^ "\n}\n"

let write_json t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))
