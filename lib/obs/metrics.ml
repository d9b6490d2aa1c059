(* See metrics.mli.  Design constraints that shape the implementation:

   - Deterministic export: the control-plane benchmark asserts that two
     identical runs produce byte-identical snapshots, so every number
     here must derive from the simulated timeline (values recorded,
     simulated timestamps), never from wall clocks, and [to_json] must
     emit metrics and labels in a canonical (sorted) order with exact
     float round-trip ([Trace.float_lit]).

   - Cheap hot path: a write through a handle on the service event
     loop is an array or field write, and a by-name write adds one
     hashtable probe; percentile sorting happens only at snapshot
     time. *)

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

(* First writes create a metric holding the written value; later ones
   update it.  The by-name writers and the handles share both halves,
   so a metric reads the same whichever wrote it. *)
let fresh_counter by = Counter { count = by }

let bump name m by =
  match m with Counter c -> c.count <- c.count + by | m -> mismatch name m "counter"

let fresh_gauge v = Gauge { last = v; max = v; set = true }

let put name m v =
  match m with
  | Gauge g ->
      g.last <- v;
      if (not g.set) || v > g.max then g.max <- v;
      g.set <- true
  | m -> mismatch name m "gauge"

let fresh_histogram v =
  let h = { samples = Array.make 16 0.; len = 1; sum = v } in
  h.samples.(0) <- v;
  Histogram h

let sample name m v =
  match m with
  | Histogram h ->
      if h.len = Array.length h.samples then begin
        let bigger = Array.make (2 * h.len) 0. in
        Array.blit h.samples 0 bigger 0 h.len;
        h.samples <- bigger
      end;
      h.samples.(h.len) <- v;
      h.len <- h.len + 1;
      h.sum <- h.sum +. v
  | m -> mismatch name m "histogram"

let inc t ?(by = 1) name =
  match Hashtbl.find_opt t.table name with
  | None -> Hashtbl.replace t.table name (fresh_counter by)
  | Some m -> bump name m by

let set t name v =
  match Hashtbl.find_opt t.table name with
  | None -> Hashtbl.replace t.table name (fresh_gauge v)
  | Some m -> put name m v

let observe t name v =
  match Hashtbl.find_opt t.table name with
  | None -> Hashtbl.replace t.table name (fresh_histogram v)
  | Some m -> sample name m v

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

(* A scope labels the handles made through it: each writes its signal
   twice, once under the bare name (the fleet-wide series) and once
   under "name.<label>" (the per-shard breakdown).  An unlabeled
   scope's handles write the bare name only. *)
type scope = { st : t; label : string option }

let scoped t label = { st = t; label }

let scope_metrics s = s.st

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

(* A handle names its metric once.  Its first write finds the metric
   in the registry, or creates it as a by-name write would, and keeps
   it; later writes go to the kept metric.  A scoped handle carries
   its labelled twin. *)
type handle = {
  reg : t;
  hname : string;
  mutable metric : metric option;
  twin : handle option;
}

let handle t ?label name =
  let hname = match label with None -> name | Some l -> name ^ "." ^ l in
  { reg = t; hname; metric = None; twin = None }

let scope_handle s name =
  { (handle s.st name) with twin = Option.map (fun label -> handle s.st ~label name) s.label }

(* The handle's metric, when the registry has one by its name. *)
let bound h =
  match h.metric with
  | Some _ as m -> m
  | None ->
      let m = Hashtbl.find_opt h.reg.table h.hname in
      h.metric <- m;
      m

let bind h m =
  Hashtbl.replace h.reg.table h.hname m;
  h.metric <- Some m

module Handle = struct
  let rec inc h by =
    (match bound h with Some m -> bump h.hname m by | None -> bind h (fresh_counter by));
    match h.twin with Some tw -> inc tw by | None -> ()

  let rec set h v =
    (match bound h with Some m -> put h.hname m v | None -> bind h (fresh_gauge v));
    match h.twin with Some tw -> set tw v | None -> ()

  let rec observe h v =
    (match bound h with
    | Some m -> sample h.hname m v
    | None -> bind h (fresh_histogram v));
    match h.twin with Some tw -> observe tw v | None -> ()
end

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
