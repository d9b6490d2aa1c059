(* The suite's own spans: one around each public call the traced pass
   makes, so per-layer numbers are measured from outside the library.
   Spans the library records on its own tracer during a call (the
   [Trace] spans [expand], [plan], [execute], the fleet's work spans)
   are kept as children of the suite span that was open when they
   ended, with their counters.  Nothing is recorded when the recorder
   is {!off}. *)

module Trace = Cloudless_obs.Trace

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  op : int;  (** trace id: every span of one op shares it *)
  name : string;
  layer : string option;  (** set on the suite's per-layer spans *)
  start : float;  (** wall clock, s *)
  mutable stop : float;
  mutable words : float;  (** minor words allocated inside the span *)
  lib : Trace.span option;  (** the library span this records, if any *)
}

type t = {
  on : bool;
  lib_trace : Trace.t;  (** the tracer to hand to library calls *)
  pending : Trace.span list ref;  (** library spans not yet attributed *)
  mutable spans : span list;  (** finished, most recent first *)
  mutable stack : span list;
  mutable next_id : int;
  mutable op : int;
}

let make on =
  let pending = ref [] in
  let lib_trace =
    if on then Trace.create (fun s -> pending := s :: !pending) else Trace.null
  in
  { on; lib_trace; pending; spans = []; stack = []; next_id = 0; op = 0 }

let off = make false
let create () = make true
let lib_trace t = t.lib_trace

(* Attribute the library spans that ended so far to the innermost open
   suite span. *)
let adopt t =
  match (t.stack, !(t.pending)) with
  | _, [] -> ()
  | [], _ -> t.pending := []
  | parent :: _, lib_spans ->
      List.iter
        (fun (l : Trace.span) ->
          t.spans <-
            {
              id = t.next_id;
              parent = parent.id;
              op = t.op;
              name = l.Trace.name;
              layer = None;
              start = l.Trace.wall_start;
              stop = l.Trace.wall_end;
              words = 0.;
              lib = Some l;
            }
            :: t.spans;
          t.next_id <- t.next_id + 1)
        (List.rev lib_spans);
      t.pending := []

let with_span t ?layer name f =
  if not t.on then f ()
  else begin
    adopt t;
    let s =
      {
        id = t.next_id;
        parent = (match t.stack with p :: _ -> p.id | [] -> -1);
        op = t.op;
        name;
        layer;
        start = Unix.gettimeofday ();
        stop = nan;
        words = Gc.minor_words ();
        lib = None;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        adopt t;
        s.stop <- Unix.gettimeofday ();
        s.words <- Gc.minor_words () -. s.words;
        t.stack <- List.tl t.stack;
        t.spans <- s :: t.spans)
      f
  end

(* A root span that opens a new trace id: one per user-visible op. *)
let with_op t name f =
  if t.on && t.stack = [] then t.op <- t.op + 1;
  with_span t name f

let layer t layer f = with_span t ~layer layer f
let duration (s : span) = s.stop -. s.start

(* Wall time of all roots: the traced ops end to end. *)
let root_wall t =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
    0. t.spans

(* Per layer: (self wall s, self minor words), summed over the layer's
   spans.  Self excludes the per-layer spans nested inside. *)
let layers t =
  let nested = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.layer <> None && s.parent >= 0 then
        let w, a = Option.value (Hashtbl.find_opt nested s.parent) ~default:(0., 0.) in
        Hashtbl.replace nested s.parent (w +. duration s, a +. s.words))
    t.spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.layer with
      | Some l ->
          let nw, na = Option.value (Hashtbl.find_opt nested s.id) ~default:(0., 0.) in
          let w, a = Option.value (Hashtbl.find_opt tbl l) ~default:(0., 0.) in
          Hashtbl.replace tbl l (w +. duration s -. nw, a +. s.words -. na)
      | None -> ())
    t.spans;
  tbl

(* Sum of counter [key] over the library spans named [name]. *)
let lib_counter t ~name key =
  List.fold_left
    (fun acc s ->
      match s.lib with
      | Some l when l.Trace.name = name -> acc + Trace.counter l key
      | _ -> acc)
    0 t.spans

let lib_count t ~name =
  List.length
    (List.filter
       (fun s -> match s.lib with Some l -> l.Trace.name = name | None -> false)
       t.spans)

let to_json (s : span) =
  let base =
    [
      ("trace", Json.Num (float_of_int s.op));
      ("id", Json.Num (float_of_int s.id));
      ("parent", if s.parent < 0 then Json.Null else Json.Num (float_of_int s.parent));
      ("name", Json.Str s.name);
      ("start", Json.Num s.start);
      ("end", Json.Num s.stop);
    ]
  in
  let extra =
    match (s.layer, s.lib) with
    | Some l, _ -> [ ("layer", Json.Str l); ("minor_words", Json.Num s.words) ]
    | None, Some l ->
        [
          ("sim_start", Json.Num l.Trace.sim_start);
          ("sim_end", Json.Num l.Trace.sim_end);
          ( "counters",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Num (float_of_int v)))
                 (Trace.counters l)) );
        ]
    | None, None -> [ ("minor_words", Json.Num s.words) ]
  in
  Json.Obj (base @ extra)

(* One JSON object per span, by id: a suite span's id follows its
   parent's; a library span's follows the suite spans opened before it
   was adopted. *)
let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s -> output_string oc (Json.to_string (to_json s) ^ "\n"))
    (List.sort (fun a b -> compare a.id b.id) t.spans);
  close_out oc
