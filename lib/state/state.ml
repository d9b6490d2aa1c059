(** Deployment state: the IaC framework's record of what it believes
    exists in the cloud.

    Equivalent to Terraform's state file.  Maps resource addresses to
    their cloud identity and last-known attributes, and records the
    dependency edges observed at apply time (needed to destroy in the
    right order even after the configuration changed).

    Serialized as HCL itself — one [instance] block per resource — so
    the whole toolchain shares a single syntax. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Recorded = Cloudless_hcl.Recorded
module Smap = Value.Smap

type resource_state = {
  addr : Addr.t;
  cloud_id : string;
  rtype : string;
  region : string;
  recorded : Recorded.t;
      (** last attributes observed from the cloud: a row {!of_string}
          read keeps them as text until they are read (see {!attrs}) *)
  deps : Addr.t list;  (** dependencies at the time of creation *)
}

(** A row's attributes, read from the state text on the first call. *)
let attrs r = Recorded.map r.recorded

(** [r] with the attributes [attrs]. *)
let with_attrs r attrs = { r with recorded = Recorded.of_map attrs }

(** The text a state was decoded from, kept so that {!to_string} can
    copy the bytes of every row that is still physically the record
    decoded from them. *)
type source = {
  text : string;
  decoded : resource_state array;  (** in ascending address order *)
  spans : int array;
      (** row [i]'s block runs from byte [spans.(2i)] of [text] to just
          before byte [spans.(2i+1)] *)
}

type t = {
  serial : int;  (** bumped on every mutation; optimistic concurrency *)
  resources : resource_state Amap.t;
  mutable cloud_index : Addr.t Smap.t option;
      (** lazily-built reverse index (cloud id -> address), rebuilt on
          first {!find_by_cloud_id} after a topology change — keeping
          it incrementally would double the spine rebuilds on the
          apply hot path.  Cloud ids are unique per deployment (a
          restore refuses a state whose rows share one); were a
          state ever to hold duplicates, the highest address wins.
          Updates that keep [resources] unchanged (or change only
          attributes) share the memo. *)
  outputs : (string * Value.t) list;
  source : source option;
      (** the decoded text, for a state read by {!of_string} and every
          state derived from it *)
}

let empty =
  {
    serial = 0;
    resources = Amap.empty;
    cloud_index = None;
    outputs = [];
    source = None;
  }

let serial t = t.serial
let resources t = List.map snd (Amap.bindings t.resources)
let size t = Amap.cardinal t.resources
let is_empty t = Amap.is_empty t.resources
let find_opt t addr = Amap.find_opt addr t.resources
let mem t addr = Amap.mem addr t.resources
let outputs t = t.outputs

let add t (r : resource_state) =
  {
    t with
    serial = t.serial + 1;
    resources = Amap.add r.addr r t.resources;
    cloud_index = None;
  }

let remove t addr =
  {
    t with
    serial = t.serial + 1;
    resources = Amap.remove addr t.resources;
    cloud_index = None;
  }

let set_outputs t outputs = { t with serial = t.serial + 1; outputs }

(** Override the serial — for callers that batch mutations (the
    executor's apply overlay) and must account for every individual
    write the batch replaced, matching what a per-write [add]/[remove]
    sequence would have produced. *)
let with_serial t serial = { t with serial }

(** Build a state from rows sorted strictly ascending by address in
    O(n) — the bulk counterpart of folding {!add}, which pays a path
    copy per row.  The caller supplies the serial (see
    {!with_serial}); [outputs] defaults to none. *)
let of_sorted_rows ?(outputs = []) ~serial
    (rows : (Addr.t * resource_state) array) =
  {
    serial;
    resources = Amap.of_sorted_array rows;
    cloud_index = None;
    outputs;
    source = None;
  }

(** Update just the attributes of a tracked resource.  Handed the
    row's own attribute map (as a re-read that found the resource as
    recorded returns it), the state keeps the row's record and only the
    serial moves. *)
let update_attrs t addr attrs =
  match Amap.find_opt addr t.resources with
  | None -> t
  | Some r when Recorded.is_map r.recorded attrs ->
      { t with serial = t.serial + 1 }
  | Some r ->
      {
        t with
        serial = t.serial + 1;
        resources = Amap.add addr (with_attrs r attrs) t.resources;
      }

(** The lookup function expansion needs: the evaluator environment's
    [state_lookup]. *)
let lookup t addr =
  Option.map (fun r -> r.recorded) (Amap.find_opt addr t.resources)

(* Force (and memoize) the reverse index. *)
let cloud_index t =
  match t.cloud_index with
  | Some ix -> ix
  | None ->
      let ix =
        Amap.fold
          (fun addr r acc -> Smap.add r.cloud_id addr acc)
          t.resources Smap.empty
      in
      t.cloud_index <- Some ix;
      ix

(** Find the state entry for a cloud id via the (lazily-built) reverse
    index: O(log n) per lookup instead of a fold over every tracked
    resource. *)
let find_by_cloud_id t cloud_id =
  match Smap.find_opt cloud_id (cloud_index t) with
  | Some addr -> Amap.find_opt addr t.resources
  | None -> None

(** Addresses tracked in state but not in [addrs] — candidates for
    deletion in a plan. *)
let orphans t addrs =
  (* hashed membership, not [Addr.Set.of_list]: [addrs] is every
     desired address (possibly millions) while the recorded resources
     may be few — don't pay a balanced-tree build on the big side *)
  if Amap.is_empty t.resources then []
  else begin
  let keep = Hashtbl.create (2 * Amap.cardinal t.resources) in
  List.iter (fun a -> Hashtbl.replace keep a ()) addrs;
  Amap.fold
    (fun addr _ acc -> if Hashtbl.mem keep addr then acc else addr :: acc)
    t.resources []
  |> List.rev
  end

(* ------------------------------------------------------------------ *)
(* Serialization (HCL blocks of literal data)                          *)
(* ------------------------------------------------------------------ *)

module Codec = Cloudless_hcl.Codec

(* Corrupt state files surface through the typed error channel with a
   span pointing into the state file itself. *)
let corrupt ~span fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.State_io
    ~code:"corrupt-state" ~span fmt

(* One [instance] block.  The attribute names are padded to the
   longest, as the HCL printer aligns them. *)
let add_row buf r =
  Buffer.add_string buf "\ninstance ";
  Codec.add_string buf (Addr.to_string r.addr);
  Buffer.add_string buf " {\n  cloud_id   = ";
  Codec.add_string buf r.cloud_id;
  Buffer.add_string buf "\n  type       = ";
  Codec.add_string buf r.rtype;
  Buffer.add_string buf "\n  region     = ";
  Codec.add_string buf r.region;
  Buffer.add_string buf "\n  attributes = ";
  Codec.add_map buf (attrs r);
  Buffer.add_string buf "\n  depends    = [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ", ";
      Codec.add_string buf (Addr.to_string d))
    r.deps;
  Buffer.add_string buf "]\n}\n"

(* Every row in address order.  A row whose record is still the one
   decoded from [source] is its source bytes, copied; the decoded
   records are in address order too, so one cursor walks them beside
   the rows and a pointer test finds each carried row. *)
let add_rows buf t =
  match t.source with
  | None -> Amap.fold (fun _ r () -> add_row buf r) t.resources ()
  | Some { text; decoded; spans } ->
      let n = Array.length decoded and i = ref 0 in
      Amap.fold
        (fun _ r () ->
          (* skip the decoded rows that were removed or replaced *)
          while
            !i < n
            && decoded.(!i) != r
            && Addr.compare decoded.(!i).addr r.addr < 0
          do
            incr i
          done;
          if !i < n && decoded.(!i) == r then begin
            let first = spans.(2 * !i) in
            Buffer.add_char buf '\n';
            Buffer.add_substring buf text first (spans.((2 * !i) + 1) - first);
            Buffer.add_char buf '\n';
            incr i
          end
          else add_row buf r)
        t.resources ()

(** The state as HCL: a [state] block with the serial, one [instance]
    block per row in address order, then one [output] block per
    output.  Unknown values are written as [null].  A row still
    physically the record {!of_string} decoded is written as the bytes
    it was decoded from, which for a row this function wrote are the
    bytes it renders. *)
let to_string t =
  let estimate =
    match t.source with
    | Some s -> String.length s.text + 4096
    | None -> 64 + (256 * Amap.cardinal t.resources)
  in
  let buf = Buffer.create estimate in
  Buffer.add_string buf "state {\n  serial = ";
  Buffer.add_string buf (string_of_int t.serial);
  Buffer.add_string buf "\n}\n";
  add_rows buf t;
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf "\noutput ";
      Codec.add_string buf name;
      Buffer.add_string buf " {\n  value = ";
      Codec.add_value buf v;
      Buffer.add_string buf "\n}\n")
    t.outputs;
  Buffer.contents buf

(* [of_string]'s general reader: any text {!Codec.fold_blocks} reads,
   with its diagnostics, every value read.  The serial, the rows with
   their blocks' offsets in address order, and the outputs. *)
let general ~file src ~address =
  let locate first last = Codec.span ~file src first last in
  let block_error (b : Codec.block) fmt =
    corrupt ~span:(locate b.first b.last) fmt
  in
  let field (b : Codec.block) name =
    let rec find = function
      | (a : Codec.attr) :: rest -> if String.equal a.name name then a else find rest
      | [] -> block_error b "state: missing %S" name
    in
    find b.attrs
  in
  let bad (a : Codec.attr) what =
    corrupt
      ~span:(locate a.at (a.at + String.length a.name))
      "state: %s must be %s, not %s" a.name what (Value.type_name a.value)
  in
  let string_field b name =
    match field b name with
    | { value = Value.Vstring s; _ } -> s
    | a -> bad a "a string"
  in
  let address (b : Codec.block) s =
    match address s with
    | Some a -> a
    | None -> block_error b "state: bad address %s" s
  in
  let serial = ref 0 and outputs = ref [] in
  (* rows with their blocks' offsets, in reverse; [ascending] while
     they arrive strictly ascending *)
  let rows = ref [] and ascending = ref true in
  let row (b : Codec.block) addr =
    let cloud_id = string_field b "cloud_id" in
    let rtype = string_field b "type" in
    let region = string_field b "region" in
    let recorded =
      match field b "attributes" with
      | { value = Value.Vmap m; _ } -> Recorded.of_map m
      | a -> bad a "an object"
    in
    let deps =
      match field b "depends" with
      | { value = Value.Vlist vs; _ } as a ->
          List.map
            (function
              | Value.Vstring s -> address b s
              | _ -> bad a "a list of address strings")
            vs
      | a -> bad a "a list of address strings"
    in
    let r = { addr; cloud_id; rtype; region; recorded; deps } in
    (match !rows with
    | (prev, _, _) :: _ when Addr.compare prev.addr addr >= 0 ->
        ascending := false
    | _ -> ());
    rows := (r, b.first, b.last) :: !rows
  in
  let block () (b : Codec.block) =
    match (b.btype, b.labels) with
    | "state", _ -> (
        match field b "serial" with
        | { value = Value.Vint n; _ } -> serial := n
        | a -> bad a "an integer")
    | "instance", [ label ] -> row b (address b label)
    | "output", [ name ] -> outputs := (name, (field b "value").value) :: !outputs
    | ty, _ -> block_error b "state: unexpected block %s" ty
  in
  (try Codec.fold_blocks ~file src block ()
   with Cloudless_error.Error { code = "parse-error"; message; span; _ } ->
     corrupt ~span "state: %s" message);
  let rows =
    if !ascending then Array.of_list (List.rev !rows)
    else
      (* address order; of rows at one address, the last one read *)
      let by_addr (a, _, _) (b, _, _) = Addr.compare a.addr b.addr in
      List.fold_left
        (fun acc ((r, _, _) as x) ->
          match acc with
          | (kept, _, _) :: _ when Addr.compare kept.addr r.addr = 0 -> acc
          | _ -> x :: acc)
        []
        (List.rev (List.stable_sort by_addr (List.rev !rows)))
      |> Array.of_list
  in
  (!serial, rows, List.rev !outputs)

(* [of_string]'s layout reader, for a text laid out as {!to_string}
   writes it, rows strictly ascending: the serial, the rows with their
   blocks' offsets and the outputs, read without the general reader's
   blocks and attribute lists, and each row's [attributes] object
   checked ({!Codec.check_object}) and left unread.  [None] at the
   first byte that differs from that layout, and at anything the
   general reader rejects: the general reader then reads [src] again,
   with its diagnostics. *)
let layout src ~address ~recorded =
  let n = String.length src in
  let pos = ref 0 and ok = ref true in
  let at s = !pos + String.length s <= n && Codec.holds_at src !pos s 0 in
  let lit s = if !ok && at s then pos := !pos + String.length s else ok := false in
  (* a string the previous row also held is shared *)
  let str ?(like = "") () =
    let first = !pos in
    let stop = if !ok then Codec.string_end src first else -1 in
    if stop < 0 then begin
      ok := false;
      ""
    end
    else begin
      pos := stop;
      Codec.string_at ~like src first stop
    end
  in
  let parse s =
    match if !ok then address s else None with
    | Some a -> a
    | None ->
        ok := false;
        Addr.make ~rtype:"" ~rname:"" ()
  in
  (* a literal value, read once it is known to read *)
  let value () =
    let first = !pos in
    let stop = if !ok then Codec.canonical_value src first else -1 in
    if stop < 0 then begin
      ok := false;
      Value.Vnull
    end
    else begin
      pos := stop;
      Codec.read_value ~file:"" (String.sub src first (stop - first))
    end
  in
  lit "state {\n  serial = ";
  let serial =
    match value () with
    | Value.Vint n -> n
    | _ ->
        ok := false;
        0
  in
  lit "\n}\n";
  let checker = Codec.checker () and rows = ref [] in
  let rtype = ref "" and region = ref "" in
  while !ok && at "\ninstance " do
    let first = !pos + 1 in
    lit "\ninstance ";
    let addr = parse (str ()) in
    lit " {\n  cloud_id   = ";
    let cloud_id = str () in
    lit "\n  type       = ";
    rtype := str ~like:!rtype ();
    lit "\n  region     = ";
    region := str ~like:!region ();
    lit "\n  attributes = ";
    let obj = if !ok then Codec.check_object checker src !pos else None in
    (match obj with Some _ -> pos := Codec.checked_end checker | None -> ok := false);
    lit "\n  depends    = [";
    let deps =
      if !ok && Codec.byte src !pos ']' then []
      else begin
        let deps = ref [ parse (str ()) ] in
        while !ok && Codec.byte src !pos ',' do
          lit ", ";
          deps := parse (str ()) :: !deps
        done;
        List.rev !deps
      end
    in
    lit "]\n}";
    let last = !pos in
    lit "\n";
    (match !rows with
    | (prev, _, _) :: _ when Addr.compare prev.addr addr >= 0 -> ok := false
    | _ -> ());
    if !ok then
      rows :=
        ( {
            addr;
            cloud_id;
            rtype = !rtype;
            region = !region;
            recorded = recorded !rtype (Option.get obj);
            deps;
          },
          first,
          last )
        :: !rows
  done;
  let outputs = ref [] in
  while !ok && !pos < n do
    lit "\noutput ";
    let name = str () in
    lit " {\n  value = ";
    let v = value () in
    lit "\n}\n";
    outputs := (name, v) :: !outputs
  done;
  if !ok then Some (serial, Array.of_list (List.rev !rows), List.rev !outputs) else None

(** Read a state written by {!to_string}.  Blocks may come in any
    order; a repeated instance keeps its last row.  The state keeps
    [src] and each row's block in it (see {!to_string}).  Two readers
    share the work.  A text laid out as {!to_string} writes it is read
    by the layout reader, which checks every row but leaves its
    [attributes] object as text, read on the row's first {!attrs},
    {!Recorded.find} or {!Recorded.holds} (which reads nothing when the
    text is written as the values it is compared with): reading it
    cannot fail.  Any other text (hand-edited, commented, reordered) is
    read whole by the general reader.  Errors come from the general
    reader alone and are located in [file]: a lexer error anywhere
    ([syntax/lex-error]) outranks text that is not literal data
    anywhere, which outranks the first malformed block; both of the
    latter are [state/corrupt-state] diagnostics. *)
let of_string ?(file = "<state>") src =
  (* a state names each address once per row and again per dependent,
     so each distinct string is parsed once; a row takes some 300
     bytes *)
  let parsed = Hashtbl.create (max 16 (String.length src / 256)) in
  let address s =
    match Hashtbl.find_opt parsed s with
    | Some _ as a -> a
    | None ->
        let a = Addr.of_string s in
        Option.iter (Hashtbl.add parsed s) a;
        a
  in
  (* the key sets of the rows' attribute objects, as they are read:
     one set per resource type, whose rows share their keys, so the
     order in which rows are read does not matter *)
  let type_shapes = Hashtbl.create 16 in
  let last_type = ref "" and last_shapes = ref (Codec.shapes ()) in
  let shapes rtype =
    (* rows of one type arrive together *)
    if not (String.equal rtype !last_type) then begin
      last_type := rtype;
      last_shapes :=
        match Hashtbl.find_opt type_shapes rtype with
        | Some sh -> sh
        | None ->
            let sh = Codec.shapes () in
            Hashtbl.add type_shapes rtype sh;
            sh
    end;
    !last_shapes
  in
  let recorded rtype obj = Recorded.of_text ~shapes:(shapes rtype) src obj in
  (* rows with their blocks' offsets, in address order *)
  let serial, rows, outputs =
    match layout src ~address ~recorded with
    | Some read -> read
    | None -> general ~file src ~address
  in
  let decoded = Array.map (fun (r, _, _) -> r) rows in
  let spans = Array.make (2 * Array.length rows) 0 in
  Array.iteri
    (fun i (_, first, last) ->
      spans.(2 * i) <- first;
      spans.((2 * i) + 1) <- last)
    rows;
  {
    serial;
    resources = Amap.of_sorted_array (Array.map (fun r -> (r.addr, r)) decoded);
    cloud_index = None;
    outputs;
    source = Some { text = src; decoded; spans };
  }

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(** Attribute-level difference between two states for the same address
    set; used by drift reporting and the time machine. *)
type entry_diff = {
  diff_addr : Addr.t;
  changed : (string * Value.t option * Value.t option) list;
      (** (attr, old value, new value) *)
}

let diff_entry (a : resource_state) (b : resource_state) : entry_diff option =
  let a_attrs = attrs a and b_attrs = attrs b in
  let keys =
    List.sort_uniq String.compare
      (List.map fst (Smap.bindings a_attrs) @ List.map fst (Smap.bindings b_attrs))
  in
  let changed =
    List.filter_map
      (fun k ->
        let va = Smap.find_opt k a_attrs and vb = Smap.find_opt k b_attrs in
        match (va, vb) with
        | Some x, Some y when Value.equal x y -> None
        | None, None -> None
        | _ -> Some (k, va, vb))
      keys
  in
  if changed = [] then None else Some { diff_addr = a.addr; changed }

type state_diff = {
  added : Addr.t list;  (** in [b] but not [a] *)
  removed : Addr.t list;  (** in [a] but not [b] *)
  modified : entry_diff list;
}

let diff a b =
  let added =
    Amap.fold
      (fun addr _ acc -> if Amap.mem addr a.resources then acc else addr :: acc)
      b.resources []
    |> List.rev
  in
  let removed =
    Amap.fold
      (fun addr _ acc -> if Amap.mem addr b.resources then acc else addr :: acc)
      a.resources []
    |> List.rev
  in
  let modified =
    Amap.fold
      (fun addr ra acc ->
        match Amap.find_opt addr b.resources with
        | None -> acc
        | Some rb -> (
            match diff_entry ra rb with None -> acc | Some d -> d :: acc))
      a.resources []
    |> List.rev
  in
  { added; removed; modified }

let diff_is_empty d = d.added = [] && d.removed = [] && d.modified = []
