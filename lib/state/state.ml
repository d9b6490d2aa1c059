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
module Smap = Value.Smap

type resource_state = {
  addr : Addr.t;
  cloud_id : string;
  rtype : string;
  region : string;
  attrs : Value.t Smap.t;  (** last attributes observed from the cloud *)
  deps : Addr.t list;  (** dependencies at the time of creation *)
}

type t = {
  serial : int;  (** bumped on every mutation; optimistic concurrency *)
  resources : resource_state Amap.t;
  mutable cloud_index : Addr.t Smap.t option;
      (** lazily-built reverse index (cloud id -> address), rebuilt on
          first {!find_by_cloud_id} after a topology change — keeping
          it incrementally would double the spine rebuilds on the
          apply hot path.  Cloud ids are unique per deployment; were a
          state ever to hold duplicates (e.g. a merge of independently
          numbered shards), the highest address wins — previously it
          was the latest add, equally arbitrary.  Updates that keep
          [resources] unchanged (or change only attributes) share the
          memo. *)
  outputs : (string * Value.t) list;
}

let empty =
  {
    serial = 0;
    resources = Amap.empty;
    cloud_index = None;
    outputs = [];
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
  { serial; resources = Amap.of_sorted_array rows; cloud_index = None; outputs }

(** Update just the attributes of a tracked resource. *)
let update_attrs t addr attrs =
  match Amap.find_opt addr t.resources with
  | None -> t
  | Some r ->
      {
        t with
        serial = t.serial + 1;
        resources = Amap.add addr { r with attrs } t.resources;
      }

(** The lookup function expansion needs (see
    {!Cloudless_hcl.Eval.env.state_lookup}). *)
let lookup t addr =
  Option.map (fun r -> r.attrs) (Amap.find_opt addr t.resources)

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
(* Serialization (HCL blocks)                                          *)
(* ------------------------------------------------------------------ *)

module Ast = Cloudless_hcl.Ast
module Codec = Cloudless_hcl.Codec
module Printer = Cloudless_hcl.Printer
module Parser = Cloudless_hcl.Parser
module Loc = Cloudless_hcl.Loc

(* Corrupt state files surface through the typed error channel with a
   span pointing into the state file itself. *)
let corrupt ?(span = Loc.dummy) fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.State_io
    ~code:"corrupt-state" ~span fmt

(* Unknowns must never reach the state file; replace them defensively
   with nulls on write. *)
let rec sanitize (v : Value.t) : Value.t =
  match v with
  | Value.Vunknown _ -> Value.Vnull
  | Value.Vlist vs -> Value.Vlist (List.map sanitize vs)
  | Value.Vmap m -> Value.Vmap (Smap.map sanitize m)
  | v -> v

let resource_to_block (r : resource_state) : Ast.block =
  let attr name value = { Ast.aname = name; avalue = value; aspan = Loc.dummy } in
  let attrs_obj =
    Codec.value_to_expr (Value.Vmap (Smap.map sanitize r.attrs))
  in
  let deps_list =
    Ast.mk
      (Ast.ListLit
         (List.map (fun d -> Ast.string_lit (Addr.to_string d)) r.deps))
  in
  {
    Ast.btype = "instance";
    labels = [ Addr.to_string r.addr ];
    bbody =
      {
        Ast.attrs =
          [
            attr "cloud_id" (Ast.string_lit r.cloud_id);
            attr "type" (Ast.string_lit r.rtype);
            attr "region" (Ast.string_lit r.region);
            attr "attributes" attrs_obj;
            attr "depends" deps_list;
          ];
        blocks = [];
      };
    bspan = Loc.dummy;
  }

let to_string t =
  let header =
    {
      Ast.btype = "state";
      labels = [];
      bbody =
        {
          Ast.attrs =
            [
              { Ast.aname = "serial"; avalue = Ast.mk (Ast.Int t.serial); aspan = Loc.dummy };
            ];
          blocks = [];
        };
      bspan = Loc.dummy;
    }
  in
  let output_blocks =
    List.map
      (fun (name, v) ->
        {
          Ast.btype = "output";
          labels = [ name ];
          bbody =
            {
              Ast.attrs =
                [
                  {
                    Ast.aname = "value";
                    avalue = Codec.value_to_expr (sanitize v);
                    aspan = Loc.dummy;
                  };
                ];
              blocks = [];
            };
          bspan = Loc.dummy;
        })
      t.outputs
  in
  Printer.config_to_string
    {
      Ast.attrs = [];
      blocks = (header :: List.map resource_to_block (resources t)) @ output_blocks;
    }

let literal ?(span = Loc.dummy) body name =
  match Ast.attr body name with
  | None -> corrupt ~span "state: missing %S" name
  | Some e -> (
      match Codec.expr_to_value e with
      | Some v -> v
      | None ->
          corrupt
            ?span:(Some (Option.value ~default:span (Ast.attr_span body name)))
            "state: %S is not literal" name)

(* Fold one top-level item of a state file into [acc]; [acc.outputs]
   is kept in reverse. *)
let load_item acc = function
  | Parser.Attribute a ->
      corrupt ~span:a.Ast.aspan "state: unexpected attribute %s" a.Ast.aname
  | Parser.Block b -> (
      let span = b.Ast.bspan in
      match (b.Ast.btype, b.Ast.labels) with
      | "state", _ ->
          let serial = Value.to_int (literal ~span b.Ast.bbody "serial") in
          { acc with serial }
      | "instance", [ addr_str ] ->
          let addr =
            match Addr.of_string addr_str with
            | Some a -> a
            | None -> corrupt ~span "state: bad address %s" addr_str
          in
          let attrs =
            match literal ~span b.Ast.bbody "attributes" with
            | Value.Vmap m -> m
            | _ -> corrupt ~span "state: attributes must be an object"
          in
          let deps =
            match literal ~span b.Ast.bbody "depends" with
            | Value.Vlist vs ->
                List.map
                  (fun v ->
                    match Addr.of_string (Value.to_string v) with
                    | Some a -> a
                    | None -> corrupt ~span "state: bad dep address")
                  vs
            | _ -> corrupt ~span "state: depends must be a list"
          in
          let r =
            {
              addr;
              cloud_id = Value.to_string (literal ~span b.Ast.bbody "cloud_id");
              rtype = Value.to_string (literal ~span b.Ast.bbody "type");
              region = Value.to_string (literal ~span b.Ast.bbody "region");
              attrs;
              deps;
            }
          in
          { acc with resources = Amap.add addr r acc.resources }
      | "output", [ name ] ->
          let v = literal ~span b.Ast.bbody "value" in
          { acc with outputs = (name, v) :: acc.outputs }
      | ty, _ -> corrupt ~span "state: unexpected block %s" ty)

(* The state file is read one top-level block at a time, so no block's
   syntax tree outlives its own load.  The first error a block raises
   is held until the rest of the file has parsed: a syntax error
   anywhere still outranks it, as when the whole file was parsed
   first. *)
let of_string ?(file = "<state>") src =
  let failed = ref None in
  let acc =
    Parser.fold ~file src
      (fun acc item ->
        if Option.is_some !failed then acc
        else
          match load_item acc item with
          | acc -> acc
          | exception e ->
              failed := Some (e, Printexc.get_raw_backtrace ());
              acc)
      empty
  in
  match !failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> { acc with outputs = List.rev acc.outputs }

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
  let keys =
    List.sort_uniq String.compare
      (List.map fst (Smap.bindings a.attrs) @ List.map fst (Smap.bindings b.attrs))
  in
  let changed =
    List.filter_map
      (fun k ->
        let va = Smap.find_opt k a.attrs and vb = Smap.find_opt k b.attrs in
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
