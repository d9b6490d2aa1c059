(** Porting non-IaC infrastructure to IaC (§3.1).

    [import] does what Terraformer/Aztfy do today: walk the live cloud
    and emit one resource block per cloud resource, with every
    attribute spelled out as a literal — correct but unmaintainable.
    The {!Refactor} optimizer then turns that into idiomatic IaC. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Ast = Hcl.Ast
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud

(* Cloud ids ("vpc-00001a") are not valid HCL block names. *)
let sanitize_name cloud_id =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
      | _ -> '_')
    cloud_id

let attr_of_value (name, v) =
  match Hcl.Codec.value_to_expr v with
  | e -> Some { Ast.aname = name; avalue = e; aspan = Hcl.Loc.dummy }
  | exception Hcl.Codec.Not_literal _ -> None

(** Snapshot the cloud into a naive configuration: the faithful but
    verbose translation the paper criticizes ("usually lack clear
    structures and require the DevOps engineers to manually analyze
    and refactor them"). *)
let import (cloud : Cloud.t) ?(filter = fun (_ : Cloud.resource) -> true) () :
    Hcl.Config.t =
  let resources =
    Cloud.all_resources cloud
    |> List.filter filter
    |> List.map (fun (r : Cloud.resource) ->
           let attrs =
             Smap.bindings (Cloud.attrs r) |> List.filter_map attr_of_value
           in
           {
             Hcl.Config.rtype = r.Cloud.rtype;
             rname = sanitize_name r.Cloud.cloud_id;
             rbody = { Ast.attrs; blocks = [] };
             rcount = None;
             rfor_each = None;
             rprovider = None;
             rdepends_on = [];
             rlifecycle = Hcl.Config.default_lifecycle;
             rspan = Hcl.Loc.dummy;
           })
  in
  { (Hcl.Config.empty ~file:"<imported>") with Hcl.Config.resources }
