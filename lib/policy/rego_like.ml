(** A deliberately-restricted baseline policy engine modelling today's
    tools (Terrascan/Checkov-style assertion checkers, §3.6).

    Limitations it shares with the real ones, which the obs/action
    engine removes:

    - it can only *deny*: no actions that evolve the program;
    - it only sees the plan/configuration, never runtime telemetry —
      so "scale out VPN tunnels when throughput nears capacity" is
      simply not expressible;
    - checks come from a fixed vocabulary of predicates over resource
      attributes. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap
module Eval = Hcl.Eval

type predicate =
  | Attr_equals of { rtype : string; attr : string; value : Value.t }
  | Attr_present of { rtype : string; attr : string }
  | Attr_absent of { rtype : string; attr : string }
  | Type_forbidden of string
  | Count_at_most of { rtype : string; limit : int }

type check = { cname : string; predicate : predicate; deny_message : string }

type violation = { vcheck : string; vaddr : Hcl.Addr.t option; vmessage : string }

let eval_check (instances : Eval.instance list) (c : check) : violation list =
  let of_type rt =
    List.filter
      (fun (i : Eval.instance) -> i.Eval.addr.Hcl.Addr.rtype = rt)
      instances
  in
  match c.predicate with
  | Attr_equals { rtype; attr; value } ->
      of_type rtype
      |> List.filter_map (fun (i : Eval.instance) ->
             match Eval.merged_attr i attr with
             | Some v when Value.equal v value ->
                 Some
                   { vcheck = c.cname; vaddr = Some i.Eval.addr; vmessage = c.deny_message }
             | _ -> None)
  | Attr_present { rtype; attr } ->
      of_type rtype
      |> List.filter_map (fun (i : Eval.instance) ->
             if Option.is_some (Eval.merged_attr i attr) then
               Some
                 { vcheck = c.cname; vaddr = Some i.Eval.addr; vmessage = c.deny_message }
             else None)
  | Attr_absent { rtype; attr } ->
      of_type rtype
      |> List.filter_map (fun (i : Eval.instance) ->
             if Option.is_some (Eval.merged_attr i attr) then None
             else
               Some
                 { vcheck = c.cname; vaddr = Some i.Eval.addr; vmessage = c.deny_message })
  | Type_forbidden rtype ->
      of_type rtype
      |> List.map (fun (i : Eval.instance) ->
             { vcheck = c.cname; vaddr = Some i.Eval.addr; vmessage = c.deny_message })
  | Count_at_most { rtype; limit } ->
      let n = List.length (of_type rtype) in
      if n > limit then
        [
          {
            vcheck = c.cname;
            vaddr = None;
            vmessage =
              Printf.sprintf "%s (found %d, limit %d)" c.deny_message n limit;
          };
        ]
      else []

(** Evaluate all checks; any violation denies the plan. *)
let evaluate (checks : check list) (instances : Eval.instance list) :
    violation list =
  List.concat_map (eval_check instances) checks
