(* Shared experiment harness utilities: table rendering, standard
   cloud/engine setup, common workload deployment. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Workload = Cloudless_workload.Workload

(* Set by [main.ml] when "--quick" is passed: experiments that sweep
   large inputs (E11) shrink to a ≤5s smoke run for tier-1 CI. *)
let quick = ref false

(* Set by [main.ml] when "--resources N" is passed: experiments whose
   sweeps are parameterized by fleet size (E2, E11, E16) run that one
   size instead of their built-in list, so a one-off measurement never
   needs a code edit. *)
let resources : int option ref = ref None

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let subsection title = Printf.printf "\n--- %s ---\n" title

(* simple fixed-width table *)
let row widths cells =
  let cells =
    List.map2
      (fun w c -> if String.length c >= w then c else c ^ String.make (w - String.length c) ' ')
      widths cells
  in
  print_endline ("  " ^ String.concat "  " cells)

let hline widths =
  print_endline
    ("  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths))

let fresh_cloud ?(seed = 42) ?quotas ?failure ?(write_rate = None) () =
  let base = Cloud.default_config in
  let base =
    match quotas with Some q -> { base with Cloud.quotas = q } | None -> base
  in
  let base =
    match failure with Some f -> { base with Cloud.failure = f } | None -> base
  in
  let config = Cloudless_schema.Cloud_rules.config_with_checks ~base () in
  let cloud = Cloud.create ~config ~seed () in
  ignore write_rate;
  cloud

let expand_src ?(state = State.empty) src =
  let cfg = Hcl.Config.parse ~file:"bench.tf" src in
  (Hcl.Eval.expand ~env:(Plan.env_for state) cfg).Hcl.Eval.instances

(* Deploy [src] from empty state on a fresh cloud; returns (cloud,
   report). *)
let deploy ?(seed = 42) ?(engine = Executor.cloudless_config) src =
  let cloud = fresh_cloud ~seed () in
  let instances = expand_src src in
  let plan = Plan.make ~state:State.empty instances in
  let report =
    Executor.apply cloud ~config:engine ~state:State.empty ~plan ()
  in
  (cloud, report)

(* Replace every occurrence of [sub] in [s] — workload-editing helper
   shared by the incremental-update experiments (the examples' copy
   lives in [Ex_common]).  Raises [Invalid_argument] when [sub] never
   occurs: an edit that matches nothing would quietly measure an
   empty plan. *)
let replace s ~sub ~by =
  let slen = String.length sub in
  if slen = 0 then s
  else begin
    let buf = Buffer.create (String.length s) in
    let hits = ref 0 in
    let rec go i =
      if i > String.length s - slen then
        Buffer.add_string buf (String.sub s i (String.length s - i))
      else if String.sub s i slen = sub then begin
        incr hits;
        Buffer.add_string buf by;
        go (i + slen)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0;
    if !hits = 0 then
      invalid_arg (Printf.sprintf "replace: %S does not occur" sub);
    Buffer.contents buf
  end

let pct a b = if b = 0. then 0. else 100. *. (1. -. (a /. b))

let fmt_s v = Printf.sprintf "%.0fs" v
let fmt_x v = Printf.sprintf "%.1fx" v
