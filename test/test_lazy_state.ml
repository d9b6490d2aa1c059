(* State rows read on demand.  [State.of_string] has two readers.  The
   layout reader reads every text [State.to_string] writes and leaves
   each row's attribute object as text, read on the row's first read;
   any other text is read whole by the general reader.  Either way a
   row reads to exactly the record the eager reader built, and a text
   that does not read fails with its diagnostic.  The CLI's plan path
   checks instances against their rows' text ([Session.expand]) and
   plans the same as an expansion that merges every row, reading only
   the rows it needs; its restore registers rows unread; and an apply
   keeps every row it does not change. *)

open Cloudless_hcl
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Cloud = Cloudless_sim.Cloud
module Session = Cloudless.Session
module Cli = Cloudless.Cli
module Io_util = Cloudless.Io_util
module Workload = Cloudless_workload.Workload
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module Lifecycle = Cloudless.Lifecycle
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* The eager reader                                                    *)
(* ------------------------------------------------------------------ *)

(* [State.of_string] as it read before rows were read on demand, kept
   as the oracle: every attribute object is read with its block, by
   [Codec.fold_blocks].  The serial, the rows in address order and the
   outputs. *)
module Eager = struct
  type row = {
    addr : Addr.t;
    cloud_id : string;
    rtype : string;
    region : string;
    attrs : Value.t Smap.t;
    deps : Addr.t list;
  }

  let corrupt ~span fmt =
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.State_io
      ~code:"corrupt-state" ~span fmt

  let of_string ?(file = "<state>") src =
    let locate first last = Codec.span ~file src first last in
    let block_error (b : Codec.block) fmt =
      corrupt ~span:(locate b.first b.last) fmt
    in
    let field (b : Codec.block) name =
      match List.find_opt (fun (a : Codec.attr) -> a.name = name) b.attrs with
      | Some a -> a
      | None -> block_error b "state: missing %S" name
    in
    let bad (a : Codec.attr) what =
      corrupt
        ~span:(locate a.at (a.at + String.length a.name))
        "state: %s must be %s, not %s" a.name what
        (Value.type_name a.value)
    in
    let string_field b name =
      match (field b name).value with
      | Value.Vstring s -> s
      | _ -> bad (field b name) "a string"
    in
    let address (b : Codec.block) s =
      match Addr.of_string s with
      | Some a -> a
      | None -> block_error b "state: bad address %s" s
    in
    let serial = ref 0 and outputs = ref [] and rows = ref [] in
    let row (b : Codec.block) addr =
      let cloud_id = string_field b "cloud_id" in
      let rtype = string_field b "type" in
      let region = string_field b "region" in
      let attrs =
        match (field b "attributes").value with
        | Value.Vmap m -> m
        | _ -> bad (field b "attributes") "an object"
      in
      let deps =
        let a = field b "depends" in
        match a.value with
        | Value.Vlist vs ->
            List.map
              (function
                | Value.Vstring s -> address b s
                | _ -> bad a "a list of address strings")
              vs
        | _ -> bad a "a list of address strings"
      in
      rows := { addr; cloud_id; rtype; region; attrs; deps } :: !rows
    in
    let block () (b : Codec.block) =
      match (b.btype, b.labels) with
      | "state", _ -> (
          match (field b "serial").value with
          | Value.Vint n -> serial := n
          | _ -> bad (field b "serial") "an integer")
      | "instance", [ label ] -> row b (address b label)
      | "output", [ name ] -> outputs := (name, (field b "value").value) :: !outputs
      | ty, _ -> block_error b "state: unexpected block %s" ty
    in
    (try Codec.fold_blocks ~file src block ()
     with Cloudless_error.Error { code = "parse-error"; message; span; _ } ->
       corrupt ~span "state: %s" message);
    (* address order; of rows at one address, the last one read *)
    let rows =
      List.fold_left
        (fun acc r ->
          match acc with
          | kept :: _ when Addr.compare kept.addr r.addr = 0 -> acc
          | _ -> r :: acc)
        []
        (List.rev
           (List.stable_sort (fun a b -> Addr.compare a.addr b.addr) (List.rev !rows)))
    in
    (!serial, rows, List.rev !outputs)
end

let outcome f =
  match f () with v -> Ok v | exception Cloudless_error.Error d -> Error d

let same_value = Test_state.same_value

(* A lazily read state against the eager reader's result, from [text]
   read afresh for each question asked of a row: its attributes one by
   one ([Recorded.find], [Recorded.holds] of each binding, of a binding
   it does not hold and of a key it lacks), then whole.  A text
   [State.to_string] [written] is read by the layout reader, which
   leaves every row unread until its first read. *)
let reads_as_eager ~written text (serial, rows, outputs) =
  let fresh () = State.resources (State.of_string text) in
  let state = State.of_string text in
  if State.serial state <> serial then Alcotest.fail "serial differs";
  if
    not
      (List.equal
         (fun (n, v) (n', v') -> String.equal n n' && same_value v v')
         (State.outputs state) outputs)
  then Alcotest.fail "outputs differ";
  let lazy_rows = State.resources state in
  if List.length lazy_rows <> List.length rows then Alcotest.fail "row count differs";
  List.iter2
    (fun (r : State.resource_state) (e : Eager.row) ->
      if
        not
          (Addr.equal r.addr e.addr && String.equal r.cloud_id e.cloud_id
          && String.equal r.rtype e.rtype && String.equal r.region e.region
          && List.equal Addr.equal r.deps e.deps)
      then Alcotest.failf "row %s: header differs" (Addr.to_string e.addr))
    lazy_rows rows;
  let missing = "no such attribute" in
  List.iteri
    (fun i (e : Eager.row) ->
      let row () = (List.nth (fresh ()) i).State.recorded in
      Smap.iter
        (fun k v ->
          (match Recorded.find (row ()) k with
          | Some v' when same_value v v' -> ()
          | _ -> Alcotest.failf "row %s: find %S" (Addr.to_string e.addr) k);
          let unknown = Value.has_unknown v in
          if (not unknown) && not (Recorded.holds (row ()) (Smap.singleton k v)) then
            Alcotest.failf "row %s: holds %S" (Addr.to_string e.addr) k;
          let other = Value.Vstring (missing ^ "!") in
          if Recorded.holds (row ()) (Smap.singleton k other) then
            Alcotest.failf "row %s: holds a value %S lacks" (Addr.to_string e.addr) k)
        e.attrs;
      if Recorded.find (row ()) missing <> None then
        Alcotest.failf "row %s: finds a missing key" (Addr.to_string e.addr);
      if Recorded.holds (row ()) (Smap.singleton missing Value.Vnull) then
        Alcotest.failf "row %s: holds a missing key" (Addr.to_string e.addr);
      let r = List.nth lazy_rows i in
      if written && Recorded.read r.recorded then
        Alcotest.failf "row %s: read before its first read" (Addr.to_string e.addr);
      if not (same_value (Value.Vmap (State.attrs r)) (Value.Vmap e.attrs)) then
        Alcotest.failf "row %s: attributes differ" (Addr.to_string e.addr))
    rows;
  true

(* The lazy reader against the eager one on [text]: both fail with one
   diagnostic, or the lazy state reads as the eager one. *)
let agrees ~written text =
  match (outcome (fun () -> Eager.of_string text), outcome (fun () -> State.of_string text)) with
  | Error d, Error d' -> d = d'
  | Ok eager, Ok _ -> reads_as_eager ~written text eager
  | Ok _, Error d ->
      QCheck.Test.fail_reportf "only the lazy reader fails: %s"
        (Cloudless_error.Diagnostic.to_string d)
  | Error d, Ok _ ->
      QCheck.Test.fail_reportf "only the eager reader fails: %s"
        (Cloudless_error.Diagnostic.to_string d)

(* [Test_state.state_gen]'s states hold addresses with quotes and
   control bytes, strings that need escapes, floats, integers of up to
   19 digits and outputs: every text [State.to_string] writes for them
   is the layout reader's. *)
let prop_written_reads_lazily =
  QCheck.Test.make ~count:1000
    ~name:"every written state is read by the layout reader, as the eager reader reads it"
    (QCheck.make Test_state.state_gen ~print:State.to_string)
    (fun s -> agrees ~written:true (State.to_string s))

(* Texts to read: a state as [State.to_string] writes it, or as a
   person might (comments, other spacing, shuffled and repeated
   blocks), with up to three bytes replaced, inserted or deleted; and
   whether [State.to_string] wrote the text as it is. *)
let text_gen =
  QCheck.Gen.(
    map3
      (fun s noisy edits ->
        let text =
          match noisy with
          | Some seed -> Test_state.noisy_state_text seed s
          | None -> State.to_string s
        in
        (List.fold_left Test_state.apply_edit text edits, noisy = None && edits = []))
      Test_state.state_gen
      (opt ~ratio:0.3 int)
      (frequency
         [
           (1, return []);
           (2, list_size (int_range 1 3) Test_state.edit_gen);
         ]))

let prop_reads_as_eager =
  QCheck.Test.make ~count:1000
    ~name:"a lazily read state is the eager reader's, or its diagnostic"
    (QCheck.make text_gen ~print:fst)
    (fun (text, written) -> agrees ~written text)

(* One row of each kind of text the layout reader reads, and an output:
   what a [for_each] instance's address, escaped strings, floats and the
   integers at either end of the range look like in a state. *)
let test_layout_reads_every_written_text () =
  let attrs =
    Value.of_assoc
      [
        ("id", Value.Vstring "vpc-1");
        ("note", Value.Vstring "a \"quoted\" \\ ${x}\n\tline");
        ("ratio", Value.Vfloat 0.1);
        ("big", Value.Vfloat 1e300);
        ("tiny", Value.Vfloat (-5e-324));
        ("min", Value.Vint min_int);
        ("max", Value.Vint max_int);
        ("odd key", Value.Vlist [ Value.Vint (-1); Value.Vfloat (-2.5) ]);
      ]
  in
  let row key =
    {
      State.addr = Addr.make ~key:(Addr.Kstr key) ~rtype:"aws_vpc" ~rname:"v" ();
      cloud_id = "vpc-\"1\"";
      rtype = "aws_vpc";
      region = "us-east-1";
      recorded = Recorded.of_map (Value.to_map attrs);
      deps = [ Addr.make ~key:(Addr.Kstr "a\"b") ~rtype:"aws_vpc" ~rname:"w" () ];
    }
  in
  let state =
    State.with_serial
      (State.set_outputs
         (List.fold_left State.add State.empty [ row "a"; row "b\\c" ])
         [ ("out", attrs); ("n", Value.Vint min_int) ])
      (-3)
  in
  let text = State.to_string state in
  check bool_ "the layout reader's rows, as the eager reader reads them" true
    (agrees ~written:true text);
  check string_ "written back byte for byte" text (State.to_string (State.of_string text))

(* ------------------------------------------------------------------ *)
(* The CLI's rows                                                      *)
(* ------------------------------------------------------------------ *)

(* [f tf state_path] in a fresh directory, removed afterwards. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "cloudless_lazy" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (Filename.concat dir "main.tf") (Filename.concat dir "state.cls"))

let quiet = { Cli.out = ignore; err = ignore }

(* [f src tf state_path] after applying a [resources]-resource fleet,
   [src], from empty state. *)
let deployed ~resources f =
  in_temp_dir @@ fun tf state_path ->
  let src = Workload.fleet ~resources () in
  Io_util.write_file tf src;
  check int_ "cold apply exits 0" 0 (Cli.apply ~io:quiet ~file:tf ~state_path ());
  f src tf state_path

let addr ?key rtype rname = Addr.make ?key ~rtype ~rname ()

(* [Cli.plan]'s loads and expansion: the rows it reads are the edited
   block's, read whole, and the rows the expressions reference (a
   subnet, a security group and the VPC), read one attribute at a
   time. *)
let test_plan_reads_the_rows_it_needs () =
  deployed ~resources:2000 @@ fun src tf state_path ->
  Io_util.write_file tf
    (Test_scoped_refresh.set_attr src ~rtype:"aws_instance" ~name:"g7"
       ~key:"instance_type" ~value:"\"t3.large\"");
  let out = Buffer.create 256 in
  check int_ "plan exits 2" 2
    (Cli.plan ~io:{ Cli.out = Buffer.add_string out; err = ignore } ~file:tf ~state_path ());
  let state = Session.load_state state_path in
  let plan = Session.plan_against ~state tf in
  check string_ "the plan Cli.plan printed" (Buffer.contents out) (Plan.to_string plan);
  let edited (a : Addr.t) = a.rtype = "aws_instance" && a.rname = "g7" in
  let referenced =
    [ addr "aws_subnet" "g7"; addr "aws_security_group" "g7"; addr "aws_vpc" "fleet" ]
  in
  let rows = State.resources state in
  check int_ "2,000 rows" 2000 (List.length rows);
  List.iter
    (fun (r : State.resource_state) ->
      let name = Addr.to_string r.addr in
      let read = Recorded.read r.recorded and whole = Recorded.decoded r.recorded in
      if edited r.addr then check bool_ (name ^ " is read whole") true whole
      else if List.exists (Addr.equal r.addr) referenced then
        check bool_ (name ^ " is read, not whole") true (read && not whole)
      else if read then
        (* the groups' other referenced rows: their instances read an id *)
        check bool_ (name ^ " is a referenced row, not read whole") true
          ((r.rtype = "aws_subnet" || r.rtype = "aws_security_group"
           || r.rtype = "aws_vpc")
          && not whole))
    rows;
  let whole = List.filter (fun (r : State.resource_state) -> Recorded.decoded r.recorded) rows in
  check int_ "only the edited block's rows are read whole" 6 (List.length whole)

(* Whether [state]'s rows read whole are exactly the ones [edited]
   picks, [n] of them. *)
let check_whole ~n state edited =
  List.iter
    (fun (r : State.resource_state) ->
      check bool_
        (Addr.to_string r.addr ^ " is read whole iff edited")
        (edited r.addr) (Recorded.decoded r.recorded))
    (State.resources state);
  check int_ "rows read whole" n
    (List.length
       (List.filter
          (fun (r : State.resource_state) -> Recorded.decoded r.recorded)
          (State.resources state)))

(* [for_each] blocks joined by indexed references, [keys] keys each;
   the security groups are named with [suffix]. *)
let for_each_src ?(keys = 3) ?(suffix = "sg") () =
  Printf.sprintf
    "locals {\n  names = toset([%s])\n}\n\
     resource \"aws_vpc\" \"v\" {\n  for_each   = local.names\n  cidr_block = \"10.0.0.0/16\"\n  region     = \"us-east-1\"\n}\n\
     resource \"aws_subnet\" \"s\" {\n  for_each   = local.names\n  vpc_id     = aws_vpc.v[each.key].id\n  cidr_block = \"10.0.1.0/24\"\n  region     = \"us-east-1\"\n}\n\
     resource \"aws_security_group\" \"g\" {\n  for_each = local.names\n  name     = \"%s-${each.key}\"\n  vpc_id   = aws_vpc.v[each.key].id\n  region   = \"us-east-1\"\n}\n"
    (String.concat ", " (List.init keys (Printf.sprintf "\"k%d\"")))
    suffix

(* The same for a [for_each] deployment: a one-block edit reads that
   block's rows whole and, of the rows its indexed references name,
   one attribute each. *)
let test_for_each_plan_reads_the_rows_it_needs () =
  in_temp_dir @@ fun tf state_path ->
  Io_util.write_file tf (for_each_src ~keys:20 ());
  check int_ "apply exits 0" 0 (Cli.apply ~io:quiet ~file:tf ~state_path ());
  Io_util.write_file tf (for_each_src ~keys:20 ~suffix:"group" ());
  let state = Session.load_state state_path in
  let plan = Session.plan_against ~state tf in
  check int_ "twenty updates" 20 (List.length (Plan.actionable plan));
  check_whole ~n:20 state (fun a -> a.rtype = "aws_security_group");
  List.iter
    (fun (r : State.resource_state) ->
      if r.rtype = "aws_vpc" then
        check bool_ (Addr.to_string r.addr ^ " is read") true (Recorded.read r.recorded))
    (State.resources state)

(* A module called twice, whose instances reference each other. *)
let net_module name =
  Config.parse ~file:"net.tf"
    (Printf.sprintf
       "variable \"cidr\" {}\n\
        resource \"aws_vpc\" \"v\" {\n  cidr_block = var.cidr\n  region     = \"us-east-1\"\n}\n\
        resource \"aws_subnet\" \"s\" {\n  vpc_id     = aws_vpc.v.id\n  cidr_block = cidrsubnet(var.cidr, 8, 1)\n  region     = \"us-east-1\"\n}\n\
        resource \"aws_security_group\" \"g\" {\n  name   = %S\n  vpc_id = aws_vpc.v.id\n  region = \"us-east-1\"\n}\n\
        output \"vpc\" {\n  value = aws_vpc.v.id\n}\n"
       name)

let net_root =
  "module \"net\" {\n  source = \"./net\"\n  count  = 2\n  cidr   = \"10.${count.index}.0.0/16\"\n}\n\
   output \"vpcs\" {\n  value = module.net[*].vpc\n}\n"

(* And for a module deployment: expanding over the loaded state reads
   whole only the edited block's rows. *)
let test_module_plan_reads_the_rows_it_needs () =
  let t = Lifecycle.create () in
  Lifecycle.register_modules t [ ("./net", net_module "g") ];
  (match Lifecycle.deploy t net_root with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Lifecycle.error_to_string e));
  let state = State.of_string (State.to_string (Lifecycle.state t)) in
  let env =
    { (Plan.env_for state) with Eval.module_registry = (fun _ -> Some (net_module "g2")) }
  in
  let cfg = Config.parse ~file:"main.tf" net_root in
  let plan = Plan.make ~state (Eval.expand ~env cfg).Eval.instances in
  check int_ "six rows" 6 (State.size state);
  check int_ "two updates" 2 (List.length (Plan.actionable plan));
  check_whole ~n:2 state (fun a -> a.rtype = "aws_security_group")

(* A [for_each] block's rows, whose addresses hold quotes, are the
   layout reader's: after an apply, every row of the loaded state is
   unread. *)
let test_for_each_rows_load_unread () =
  in_temp_dir @@ fun tf state_path ->
  Io_util.write_file tf
    "resource \"aws_vpc\" \"v\" {\n\
    \  for_each   = { a = \"10.0.0.0/16\", b = \"10.1.0.0/16\" }\n\
    \  cidr_block = each.value\n\
    \  region     = \"us-east-1\"\n\
     }\n\
     resource \"aws_subnet\" \"s\" {\n\
    \  for_each   = aws_vpc.v\n\
    \  vpc_id     = each.value.id\n\
    \  cidr_block = cidrsubnet(each.value.cidr_block, 8, 1)\n\
    \  region     = \"us-east-1\"\n\
     }\n";
  check int_ "apply exits 0" 0 (Cli.apply ~io:quiet ~file:tf ~state_path ());
  let rows = State.resources (Session.load_state state_path) in
  check int_ "four rows" 4 (List.length rows);
  List.iter
    (fun (r : State.resource_state) ->
      check bool_ (Addr.to_string r.addr ^ " is unread") false (Recorded.read r.recorded))
    rows

(* The restore registers each row with the cloud unread; the cloud
   reads a resource's attributes on its first read, and they are the
   row's. *)
let test_restore_reads_no_row () =
  deployed ~resources:200 @@ fun _ _ state_path ->
  let recorded = Session.load_state state_path in
  let cloud, state = Session.cloud_from_state recorded ~seed:1 in
  check bool_ "the recorded state itself" true (state == recorded);
  List.iter
    (fun (r : State.resource_state) ->
      if Recorded.read r.recorded then
        Alcotest.failf "%s read by the restore" (Addr.to_string r.addr))
    (State.resources recorded);
  let vpc = Option.get (State.find_opt recorded (addr "aws_vpc" "fleet")) in
  let res = Option.get (Cloud.lookup cloud vpc.cloud_id) in
  check bool_ "the cloud holds the row's attributes" true (Cloud.attrs res == State.attrs vpc)

(* A row whose recorded id disagrees with its cloud id is rebuilt with
   the cloud's attributes, as before. *)
let test_restore_rebuilds_a_disagreeing_row () =
  deployed ~resources:20 @@ fun _ _ state_path ->
  let text = Io_util.read_file state_path in
  let recorded = Session.load_state state_path in
  let vpc = Option.get (State.find_opt recorded (addr "aws_vpc" "fleet")) in
  let edited =
    let id = Printf.sprintf " id = %S" vpc.cloud_id in
    let i = Option.get (Test_stable_ids.index_from text id 0) in
    String.sub text 0 i ^ " id = \"vpc-hand-edited\""
    ^ String.sub text (i + String.length id) (String.length text - i - String.length id)
  in
  Io_util.write_file state_path edited;
  let recorded = Session.load_state state_path in
  let _, state = Session.cloud_from_state recorded ~seed:1 in
  let row = Option.get (State.find_opt state (addr "aws_vpc" "fleet")) in
  check bool_ "rebuilt" true (row != Option.get (State.find_opt recorded row.addr));
  check bool_ "with the cloud's id" true
    (Smap.find_opt "id" (State.attrs row) = Some (Value.Vstring vpc.cloud_id))

(* The apply [Cli.apply] runs for a one-attribute edit: every row
   outside the plan's actionable changes is the record the load built,
   including the rows its scoped refresh re-read. *)
let test_apply_keeps_unchanged_rows () =
  deployed ~resources:200 @@ fun src tf state_path ->
  Io_util.write_file tf
    (Test_scoped_refresh.set_attr src ~rtype:"aws_instance" ~name:"g3"
       ~key:"instance_type" ~value:"\"t3.large\"");
  let recorded = Session.load_state state_path in
  let cloud, state = Session.cloud_from_state recorded ~seed:42 in
  let plan = Session.plan_against ~state tf in
  let report =
    Executor.apply cloud ~config:(Cli.engine_config Cli.Cloudless) ~state ~plan ()
  in
  check bool_ "applied" true (Executor.succeeded report);
  let changed = List.map (fun (c : Plan.change) -> c.addr) (Plan.actionable plan) in
  check int_ "six updates" 6 (List.length changed);
  let scope = Plan.refresh_scope plan in
  check bool_ "the refresh re-reads unchanged rows" true
    (Addr.Set.exists (fun a -> not (List.exists (Addr.equal a) changed)) scope);
  List.iter
    (fun (r : State.resource_state) ->
      if not (List.exists (Addr.equal r.addr) changed) then
        if Option.get (State.find_opt recorded r.addr) != r then
          Alcotest.failf "%s is a new record" (Addr.to_string r.addr))
    (State.resources report.Executor.state)

(* ------------------------------------------------------------------ *)
(* Scoped plans are full plans                                         *)
(* ------------------------------------------------------------------ *)

let generators =
  Test_workload_props.generators
  @ [ ("multi_cloud", fun () -> Workload.multi_cloud ()); ("for_each", fun () -> for_each_src ()) ]

(* Each generator's configuration and the state text of its deployment. *)
let deployments =
  lazy
    (List.map
       (fun (name, gen) ->
         let cfg = Config.parse ~file:name (gen ()) in
         let cloud =
           Cloud.create ~config:(Cloudless_schema.Cloud_rules.config_with_checks ()) ~seed:3 ()
         in
         let instances = (Eval.expand ~env:(Plan.env_for State.empty) cfg).Eval.instances in
         let plan = Plan.make ~state:State.empty instances in
         let report =
           Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty ~plan ()
         in
         (name, cfg, State.to_string report.Executor.state))
       generators)

type config_edit =
  | Set_attr of int * int * Value.t
  | Add_attr of int * Value.t
  | Count of int * int
  | Remove_block of int
  | Add_block of int
  | Rewire of int * int * int * int
  | Ignore of int * int
  | Ignored_read of int * int * Value.t * int * int
      (** an [ignore_changes] attribute set to a value and read by
          another block *)

type state_edit =
  | Drift of int * int * Value.t
  | Forget of int * int
  | Remove_row of int
  | Computed of int * string

let literal_gen =
  QCheck.Gen.oneofl
    [
      Value.Vstring "us-east-1"; Value.Vstring "t3.large"; Value.Vstring "x\"y";
      Value.Vint 1; Value.Vfloat 1.; Value.Vfloat 2.5; Value.Vbool true; Value.Vnull;
      Value.Vlist [ Value.Vstring "a" ]; Value.of_assoc [ ("k", Value.Vstring "v") ];
    ]

let config_edit_gen =
  let open QCheck.Gen in
  let i = int_bound 1_000 in
  frequency
    [
      (3, map3 (fun b a v -> Set_attr (b, a, v)) i i literal_gen);
      (1, map2 (fun b v -> Add_attr (b, v)) i literal_gen);
      (1, map2 (fun b d -> Count (b, d)) i (int_range (-2) 2));
      (1, map (fun b -> Remove_block b) i);
      (1, map (fun b -> Add_block b) i);
      (2, map4 (fun b a t k -> Rewire (b, a, t, k)) i i i i);
      (1, map2 (fun b a -> Ignore (b, a)) i i);
      ( 1,
        map3
          (fun (b, a) v (c, d) -> Ignored_read (b, a, v, c, d))
          (pair i i) literal_gen (pair i i) );
    ]

let state_edit_gen =
  let open QCheck.Gen in
  let i = int_bound 1_000 in
  frequency
    [
      (3, map3 (fun r a v -> Drift (r, a, v)) i i literal_gen);
      (1, map2 (fun r a -> Forget (r, a)) i i);
      (1, map (fun r -> Remove_row r) i);
      (2, map2 (fun r k -> Computed (r, k)) i (oneofl [ "id"; "arn"; "region" ]));
    ]

let nth l i = List.nth l (i mod List.length l)

(* [r] with attribute [a] of its body (if it has one) mapped by [f]. *)
let map_attr (r : Config.resource) a f =
  match r.rbody.Ast.attrs with
  | [] -> r
  | attrs ->
      let target = nth attrs a in
      {
        r with
        rbody =
          {
            r.rbody with
            Ast.attrs =
              List.map
                (fun (x : Ast.attribute) -> if x == target then f x else x)
                attrs;
          };
      }

let rec edit_config (cfg : Config.t) edit =
  let rs = cfg.resources in
  if rs = [] then cfg
  else
    let on b f =
      let target = nth rs b in
      { cfg with resources = List.map (fun r -> if r == target then f r else r) rs }
    in
    match edit with
    | Set_attr (b, a, v) ->
        on b (fun r -> map_attr r a (fun x -> { x with avalue = Codec.value_to_expr v }))
    | Add_attr (b, v) ->
        on b (fun r ->
            let extra =
              { Ast.aname = "extra"; avalue = Codec.value_to_expr v; aspan = Loc.dummy }
            in
            if List.exists (fun (x : Ast.attribute) -> x.aname = "extra") r.rbody.Ast.attrs
            then r
            else { r with rbody = { r.rbody with Ast.attrs = r.rbody.Ast.attrs @ [ extra ] } })
    | Count (b, d) ->
        on b (fun r ->
            let n =
              match r.rcount with
              | Some { Ast.desc = Ast.Int n; _ } -> n
              | _ -> 1
            in
            { r with rcount = Some (Ast.mk (Ast.Int (max 0 (n + d)))) })
    | Remove_block b ->
        let target = nth rs b in
        { cfg with resources = List.filter (fun r -> r != target) rs }
    | Add_block b ->
        let r = nth rs b in
        { cfg with resources = rs @ [ { r with rname = r.rname ^ "_added" } ] }
    | Rewire (b, a, t, k) ->
        (* block [b]'s attribute [a] reads [t]'s [id] or one of its
           configured attributes *)
        let target = nth rs t in
        let attr =
          match target.rbody.Ast.attrs with
          | [] -> "id"
          | attrs -> if k mod 2 = 0 then "id" else (nth attrs (k / 2)).Ast.aname
        in
        let read =
          Ast.mk
            (Ast.GetAttr
               (Ast.mk (Ast.GetAttr (Ast.mk (Ast.Var target.rtype), target.rname)), attr))
        in
        on b (fun r -> map_attr r a (fun x -> { x with avalue = read }))
    | Ignore (b, a) ->
        on b (fun r ->
            match r.rbody.Ast.attrs with
            | [] -> r
            | attrs ->
                {
                  r with
                  rlifecycle =
                    { r.rlifecycle with ignore_changes = [ (nth attrs a).Ast.aname ] };
                })
    | Ignored_read (b, a, v, c, d) ->
        List.fold_left edit_config cfg
          [ Set_attr (b, a, v); Ignore (b, a); Rewire (c, d, b, (2 * a) + 1) ]

let edit_state s edit =
  match State.resources s with
  | [] -> s
  | rows -> (
      match edit with
      | Drift (i, a, v) ->
          let r = nth rows i in
          let attrs = State.attrs r in
          let key =
            match Smap.bindings attrs with [] -> "extra" | kvs -> fst (nth kvs a)
          in
          State.update_attrs s r.addr (Smap.add key v attrs)
      | Forget (i, a) -> (
          let r = nth rows i in
          match Smap.bindings (State.attrs r) with
          | [] -> s
          | kvs -> State.update_attrs s r.addr (Smap.remove (fst (nth kvs a)) (State.attrs r)))
      | Remove_row i -> State.remove s (nth rows i).addr
      | Computed (i, key) ->
          let r = nth rows i in
          State.update_attrs s r.addr (Smap.add key (Value.Vstring "hand-edited") (State.attrs r)))

type case = {
  workload : int;
  config_edits : config_edit list;
  state_edits : state_edit list;
  noisy : int option;
}

let case_gen =
  QCheck.Gen.(
    map
      (fun (workload, config_edits, state_edits, noisy) ->
        { workload; config_edits; state_edits; noisy })
      (quad (int_bound 1_000)
         (list_size (int_range 0 3) config_edit_gen)
         (list_size (int_range 0 3) state_edit_gen)
         (opt ~ratio:0.3 int)))

(* The plan and where it failed, if it did. *)
let planned expand text cfg =
  outcome (fun () ->
      let state = State.of_string text in
      Plan.make ~state (expand state cfg))

let actions (p : Plan.t) =
  List.map (fun (c : Plan.change) -> (Addr.to_string c.addr, c.action)) p.changes

(* A case's edited configuration and the text of its edited state. *)
let case_input case =
  let _, cfg, text = nth (Lazy.force deployments) case.workload in
  let cfg = List.fold_left edit_config cfg case.config_edits in
  let state = List.fold_left edit_state (State.of_string text) case.state_edits in
  ( cfg,
    match case.noisy with
    | Some seed -> Test_state.noisy_state_text seed state
    | None -> State.to_string state )

(* [state] with every row read whole: an expansion over it merges every
   row, as if no row had ever been left on its text. *)
let decoded state =
  List.iter (fun r -> ignore (State.attrs r : Value.t Smap.t)) (State.resources state);
  state

let prop_scoped_is_full =
  QCheck.Test.make ~count:300
    ~name:"Session.expand then Plan.make = Plan.make over a merging expansion"
    (QCheck.make case_gen)
    (fun case ->
      let cfg, text = case_input case in
      let scoped = planned (fun state cfg -> Session.expand state cfg) text cfg in
      let full =
        planned (fun state cfg -> Session.expand (decoded state) cfg) text cfg
      in
      match (scoped, full) with
      | Ok p, Ok q ->
          String.equal (Plan.to_string p) (Plan.to_string q)
          && actions p = actions q
          && Addr.Set.equal (Plan.refresh_scope p) (Plan.refresh_scope q)
      | Error d, Error d' -> d = d'
      | _ -> false)

let validated ~decode text cfg =
  outcome (fun () ->
      let state = State.of_string text in
      let state = if decode then decoded state else state in
      (Validate.validate_config ~env:(Session.env_for state) cfg).Validate.diagnostics)

let prop_validate_is_full =
  QCheck.Test.make ~count:300
    ~name:"validate over the CLI's expansion = validate over a merging expansion"
    (QCheck.make case_gen)
    (fun case ->
      let cfg, text = case_input case in
      validated ~decode:false text cfg = validated ~decode:true text cfg)

(* ------------------------------------------------------------------ *)
(* Validate reads the attributes the program sets                      *)
(* ------------------------------------------------------------------ *)

(* Resource types whose schema has no [region], which the cloud
   records on every row. *)
let azure_src space =
  Printf.sprintf
    "resource \"azurerm_resource_group\" \"rg\" {\n  name     = \"rg\"\n  location = \"eastus\"\n}\n\
     resource \"azurerm_virtual_network\" \"net\" {\n  name              = \"net\"\n  location          = \"eastus\"\n  resource_group_id = azurerm_resource_group.rg.id\n  address_space     = [%S]\n}\n"
    space

let validate_out tf state_path =
  let out = Buffer.create 256 in
  let code =
    Cli.validate ~io:{ Cli.out = Buffer.add_string out; err = ignore } ~file:tf ~state_path ()
  in
  (code, Buffer.contents out)

let test_validate_after_apply () =
  in_temp_dir @@ fun tf state_path ->
  Io_util.write_file tf (azure_src "10.0.0.0/16");
  check int_ "apply exits 0" 0 (Cli.apply ~io:quiet ~file:tf ~state_path ());
  check (Alcotest.pair int_ string_) "validate after the apply" (0, "0 error(s), 0 warning(s)\n")
    (validate_out tf state_path);
  Io_util.write_file tf (azure_src "10.1.0.0/16");
  check (Alcotest.pair int_ string_) "validate after an edit" (0, "0 error(s), 0 warning(s)\n")
    (validate_out tf state_path)

let test_develop_after_apply () =
  let t = Lifecycle.create () in
  (match Lifecycle.deploy t (azure_src "10.0.0.0/16") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Lifecycle.error_to_string e));
  match Lifecycle.develop t (azure_src "10.0.0.0/16") with
  | Ok report ->
      check (Alcotest.list string_) "no diagnostics" []
        (List.map Diagnostic.to_string report.Validate.diagnostics)
  | Error e -> Alcotest.fail (Lifecycle.error_to_string e)

let test_configured_region_reported () =
  let src =
    "resource \"azurerm_resource_group\" \"rg\" {\n  name     = \"rg\"\n  location = \"eastus\"\n  region   = \"eastus\"\n}\n"
  in
  let report = Validate.validate_source ~file:"main.tf" src in
  check (Alcotest.list string_) "the configured region"
    [ "unknown-attribute" ]
    (List.map (fun (d : Diagnostic.t) -> d.code) report.Validate.diagnostics)

let suites =
  [
    ( "state.lazy",
      [
        QCheck_alcotest.to_alcotest prop_written_reads_lazily;
        QCheck_alcotest.to_alcotest prop_reads_as_eager;
        Alcotest.test_case "the layout reader reads every written text" `Quick
          test_layout_reads_every_written_text;
        Alcotest.test_case "for_each rows load unread" `Quick test_for_each_rows_load_unread;
        Alcotest.test_case "plan reads the rows it needs" `Slow
          test_plan_reads_the_rows_it_needs;
        Alcotest.test_case "for_each plan reads the rows it needs" `Quick
          test_for_each_plan_reads_the_rows_it_needs;
        Alcotest.test_case "module plan reads the rows it needs" `Quick
          test_module_plan_reads_the_rows_it_needs;
        Alcotest.test_case "restore reads no row" `Quick test_restore_reads_no_row;
        Alcotest.test_case "restore rebuilds a disagreeing row" `Quick
          test_restore_rebuilds_a_disagreeing_row;
        Alcotest.test_case "apply keeps unchanged rows" `Quick
          test_apply_keeps_unchanged_rows;
      ] );
    ( "plan.scoped",
      [
        QCheck_alcotest.to_alcotest prop_scoped_is_full;
        QCheck_alcotest.to_alcotest prop_validate_is_full;
      ] );
    ( "validate.configured",
      [
        Alcotest.test_case "CLI validate after an apply and an edit" `Quick
          test_validate_after_apply;
        Alcotest.test_case "develop after an apply" `Quick test_develop_after_apply;
        Alcotest.test_case "a configured region is reported" `Quick
          test_configured_region_reported;
      ] );
  ]
