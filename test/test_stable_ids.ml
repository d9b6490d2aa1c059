(* A CLI apply restores every recorded row under its recorded cloud id
   ([Session.cloud_from_state] through [Cloud.restore]): rows the apply
   does not change keep their bytes, ids minted later continue past the
   restored ones, [plan] and [apply] print the same plan, and the
   serial and the outputs carry over.  A state whose rows share a cloud
   id is refused. *)

open Cloudless_hcl
module State = Cloudless_state.State
module Workload = Cloudless_workload.Workload
module Cli = Cloudless.Cli
module Session = Cloudless.Session
module Io_util = Cloudless.Io_util
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string
let set_attr = Test_scoped_refresh.set_attr
let contains = Test_fixtures.contains_substring

(* [f tf state_path] in a fresh directory, removed afterwards. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "cloudless_ids" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (Filename.concat dir "main.tf") (Filename.concat dir "state.cls"))

(* [f src tf state_path] after applying a 200-resource fleet, [src],
   from empty state. *)
let deployed f =
  in_temp_dir @@ fun tf state_path ->
  let src = Workload.fleet ~resources:200 () in
  Io_util.write_file tf src;
  check int_ "cold apply exits 0" 0
    (Cli.apply ~io:{ Cli.out = ignore; err = ignore } ~file:tf ~state_path ());
  f src tf state_path

(* Run a handler, returning its exit code and what it printed. *)
let run f =
  let out = Buffer.create 1024 in
  let code = f { Cli.out = Buffer.add_string out; err = Buffer.add_string out } in
  (code, Buffer.contents out)

let apply ~tf ~state_path = run (fun io -> Cli.apply ~io ~file:tf ~state_path ())

(* The first offset at or after [i] where [sub] occurs in [s]. *)
let index_from s sub i =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1)
  in
  go i

(* Each instance block of a state file's text, by its label. *)
let row_texts text =
  let rec go i acc =
    match index_from text "\ninstance \"" i with
    | None -> List.rev acc
    | Some j ->
        let k = Option.get (index_from text "\n}\n" j) in
        let block = String.sub text (j + 1) (k + 2 - j - 1) in
        let label = Scanf.sscanf block "instance %S" Fun.id in
        go k ((label, block) :: acc)
  in
  go 0 []

(* The counter value of an id [Cloud] minted: its hex suffix. *)
let id_number id =
  let i = String.rindex id '-' in
  int_of_string ("0x" ^ String.sub id (i + 1) (String.length id - i - 1))

let test_grown_count_keeps_rows () =
  deployed @@ fun src tf state_path ->
  let before = Io_util.read_file state_path in
  Io_util.write_file tf
    (set_attr src ~rtype:"aws_instance" ~name:"g3" ~key:"count" ~value:"7");
  let code, _ = apply ~tf ~state_path in
  check int_ "apply exits 0" 0 code;
  let after = row_texts (Io_util.read_file state_path) in
  let old_rows = row_texts before in
  List.iter
    (fun (label, text) ->
      check string_ (label ^ " keeps its bytes") text (List.assoc label after))
    old_rows;
  check int_ "one row more" (List.length old_rows + 1) (List.length after);
  let state = Session.load_state state_path in
  let grown =
    Option.get
      (State.find_opt state
         (Addr.make ~rtype:"aws_instance" ~rname:"g3" ~key:(Addr.Kint 6) ()))
  in
  let restored =
    List.filter (fun (r : State.resource_state) -> r != grown) (State.resources state)
  in
  List.iter
    (fun (r : State.resource_state) ->
      if id_number r.State.cloud_id >= id_number grown.State.cloud_id then
        Alcotest.failf "new id %s is not above restored id %s" grown.State.cloud_id
          r.State.cloud_id)
    restored

(* [vpc_security_group_ids] holds a cloud id and updates in place, so
   the plan prints the recorded id and the new one. *)
let test_plan_and_apply_print_the_same_plan () =
  deployed @@ fun src tf state_path ->
  Io_util.write_file tf
    (set_attr src ~rtype:"aws_instance" ~name:"g2" ~key:"vpc_security_group_ids"
       ~value:"[aws_security_group.g5.id]");
  let plan_code, plan = run (fun io -> Cli.plan ~io ~file:tf ~state_path ()) in
  check int_ "plan exits 2" 2 plan_code;
  check bool_ "the plan prints ids" true (contains ~sub:"vpc_security_group_ids: [" plan);
  let code, out = apply ~tf ~state_path in
  check int_ "apply exits 0" 0 code;
  check string_ "apply prints the plan that plan printed" plan
    (String.sub out 0 (min (String.length out) (String.length plan)))

let test_outputs_survive () =
  deployed @@ fun src tf state_path ->
  let outputs = [ ("fleet", Value.Vstring "kept"); ("size", Value.Vint 200) ] in
  Session.save_state state_path
    (State.set_outputs (Session.load_state state_path) outputs);
  Io_util.write_file tf
    (set_attr src ~rtype:"aws_instance" ~name:"g1" ~key:"instance_type"
       ~value:"\"t3.large\"");
  let code, _ = apply ~tf ~state_path in
  check int_ "apply exits 0" 0 code;
  let kept = State.outputs (Session.load_state state_path) in
  check bool_ "outputs as recorded" true
    (List.equal (fun (n, v) (n', v') -> n = n' && Value.equal v v') outputs kept)

let test_serial_continues () =
  deployed @@ fun src tf state_path ->
  let recorded = 10_000 in
  Session.save_state state_path
    (State.with_serial (Session.load_state state_path) recorded);
  Io_util.write_file tf
    (set_attr src ~rtype:"aws_instance" ~name:"g4" ~key:"instance_type"
       ~value:"\"t3.large\"");
  let code, _ = apply ~tf ~state_path in
  check int_ "apply exits 0" 0 code;
  let serial = State.serial (Session.load_state state_path) in
  check bool_
    (Printf.sprintf "serial %d continues from %d by the apply's writes" serial recorded)
    true
    (serial > recorded && serial <= recorded + 50)

let vpc name cloud_id =
  {
    State.addr = Addr.make ~rtype:"aws_vpc" ~rname:name ();
    cloud_id;
    rtype = "aws_vpc";
    region = "us-east-1";
    recorded =
      State.Recorded.of_map (Smap.singleton "cidr_block" (Value.Vstring "10.0.0.0/16"));
    deps = [];
  }

let test_shared_cloud_id_refused () =
  in_temp_dir @@ fun tf state_path ->
  Io_util.write_file tf
    "resource \"aws_vpc\" \"a\" {\n  cidr_block = \"10.0.0.0/16\"\n  region     = \"us-east-1\"\n}\n";
  Session.save_state state_path
    (State.add (State.add State.empty (vpc "a" "vpc-000007")) (vpc "b" "vpc-000007"));
  let before = Io_util.read_file state_path in
  List.iter
    (fun (verb, f) ->
      let code, out = run f in
      check int_ (verb ^ " exits 1") 1 code;
      check bool_ (verb ^ ": corrupt-state naming both rows") true
        (contains ~sub:"error[state/corrupt-state]" out
        && contains ~sub:"aws_vpc.a and aws_vpc.b both record cloud id vpc-000007" out))
    [
      ("apply", fun io -> Cli.apply ~io ~file:tf ~state_path ());
      ("destroy", fun io -> Cli.destroy ~io ~state_path ());
      ("import", fun io -> Cli.import ~io ~state_path ());
    ];
  check string_ "the state file is untouched" before (Io_util.read_file state_path)

let suites =
  [
    ( "cli.stable-ids",
      [
        Alcotest.test_case "a grown count keeps every other row" `Quick
          test_grown_count_keeps_rows;
        Alcotest.test_case "plan and apply print the same plan" `Quick
          test_plan_and_apply_print_the_same_plan;
        Alcotest.test_case "outputs survive an apply" `Quick test_outputs_survive;
        Alcotest.test_case "the serial continues" `Quick test_serial_continues;
        Alcotest.test_case "a shared cloud id is refused" `Quick
          test_shared_cloud_id_refused;
      ] );
  ]
