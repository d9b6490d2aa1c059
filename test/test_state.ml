(* Tests for deployment state and the version store. *)

open Cloudless_hcl
module State = Cloudless_state.State
module Version_store = Cloudless_state.Version_store
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let rs ?(rtype = "aws_vpc") ?(region = "us-east-1") ?(deps = []) name cloud_id
    attrs =
  {
    State.addr = Addr.make ~rtype ~rname:name ();
    cloud_id;
    rtype;
    region;
    attrs = Smap.of_seq (List.to_seq attrs);
    deps;
  }

let test_add_find_remove () =
  let s = State.empty in
  check int_ "serial 0" 0 (State.serial s);
  let s = State.add s (rs "main" "vpc-1" [ ("cidr_block", Value.Vstring "10.0.0.0/16") ]) in
  check int_ "serial bumped" 1 (State.serial s);
  check int_ "size" 1 (State.size s);
  let addr = Addr.make ~rtype:"aws_vpc" ~rname:"main" () in
  (match State.find_opt s addr with
  | Some r -> check string_ "cloud id" "vpc-1" r.State.cloud_id
  | None -> Alcotest.fail "missing");
  let s = State.remove s addr in
  check int_ "empty" 0 (State.size s);
  check int_ "serial bumped again" 2 (State.serial s)

let test_lookup_for_eval () =
  let s = State.add State.empty (rs "main" "vpc-1" [ ("id", Value.Vstring "vpc-1") ]) in
  let addr = Addr.make ~rtype:"aws_vpc" ~rname:"main" () in
  match State.lookup s addr with
  | Some attrs -> check bool_ "id present" true (Smap.mem "id" attrs)
  | None -> Alcotest.fail "lookup failed"

let test_find_by_cloud_id () =
  let s = State.add State.empty (rs "main" "vpc-42" []) in
  match State.find_by_cloud_id s "vpc-42" with
  | Some r -> check string_ "addr" "aws_vpc.main" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "not found"

let test_cloud_id_index_maintenance () =
  let addr_a = Addr.make ~rtype:"aws_vpc" ~rname:"a" () in
  (* removal drops the reverse-index entry *)
  let s = State.add State.empty (rs "a" "vpc-1" []) in
  let s = State.remove s addr_a in
  check bool_ "gone after remove" true (State.find_by_cloud_id s "vpc-1" = None);
  (* re-adding an addr under a new cloud id retires the old entry *)
  let s = State.add State.empty (rs "a" "vpc-old" []) in
  let s = State.add s (rs "a" "vpc-new" []) in
  check bool_ "old id gone" true (State.find_by_cloud_id s "vpc-old" = None);
  (match State.find_by_cloud_id s "vpc-new" with
  | Some r ->
      check string_ "new id resolves" "aws_vpc.a" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "new id missing");
  (* a cloud id taken over by another address survives the old owner's
     removal *)
  let s = State.add State.empty (rs "a" "vpc-1" []) in
  let s = State.add s (rs "b" "vpc-1" []) in
  let s = State.remove s addr_a in
  (match State.find_by_cloud_id s "vpc-1" with
  | Some r ->
      check string_ "b owns it" "aws_vpc.b" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "takeover entry lost");
  (* deserialized states answer reverse lookups too *)
  let s =
    State.of_string (State.to_string (State.add State.empty (rs "a" "vpc-9" [])))
  in
  match State.find_by_cloud_id s "vpc-9" with
  | Some r ->
      check string_ "after roundtrip" "aws_vpc.a" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "roundtrip lost index"

let test_orphans () =
  let s =
    State.add
      (State.add State.empty (rs "a" "vpc-1" []))
      (rs "b" "vpc-2" [])
  in
  let keep = [ Addr.make ~rtype:"aws_vpc" ~rname:"a" () ] in
  let orphans = State.orphans s keep in
  check int_ "one orphan" 1 (List.length orphans);
  check string_ "it's b" "aws_vpc.b" (Addr.to_string (List.hd orphans))

let test_serialization_roundtrip () =
  let s =
    State.add State.empty
      (rs "main" "vpc-1"
         [
           ("cidr_block", Value.Vstring "10.0.0.0/16");
           ("count", Value.Vint 3);
           ("enabled", Value.Vbool true);
           ("tags", Value.of_assoc [ ("env", Value.Vstring "prod") ]);
           ("zones", Value.Vlist [ Value.Vstring "a"; Value.Vstring "b" ]);
         ])
  in
  let s =
    State.add s
      (rs ~rtype:"aws_subnet"
         ~deps:[ Addr.make ~rtype:"aws_vpc" ~rname:"main" () ]
         "sub" "subnet-9" [ ("vpc_id", Value.Vstring "vpc-1") ])
  in
  let s = State.set_outputs s [ ("vpc_id", Value.Vstring "vpc-1") ] in
  let text = State.to_string s in
  let s' = State.of_string text in
  check int_ "size preserved" (State.size s) (State.size s');
  check int_ "serial preserved" (State.serial s) (State.serial s');
  let addr = Addr.make ~rtype:"aws_vpc" ~rname:"main" () in
  let r = Option.get (State.find_opt s' addr) in
  check bool_ "attrs preserved" true
    (Value.equal (Value.Vint 3) (Smap.find "count" r.State.attrs));
  let sub = Option.get (State.find_opt s' (Addr.make ~rtype:"aws_subnet" ~rname:"sub" ())) in
  check int_ "deps preserved" 1 (List.length sub.State.deps);
  check int_ "outputs preserved" 1 (List.length (State.outputs s'))

let test_serialization_sanitizes_unknowns () =
  let s =
    State.add State.empty (rs "main" "vpc-1" [ ("x", Value.unknown "a.b") ])
  in
  let s' = State.of_string (State.to_string s) in
  let r = Option.get (State.find_opt s' (Addr.make ~rtype:"aws_vpc" ~rname:"main" ())) in
  check bool_ "unknown became null" true
    (Value.equal Value.Vnull (Smap.find "x" r.State.attrs))

let test_diff () =
  let a =
    State.add
      (State.add State.empty (rs "x" "vpc-1" [ ("v", Value.Vint 1) ]))
      (rs "y" "vpc-2" [])
  in
  let b =
    State.add
      (State.add State.empty (rs "x" "vpc-1" [ ("v", Value.Vint 2) ]))
      (rs "z" "vpc-3" [])
  in
  let d = State.diff a b in
  check int_ "one added" 1 (List.length d.State.added);
  check int_ "one removed" 1 (List.length d.State.removed);
  check int_ "one modified" 1 (List.length d.State.modified);
  check bool_ "self diff empty" true (State.diff_is_empty (State.diff a a))

(* Property: serialization is a fixpoint after one round trip, over
   states whose addresses carry module paths and int/string keys with
   quotes, brackets and dots, and whose values nest lists and maps of
   negative ints, %g-exact floats and strings that need escaping. *)
let state_gen =
  let open QCheck.Gen in
  let ident = string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '_' ]) (int_range 1 5) in
  let text chars n = string_size ~gen:(oneofl chars) (int_range 0 n) in
  let key =
    frequency
      [
        (2, return Addr.Knone);
        (2, map (fun i -> Addr.Kint i) (int_range (-5) 50));
        (3, map (fun s -> Addr.Kstr s) (text [ 'a'; '"'; ']'; '['; '.'; ' '; '\\' ] 5));
      ]
  in
  let addr =
    map3
      (fun module_path (rtype, rname) key ->
        Addr.make ~module_path ~rtype ~rname ~key ())
      (list_size (int_range 0 2) ident)
      (pair ident ident) key
  in
  let float_ =
    (* exactly representable in %g's six digits: no drift on re-print *)
    map2
      (fun m e -> float_of_int m *. (10. ** float_of_int e))
      (int_range (-999) 999) (int_range (-8) 3)
  in
  let str = text [ 'a'; ' '; '"'; '\\'; '\n'; '\t'; '$'; '{'; '}'; '%' ] 8 in
  let map_key = string_size ~gen:(oneofl [ 'a'; 'x'; '_'; '-'; '.'; '"'; ' '; '$'; '{' ]) (int_range 1 4) in
  let value =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              return Value.Vnull;
              map (fun b -> Value.Vbool b) bool;
              map (fun n -> Value.Vint n) (int_range (-1_000_000) 1_000_000);
              map (fun f -> Value.Vfloat f) float_;
              map (fun s -> Value.Vstring s) str;
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun vs -> Value.Vlist vs) (list_size (int_range 0 3) (self (depth - 1))));
              ( 1,
                map
                  (fun kvs -> Value.of_assoc kvs)
                  (list_size (int_range 0 3) (pair map_key (self (depth - 1)))) );
            ])
      2
  in
  let resource =
    map3
      (fun addr attrs deps ->
        {
          State.addr;
          cloud_id = "id-" ^ Addr.to_string addr;
          rtype = addr.Addr.rtype;
          region = "us-east-1";
          attrs = Smap.of_seq (List.to_seq attrs);
          deps;
        })
      addr
      (list_size (int_range 0 4) (pair map_key value))
      (list_size (int_range 0 2) addr)
  in
  map3
    (fun rs outputs serial ->
      let s = List.fold_left State.add State.empty rs in
      State.with_serial (State.set_outputs s outputs) serial)
    (list_size (int_range 0 6) resource)
    (list_size (int_range 0 2) (pair ident value))
    (int_range 0 10_000)

let prop_state_roundtrip =
  QCheck.Test.make ~count:300 ~name:"to_string . of_string . to_string fixpoint"
    (QCheck.make state_gen ~print:State.to_string)
    (fun s ->
      let text = State.to_string s in
      let s' = State.of_string text in
      State.to_string s' = text
      && State.size s' = State.size s
      && State.serial s' = State.serial s)

(* ------------------------------------------------------------------ *)
(* Version store ("time machine")                                      *)
(* ------------------------------------------------------------------ *)

let test_version_checkpoint_lineage () =
  let vs = Version_store.create () in
  check (Alcotest.option int_) "no head" None (Version_store.head vs);
  let v0 =
    Version_store.checkpoint vs ~time:0. ~description:"init" ~config_src:"a"
      ~state:State.empty
  in
  let s1 = State.add State.empty (rs "m" "vpc-1" []) in
  let v1 =
    Version_store.checkpoint vs ~time:10. ~description:"add vpc" ~config_src:"b"
      ~state:s1
  in
  check (Alcotest.option int_) "head at v1" (Some v1) (Version_store.head vs);
  let lineage = Version_store.lineage vs v1 in
  check int_ "two versions in lineage" 2 (List.length lineage);
  check int_ "v0 parent of v1" v0
    (Option.get (Option.get (Version_store.find vs v1)).Version_store.parent)

let test_version_diff_and_reset () =
  let vs = Version_store.create () in
  let v0 =
    Version_store.checkpoint vs ~time:0. ~description:"empty" ~config_src:""
      ~state:State.empty
  in
  let s1 = State.add State.empty (rs "m" "vpc-1" []) in
  let v1 =
    Version_store.checkpoint vs ~time:1. ~description:"one" ~config_src:""
      ~state:s1
  in
  (match Version_store.diff_versions vs ~from_id:v0 ~to_id:v1 with
  | Ok d -> check int_ "one added" 1 (List.length d.State.added)
  | Error e -> Alcotest.fail e);
  (match Version_store.reset_head vs v0 with
  | Ok () -> check (Alcotest.option int_) "head moved" (Some v0) (Version_store.head vs)
  | Error e -> Alcotest.fail e);
  match Version_store.reset_head vs 999 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected unknown version error"

let suites =
  [
    ( "state",
      [
        Alcotest.test_case "add/find/remove" `Quick test_add_find_remove;
        Alcotest.test_case "lookup for eval" `Quick test_lookup_for_eval;
        Alcotest.test_case "find by cloud id" `Quick test_find_by_cloud_id;
        Alcotest.test_case "cloud id index maintenance" `Quick
          test_cloud_id_index_maintenance;
        Alcotest.test_case "orphans" `Quick test_orphans;
        Alcotest.test_case "serialization round-trip" `Quick test_serialization_roundtrip;
        Alcotest.test_case "unknowns sanitized" `Quick test_serialization_sanitizes_unknowns;
        Alcotest.test_case "diff" `Quick test_diff;
        QCheck_alcotest.to_alcotest prop_state_roundtrip;
      ] );
    ( "state.versions",
      [
        Alcotest.test_case "checkpoint & lineage" `Quick test_version_checkpoint_lineage;
        Alcotest.test_case "diff & reset" `Quick test_version_diff_and_reset;
      ] );
  ]
