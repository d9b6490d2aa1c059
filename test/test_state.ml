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
    recorded = State.Recorded.of_map (Smap.of_seq (List.to_seq attrs));
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
  | Some row ->
      check bool_ "id present" true (Smap.mem "id" (State.Recorded.map row))
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
    (Value.equal (Value.Vint 3) (Smap.find "count" (State.attrs r)));
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
    (Value.equal Value.Vnull (Smap.find "x" (State.attrs r)))

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

(* ------------------------------------------------------------------ *)
(* The state file codec                                                *)
(* ------------------------------------------------------------------ *)

(* Generators.  Addresses carry module paths, the data mode and int or
   string keys with quotes, brackets, dots and control bytes.  Values
   nest lists and maps, empty ones too, of nulls, unknowns, ints
   (negative ones included), arbitrary finite floats and strings that
   need escaping or hold "${" and control bytes, under keys that are
   not identifiers.  No key is "for": the AST reader, the oracle
   below, takes "{ for" as the start of a for-expression. *)
let ident_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '_' ]) (int_range 1 5))

let text_gen chars n = QCheck.Gen.(string_size ~gen:(oneofl chars) (int_range 0 n))

let addr_gen =
  let open QCheck.Gen in
  let key =
    frequency
      [
        (2, return Addr.Knone);
        (2, map (fun i -> Addr.Kint i) (int_range (-5) 50));
        ( 3,
          map
            (fun s -> Addr.Kstr s)
            (text_gen
               [ 'a'; '"'; ']'; '['; '.'; ' '; '\\'; '\n'; '\t'; '\001'; '\255'; '$'; '{' ]
               5) );
      ]
  in
  map3
    (fun module_path (mode, rtype, rname) key ->
      Addr.make ~module_path ~mode ~rtype ~rname ~key ())
    (list_size (int_range 0 2) ident_gen)
    (triple (frequency [ (4, return Addr.Managed); (1, return Addr.Data) ]) ident_gen ident_gen)
    key

let float_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 1,
        map2
          (fun m e -> float_of_int m *. (10. ** float_of_int e))
          (int_range (-999) 999) (int_range (-8) 3) );
      ( 3,
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 0.5)
          int64 );
      ( 1,
        oneofl
          [ 0.123456789; 12345678.5; 0.1 +. 0.2; -0.; 1e15; 5e-324; Float.max_float ]
      );
    ]

let str_gen =
  text_gen
    [ 'a'; ' '; '"'; '\\'; '\n'; '\t'; '\r'; '$'; '{'; '}'; '%'; '\000'; '\001'; '\127'; '\255' ]
    8

let map_key_gen =
  QCheck.Gen.(
    frequency
      [
        (4, string_size ~gen:(oneofl [ 'a'; 'x'; '_'; '-'; '.'; '"'; ' '; '$'; '{' ]) (int_range 1 4));
        (1, oneofl [ ""; "null"; "true"; "if"; "in"; "1x"; "-a"; "a-b"; "\n"; "\255" ]);
      ])

let value_gen =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      let leaf =
        frequency
          [
            (1, return Value.Vnull);
            (1, return (Value.Vunknown "aws_vpc.a.id"));
            (1, map (fun b -> Value.Vbool b) bool);
            (2, map (fun n -> Value.Vint n) (int_range (-1_000_000) 1_000_000));
            (1, map (fun n -> Value.Vint (if n = min_int then 0 else n)) int);
            (2, map (fun f -> Value.Vfloat f) float_gen);
            (3, map (fun s -> Value.Vstring s) str_gen);
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
                (list_size (int_range 0 3) (pair map_key_gen (self (depth - 1)))) );
          ])
    2

let attrs_gen =
  QCheck.Gen.(
    map
      (fun kvs -> Smap.of_seq (List.to_seq kvs))
      (list_size (int_range 0 4) (pair map_key_gen value_gen)))

let resource_gen =
  QCheck.Gen.map3
    (fun addr (cloud_id, region, attrs) deps ->
      {
        State.addr;
        cloud_id;
        rtype = addr.Addr.rtype;
        region;
        recorded = State.Recorded.of_map attrs;
        deps;
      })
    addr_gen
    (QCheck.Gen.triple str_gen str_gen attrs_gen)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 2) addr_gen)

let outputs_gen = QCheck.Gen.(list_size (int_range 0 2) (pair ident_gen value_gen))

let state_gen =
  let open QCheck.Gen in
  map3
    (fun rs outputs serial ->
      let s = List.fold_left State.add State.empty rs in
      State.with_serial (State.set_outputs s outputs) serial)
    (list_size (int_range 0 6) resource_gen)
    outputs_gen
    (int_range (-5) 10_000)

(* The AST path the state codec replaced, kept as its oracle:
   [Codec.value_to_expr] and the printer for writing, the parser and
   the evaluator for reading. *)
module Oracle = struct
  let rec sanitize (v : Value.t) : Value.t =
    match v with
    | Value.Vunknown _ -> Value.Vnull
    | Value.Vlist vs -> Value.Vlist (List.map sanitize vs)
    | Value.Vmap m -> Value.Vmap (Smap.map sanitize m)
    | v -> v

  let expr v = Codec.value_to_expr (sanitize v)

  let deps_expr deps =
    Ast.mk (Ast.ListLit (List.map (fun d -> Ast.string_lit (Addr.to_string d)) deps))

  let attr aname avalue = { Ast.aname; avalue; aspan = Loc.dummy }

  let block btype labels attrs =
    { Ast.btype; labels; bbody = { Ast.attrs; blocks = [] }; bspan = Loc.dummy }

  let to_string s =
    let row (r : State.resource_state) =
      block "instance" [ Addr.to_string r.addr ]
        [
          attr "cloud_id" (Ast.string_lit r.cloud_id);
          attr "type" (Ast.string_lit r.rtype);
          attr "region" (Ast.string_lit r.region);
          attr "attributes" (expr (Value.Vmap (State.attrs r)));
          attr "depends" (deps_expr r.deps);
        ]
    in
    Printer.config_to_string
      {
        Ast.attrs = [];
        blocks =
          (block "state" [] [ attr "serial" (Ast.mk (Ast.Int (State.serial s))) ]
          :: List.map row (State.resources s))
          @ List.map
              (fun (name, v) -> block "output" [ name ] [ attr "value" (expr v) ])
              (State.outputs s);
      }

  let literal body name =
    match Ast.attr body name with
    | Some e when Ast.is_literal e -> Eval.eval_expr e
    | _ -> failwith ("oracle: no literal " ^ name)

  let address v = Option.get (Addr.of_string (Value.to_string v))

  let of_string src =
    let serial = ref 0 and rows = ref [] and outputs = ref [] in
    Parser.fold ~file:"<oracle>" src
      (fun () -> function
        | Parser.Block { Ast.btype = "state"; bbody; _ } ->
            serial := Value.to_int (literal bbody "serial")
        | Parser.Block { Ast.btype = "instance"; labels = [ label ]; bbody; _ } ->
            let str name = Value.to_string (literal bbody name) in
            rows :=
              {
                State.addr = address (Value.Vstring label);
                cloud_id = str "cloud_id";
                rtype = str "type";
                region = str "region";
                recorded =
                  State.Recorded.of_map
                    (Value.to_map (literal bbody "attributes"));
                deps = List.map address (Value.to_list (literal bbody "depends"));
              }
              :: !rows
        | Parser.Block { Ast.btype = "output"; labels = [ name ]; bbody; _ } ->
            outputs := (name, literal bbody "value") :: !outputs
        | _ -> failwith "oracle: unexpected item")
      ();
    let s = List.fold_left State.add State.empty (List.rev !rows) in
    State.with_serial (State.set_outputs s (List.rev !outputs)) !serial
end

(* Exact equality: constructors as they are and floats bit for bit,
   where [Value.equal] lets 1 equal 1.0. *)
let rec same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Vfloat x, Value.Vfloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Vlist xs, Value.Vlist ys -> List.equal same_value xs ys
  | Value.Vmap x, Value.Vmap y ->
      List.equal
        (fun (k, v) (k', v') -> String.equal k k' && same_value v v')
        (Smap.bindings x) (Smap.bindings y)
  | _ -> a = b

let same_rows ~attrs (a : State.resource_state) (b : State.resource_state) =
  Addr.equal a.addr b.addr && a.cloud_id = b.cloud_id && a.rtype = b.rtype
  && a.region = b.region
  && attrs (Value.Vmap (State.attrs a)) (Value.Vmap (State.attrs b))
  && List.equal Addr.equal a.deps b.deps

let same_state ~values a b =
  State.serial a = State.serial b
  && List.equal (same_rows ~attrs:values) (State.resources a) (State.resources b)
  && List.equal
       (fun (n, v) (n', v') -> n = n' && values v v')
       (State.outputs a) (State.outputs b)

(* Literal text as a person or another tool might write it: comments,
   blank lines, extra blanks, trailing commas and ':' separators
   wherever the grammar allows them, and keys quoted or not. *)
let add_noisy_value rng buf v =
  let pick n = Random.State.int rng n in
  let add = Buffer.add_string buf in
  let gap () =
    add
      (match pick 9 with
      | 0 -> "\n"
      | 1 -> " # c\n  "
      | 2 -> " // c\n"
      | 3 -> "\n\n  "
      | 4 -> " "
      | 5 -> " /* c */ "
      | _ -> "")
  in
  let rec value (v : Value.t) =
    match v with
    | Value.Vlist vs ->
        add "[";
        gap ();
        List.iteri
          (fun i v ->
            if i > 0 then begin
              add ",";
              gap ()
            end;
            value v;
            gap ())
          vs;
        if vs <> [] && pick 2 = 0 then begin
          add ",";
          gap ()
        end;
        add "]"
    | Value.Vmap m ->
        add "{";
        gap ();
        Smap.iter
          (fun k v ->
            if Codec.ident_like k && pick 2 = 0 then add k else Codec.add_string buf k;
            gap ();
            add (if pick 2 = 0 then "=" else ":");
            gap ();
            value v;
            gap ();
            add (match pick 3 with 0 -> "," | 1 -> ",\n" | _ -> "\n");
            gap ())
          m;
        add "}"
    | v -> Codec.add_value buf v
  in
  value v

(* A state file with trivia: [add_noisy_value]'s values, reordered
   attributes, blocks in a shuffled order (or in the writer's, half of
   the time) and one instance repeated under another cloud id. *)
let noisy_state_text seed (s : State.t) =
  let rng = Random.State.make [| seed |] in
  let pick n = Random.State.int rng n in
  let shuffle l =
    List.map (fun x -> (Random.State.bits rng, x)) l
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let blank () =
    add (match pick 5 with 0 -> " " | 1 -> "  \t" | 2 -> " /* c */ " | _ -> "")
  in
  let attribute (name, v) =
    add (match pick 3 with 0 -> "  " | 1 -> "\t" | _ -> "    ");
    add name;
    blank ();
    add "=";
    add (match pick 4 with 0 -> "\n   " | 1 -> " # c\n  " | _ -> " ");
    add_noisy_value rng buf v;
    blank ();
    add (match pick 4 with 0 -> " # trailing\n" | 1 -> " // trailing\n" | _ -> "\n");
    if pick 4 = 0 then add "\n"
  in
  let block btype label attrs =
    if pick 3 = 0 then add "# a comment line\n";
    if pick 3 = 0 then add "\n";
    add btype;
    (match label with
    | Some l ->
        add " ";
        blank ();
        if Codec.ident_like l && pick 2 = 0 then add l else Codec.add_string buf l
    | None -> ());
    blank ();
    add " {";
    add (if pick 3 = 0 then " # open\n" else "\n");
    List.iter attribute (if pick 2 = 0 then shuffle attrs else attrs);
    add (if pick 2 = 0 then "}\n" else "}\n\n")
  in
  let row (r : State.resource_state) =
    block "instance"
      (Some (Addr.to_string r.addr))
      [
        ("cloud_id", Value.Vstring r.cloud_id);
        ("type", Value.Vstring r.rtype);
        ("region", Value.Vstring r.region);
        ("attributes", Value.Vmap (State.attrs r));
        ( "depends",
          Value.Vlist (List.map (fun d -> Value.Vstring (Addr.to_string d)) r.deps) );
      ]
  in
  let rows = State.resources s in
  let items =
    (fun () -> block "state" None [ ("serial", Value.Vint (State.serial s)) ])
    :: List.map (fun r () -> row r) rows
    @ List.map (fun (n, v) () -> block "output" (Some n) [ ("value", v) ]) (State.outputs s)
  in
  let items =
    match rows with
    | [] -> items
    | _ ->
        let r = List.nth rows (pick (List.length rows)) in
        (fun () -> row { r with cloud_id = r.cloud_id ^ "-old" }) :: items
  in
  List.iter (fun item -> item ()) (if pick 2 = 0 then shuffle items else items);
  Buffer.contents buf

let prop_state_roundtrip =
  QCheck.Test.make ~count:300 ~name:"to_string . of_string . to_string fixpoint"
    (QCheck.make state_gen ~print:State.to_string)
    (fun s ->
      let text = State.to_string s in
      let s' = State.of_string text in
      State.to_string s' = text
      && State.size s' = State.size s
      && State.serial s' = State.serial s)

let prop_roundtrip_keeps_values =
  QCheck.Test.make ~count:300 ~name:"of_string . to_string keeps every value"
    (QCheck.make state_gen ~print:State.to_string)
    (fun s ->
      same_state
        ~values:(fun a b -> Value.equal (Oracle.sanitize a) b)
        s
        (State.of_string (State.to_string s)))

let prop_to_string_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"to_string = the AST printer, byte for byte"
    (QCheck.make state_gen ~print:State.to_string)
    (fun s -> State.to_string s = Oracle.to_string s)

let prop_of_string_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"of_string = the AST reader, with trivia"
    (QCheck.make
       QCheck.Gen.(pair state_gen int)
       ~print:(fun (s, seed) -> noisy_state_text seed s))
    (fun (s, seed) ->
      let text = noisy_state_text seed s in
      let plain = State.to_string s in
      same_state ~values:same_value (State.of_string text) (Oracle.of_string text)
      && same_state ~values:same_value (State.of_string plain)
           (Oracle.of_string plain))

(* ------------------------------------------------------------------ *)
(* Carried rows                                                        *)
(* ------------------------------------------------------------------ *)

(* The writer that renders every row, as [State.to_string] did before
   it copied the bytes of decoded rows: the oracle for the one that
   does. *)
module Render = struct
  let add_row buf (r : State.resource_state) =
    Buffer.add_string buf "\ninstance ";
    Codec.add_string buf (Addr.to_string r.addr);
    Buffer.add_string buf " {\n  cloud_id   = ";
    Codec.add_string buf r.cloud_id;
    Buffer.add_string buf "\n  type       = ";
    Codec.add_string buf r.rtype;
    Buffer.add_string buf "\n  region     = ";
    Codec.add_string buf r.region;
    Buffer.add_string buf "\n  attributes = ";
    Codec.add_map buf (State.attrs r);
    Buffer.add_string buf "\n  depends    = [";
    List.iteri
      (fun i d ->
        if i > 0 then Buffer.add_string buf ", ";
        Codec.add_string buf (Addr.to_string d))
      r.deps;
    Buffer.add_string buf "]\n}\n"

  let to_string s =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "state {\n  serial = ";
    Buffer.add_string buf (string_of_int (State.serial s));
    Buffer.add_string buf "\n}\n";
    List.iter (add_row buf) (State.resources s);
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf "\noutput ";
        Codec.add_string buf name;
        Buffer.add_string buf " {\n  value = ";
        Codec.add_value buf v;
        Buffer.add_string buf "\n}\n")
      (State.outputs s);
    Buffer.contents buf
end

(* An edit of a decoded state.  [Remove], [Set_attrs], [Readd] and
   [Add_at] pick a row by index, modulo the row count. *)
type state_edit =
  | Add of State.resource_state
  | Add_at of int * State.resource_state  (** a new record at a row's address *)
  | Remove of int
  | Set_attrs of int * Value.t Smap.t
  | Readd of int  (** the row's own record, added again *)
  | Serial of int
  | Outputs of (string * Value.t) list

let state_edit_gen =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun r -> Add r) resource_gen);
      (1, map2 (fun i r -> Add_at (i, r)) nat resource_gen);
      (2, map (fun i -> Remove i) nat);
      (2, map2 (fun i a -> Set_attrs (i, a)) nat attrs_gen);
      (1, map (fun i -> Readd i) nat);
      (1, map (fun n -> Serial n) (int_range (-5) 10_000));
      (1, map (fun o -> Outputs o) outputs_gen);
    ]

let print_state_edit = function
  | Add r -> "add " ^ Addr.to_string r.addr
  | Add_at (i, _) -> Printf.sprintf "add at row %d" i
  | Remove i -> Printf.sprintf "remove row %d" i
  | Set_attrs (i, _) -> Printf.sprintf "set attributes of row %d" i
  | Readd i -> Printf.sprintf "re-add row %d" i
  | Serial n -> Printf.sprintf "serial %d" n
  | Outputs o -> Printf.sprintf "%d output(s)" (List.length o)

let apply_state_edit s e =
  let nth i k =
    match State.resources s with
    | [] -> s
    | rows -> k (List.nth rows (i mod List.length rows))
  in
  match e with
  | Add r -> State.add s r
  | Add_at (i, r) -> nth i (fun (o : State.resource_state) -> State.add s { r with addr = o.addr })
  | Remove i -> nth i (fun (o : State.resource_state) -> State.remove s o.addr)
  | Set_attrs (i, attrs) ->
      nth i (fun (o : State.resource_state) -> State.update_attrs s o.addr attrs)
  | Readd i -> nth i (State.add s)
  | Serial n -> State.with_serial s n
  | Outputs o -> State.set_outputs s o

let prop_carried_rows_match_render =
  QCheck.Test.make ~count:500
    ~name:"to_string of an edited decoded state = rendering every row"
    (QCheck.make
       QCheck.Gen.(pair state_gen (list_size (int_range 0 8) state_edit_gen))
       ~print:(fun (s, edits) ->
         State.to_string s ^ "\nedits: "
         ^ String.concat "; " (List.map print_state_edit edits)))
    (fun (s, edits) ->
      let decoded = State.of_string (State.to_string s) in
      let edited = List.fold_left apply_state_edit decoded edits in
      State.to_string decoded = Render.to_string decoded
      && State.to_string edited = Render.to_string edited)

(* Row [a] as a person might write it: a comment, other spacing, a
   float with a trailing zero. *)
let hand_written_a =
  {|instance "aws_vpc.a" {
  cloud_id = "vpc-000001"   # kept as written
  type = "aws_vpc"
  region     =   "us-east-1"
  attributes = {
    id     = "vpc-000001"
    weight = 1.50
  }
  depends    = []
}|}

let hand_written =
  "state {\n  serial = 7\n}\n\n" ^ hand_written_a
  ^ "\n\ninstance \"aws_vpc.b\" {\n  cloud_id   = \"vpc-000002\"\n  type       = \"aws_vpc\"\n  region     = \"us-east-1\"\n  attributes = { id = \"vpc-000002\" }\n  depends    = [\"aws_vpc.a\"]\n}\n"

let test_untouched_row_keeps_its_text () =
  let decoded = State.of_string hand_written in
  let a = Addr.make ~rtype:"aws_vpc" ~rname:"a" ()
  and b = Addr.make ~rtype:"aws_vpc" ~rname:"b" () in
  let edited =
    State.update_attrs decoded b
      (Smap.singleton "id" (Value.Vstring "vpc-000002")
      |> Smap.add "tags" (Value.of_assoc [ ("team", Value.Vstring "net") ]))
  in
  let text = State.to_string edited in
  let buf = Buffer.create 256 in
  Render.add_row buf (Option.get (State.find_opt edited b));
  check string_ "row a as read, row b rendered"
    ("state {\n  serial = 8\n}\n\n" ^ hand_written_a ^ "\n" ^ Buffer.contents buf)
    text;
  let row s = Option.get (State.find_opt s a) in
  let reread = State.of_string text in
  check bool_ "row a decodes to the same row" true
    (same_rows ~attrs:same_value (row decoded) (row reread));
  check bool_ "weight reads 1.5" true
    (same_value (Value.Vfloat 1.5) (Smap.find "weight" (State.attrs (row reread))));
  check string_ "an untouched decoded state writes back as read" hand_written
    (State.to_string decoded)

(* The object reader against the fold it replaces.  Keys come from a
   small set so that objects in one read share key sets; an object's
   entries come in ascending key order (as [Codec.add_map] writes
   them), in any order, or with a key repeated.  Each case is the text
   of an object and the map a [Smap.add] fold over its entries gives. *)
let object_gen =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "c"; "d"; "e"; "a-b"; "x y"; "null" ] in
  let key_text k =
    let buf = Buffer.create 8 in
    if Codec.ident_like k then Buffer.add_string buf k else Codec.add_string buf k;
    Buffer.contents buf
  in
  (* a leaf is its text and that text read alone: the property is about
     assembling objects, not about reading each value *)
  let leaf =
    map
      (fun v ->
        let buf = Buffer.create 16 in
        Codec.add_value buf v;
        let text = Buffer.contents buf in
        (text, Codec.read_value ~file:"<leaf>" text))
      value_gen
  in
  fix
    (fun self depth ->
      let entry =
        pair key (if depth = 0 then leaf else frequency [ (4, leaf); (1, self (depth - 1)) ])
      in
      list_size (int_range 0 6) entry >>= fun entries ->
      let by_key (k, _) (k', _) = String.compare k k' in
      (match entries with
      | [] -> return entries
      | (k, v) :: _ ->
          frequency
            [
              (3, return (List.sort_uniq by_key entries));
              (1, return entries);
              (1, return (entries @ [ (k, v) ]));
            ])
      >>= fun entries ->
      oneofl [ ", "; "\n"; " " ] >>= fun sep ->
      oneofl [ " = "; ": "; "=" ] >>= fun eq ->
      let text =
        "{ "
        ^ String.concat sep (List.map (fun (k, (t, _)) -> key_text k ^ eq ^ t) entries)
        ^ " }"
      in
      return
        ( text,
          Value.Vmap
            (List.fold_left (fun m (k, (_, v)) -> Smap.add k v m) Smap.empty entries) ))
    2

let prop_object_reader_is_the_add_fold =
  QCheck.Test.make ~count:500 ~name:"the object reader = Smap.add folds over the entries"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 8) object_gen)
       ~print:(fun objs -> "[" ^ String.concat ",\n" (List.map fst objs) ^ "]"))
    (fun objs ->
      let text = "[" ^ String.concat ",\n" (List.map fst objs) ^ "]" in
      same_value (Value.Vlist (List.map snd objs)) (Codec.read_value ~file:"<objects>" text))

(* One byte replaced (kind 0), inserted (1) or deleted (2) at offset
   [at] (modulo the length), mostly a byte the literal syntax gives a
   meaning to.  The edited-journal property reuses these. *)
let edit_gen =
  QCheck.Gen.(
    triple (int_bound 1_000_000) (int_bound 2)
      (frequency
         [
           ( 3,
             oneofl
               [ '"'; '{'; '}'; '['; ']'; '='; ':'; ','; '\\'; '$'; '#'; '/'; '*'; '<';
                 '-'; '+'; '.'; 'e'; '0'; '9'; 'a'; ' '; '\n'; '\000'; '\255'; '?'; '(' ] );
           (1, char);
         ]))

let apply_edit text (at, kind, c) =
  let n = String.length text in
  let i = if n = 0 then 0 else at mod n in
  let c = String.make 1 c in
  match kind with
  | 0 when n > 0 -> String.sub text 0 i ^ c ^ String.sub text (i + 1) (n - i - 1)
  | 1 -> String.sub text 0 i ^ c ^ String.sub text i (n - i)
  | _ when n > 0 -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | _ -> text

(* A state text with a few bytes replaced, inserted or deleted either
   loads or fails through the typed channel: no other exception
   escapes the reader. *)
let prop_edited_state_fails_typed =
  QCheck.Test.make ~count:1000 ~name:"an edited state loads or fails typed"
    (QCheck.make
       QCheck.Gen.(pair state_gen (list_size (int_range 1 3) edit_gen))
       ~print:(fun (s, edits) -> List.fold_left apply_edit (State.to_string s) edits))
    (fun (s, edits) ->
      match State.of_string (List.fold_left apply_edit (State.to_string s) edits) with
      | _ -> true
      | exception Cloudless_error.Error _ -> true)

let prop_addr_to_string_matches_sprintf =
  QCheck.Test.make ~count:500 ~name:"Addr.to_string = the sprintf rendering"
    (QCheck.make addr_gen ~print:Addr.to_string)
    (fun a ->
      let prefix =
        String.concat "" (List.map (fun m -> "module." ^ m ^ ".") a.Addr.module_path)
      in
      let mode = match a.Addr.mode with Addr.Managed -> "" | Addr.Data -> "data." in
      let key =
        match a.Addr.key with
        | Addr.Knone -> ""
        | Addr.Kint i -> Printf.sprintf "[%d]" i
        | Addr.Kstr s -> Printf.sprintf "[%S]" s
      in
      Addr.to_string a
      = Printf.sprintf "%s%s%s.%s%s" prefix mode a.Addr.rtype a.Addr.rname key)

let test_float_to_string_shortest () =
  List.iter
    (fun (f, text) -> check string_ text text (Value.float_to_string f))
    [
      (0.123456789, "0.123456789");
      (12345678.5, "12345678.5");
      (0.1, "0.1");
      (0.1 +. 0.2, "0.30000000000000004");
      (-2.5, "-2.5");
      (3., "3");
      (1e20, "1e+20");
      (5e-324, "4.94065645841247e-324");
    ]

(* Every number the codec writes reads back: the integers at either
   end of the range, the smallest one's digits alone being past
   [max_int], and every finite float (one with an integral value under
   1e15 reads back as the integer [Value.equal] to it). *)
let prop_numbers_read_back =
  QCheck.Test.make ~count:1000 ~name:"every written number reads back"
    (QCheck.make
       QCheck.Gen.(
         frequency
           [
             (1, oneofl [ Value.Vint min_int; Value.Vint max_int; Value.Vint (min_int + 1) ]);
             (1, map (fun n -> Value.Vint n) int);
             (3, map (fun f -> Value.Vfloat f) float_gen);
           ])
       ~print:(fun v ->
         let buf = Buffer.create 32 in
         Codec.add_value buf v;
         Buffer.contents buf))
    (fun v ->
      let buf = Buffer.create 32 in
      Codec.add_value buf v;
      let back = Codec.read_value ~file:"<number>" (Buffer.contents buf) in
      Value.equal back v
      && match (v, back) with Value.Vint n, Value.Vint m -> n = m | Value.Vint _, _ -> false | _ -> true)

(* Non-integral floats used to print with six significant digits, so a
   config holding one planned a change forever and [fmt] rounded it. *)
let float_config =
  {|resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
  tags       = { weight = 0.123456789, big = 12345678.5 }
}
|}

let test_cli_float_apply_then_plan () =
  let module Cli = Cloudless.Cli in
  let dir = Filename.temp_dir "cloudless_float" "" in
  let file = Filename.concat dir "main.tf" in
  let state_path = Filename.concat dir "state.cls" in
  Cloudless.Io_util.write_file file float_config;
  let out = Buffer.create 256 in
  let io = { Cli.out = Buffer.add_string out; err = Buffer.add_string out } in
  check int_ "apply exits 0" 0 (Cli.apply ~io ~file ~state_path ());
  check int_ "plan exits 0: no change" 0 (Cli.plan ~io ~file ~state_path ());
  Buffer.clear out;
  check int_ "fmt exits 0" 0 (Cli.fmt ~io ~file ~in_place:false ());
  check bool_ "fmt keeps every digit" true
    (Test_fixtures.contains_substring ~sub:"weight = 0.123456789" (Buffer.contents out)
    && Test_fixtures.contains_substring ~sub:"big = 12345678.5" (Buffer.contents out))

(* A float out of range written into a state row by hand, such as
   [zeta = 1e999], used to load as an infinity: the next apply wrote
   [inf] back, and every later command failed on it.  The load refuses
   it at the literal, so the apply exits 1 and leaves the file as it
   was. *)
let test_cli_out_of_range_number () =
  let module Cli = Cloudless.Cli in
  let module Io_util = Cloudless.Io_util in
  let dir = Filename.temp_dir "cloudless_range" "" in
  let file = Filename.concat dir "main.tf" in
  let state_path = Filename.concat dir "state.cls" in
  let config env =
    Printf.sprintf
      "resource \"aws_vpc\" \"main\" {\n\
      \  cidr_block = \"10.0.0.0/16\"\n\
      \  region     = \"us-east-1\"\n\
      \  tags       = { env = \"%s\" }\n\
       }\n"
      env
  in
  let err = Buffer.create 256 in
  let io = { Cli.out = ignore; err = Buffer.add_string err } in
  Io_util.write_file file (config "a");
  check int_ "apply exits 0" 0 (Cli.apply ~io ~file ~state_path ());
  let applied = Io_util.read_file state_path in
  Io_util.write_file file (config "b");
  List.iter
    (fun literal ->
      let edited =
        Test_fixtures.replace_substring applied ~sub:"tags = { env = \"a\" } }"
          ~by:("tags = { env = \"a\" }, zeta = " ^ literal ^ " }")
      in
      Io_util.write_file state_path edited;
      Buffer.clear err;
      check int_ (literal ^ ": apply exits 1") 1 (Cli.apply ~io ~file ~state_path ());
      check string_ (literal ^ ": the state file is unchanged") edited
        (Io_util.read_file state_path);
      check bool_
        (literal ^ ": refused at the literal")
        true
        (Test_fixtures.contains_substring
           ~sub:(Printf.sprintf "number %s is out of range" literal)
           (Buffer.contents err)))
    [ "1e999"; "-1e999" ];
  Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
  Sys.rmdir dir

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
    ( "state.codec",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip_keeps_values;
        QCheck_alcotest.to_alcotest prop_to_string_matches_oracle;
        QCheck_alcotest.to_alcotest prop_of_string_matches_oracle;
        QCheck_alcotest.to_alcotest prop_edited_state_fails_typed;
        QCheck_alcotest.to_alcotest prop_addr_to_string_matches_sprintf;
        QCheck_alcotest.to_alcotest prop_carried_rows_match_render;
        Alcotest.test_case "an untouched row keeps its text" `Quick
          test_untouched_row_keeps_its_text;
        QCheck_alcotest.to_alcotest prop_object_reader_is_the_add_fold;
        Alcotest.test_case "floats print in full" `Quick test_float_to_string_shortest;
        QCheck_alcotest.to_alcotest prop_numbers_read_back;
        Alcotest.test_case "cli: a float config plans no change" `Quick
          test_cli_float_apply_then_plan;
        Alcotest.test_case "cli: an out-of-range number is refused" `Quick
          test_cli_out_of_range_number;
      ] );
    ( "state.versions",
      [
        Alcotest.test_case "checkpoint & lineage" `Quick test_version_checkpoint_lineage;
        Alcotest.test_case "diff & reset" `Quick test_version_diff_and_reset;
      ] );
  ]
