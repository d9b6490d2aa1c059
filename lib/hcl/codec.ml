(** The codec between runtime values and literal HCL text.

    The deployment state and the journal record fully-known values as
    HCL literals, so the whole toolchain shares one syntax.
    {!add_value} prints a value straight into a buffer, byte for byte
    what {!Printer} renders for {!value_to_expr}'s literal tree.
    {!read_value} and {!fold_blocks} read literal data back: [null],
    booleans, numbers with an optional leading [-], strings without
    [${...}], lists, and objects whose keys are identifiers or quoted
    strings, separated by [=] or [:].  Comments, newlines and blanks
    may sit between any two of these.  The reader reuses the lexer's
    scanners on the raw bytes and builds no token, position (except
    for an error), syntax tree or evaluator scope. *)

module Smap = Value.Smap

exception Not_literal of string

(** [value_to_expr v] builds a literal expression rendering [v], for
    the tools that emit whole programs.  Unknown values cannot be
    serialized and raise {!Not_literal}. *)
let rec value_to_expr (v : Value.t) : Ast.expr =
  match v with
  | Value.Vnull -> Ast.mk Ast.Null
  | Value.Vbool b -> Ast.mk (Ast.Bool b)
  | Value.Vint n -> Ast.mk (Ast.Int n)
  | Value.Vfloat f -> Ast.mk (Ast.Float f)
  | Value.Vstring s -> Ast.string_lit s
  | Value.Vlist vs -> Ast.mk (Ast.ListLit (List.map value_to_expr vs))
  | Value.Vmap m ->
      Ast.mk
        (Ast.ObjectLit
           (List.map
              (fun (k, v) -> (Ast.Kident k, value_to_expr v))
              (Smap.bindings m)))
  | Value.Vunknown p -> raise (Not_literal ("unknown value: " ^ p))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(** Whether [s] can stand unquoted as an object key. *)
let ident_like s =
  s <> ""
  && Lexer.is_ident_start s.[0]
  && String.for_all Lexer.is_ident_char s

(** The body of a string literal holding [s]: a quote, a backslash, a
    newline, a tab and a ['$'] that would open an interpolation are
    escaped; every other byte is copied as it is. *)
let add_string_body buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if
      match c with
      | '"' | '\\' | '\n' | '\t' -> true
      | '$' -> i + 1 < n && String.unsafe_get s (i + 1) = '{'
      | _ -> false
    then begin
      Buffer.add_substring buf s !run (i - !run);
      Buffer.add_char buf '\\';
      Buffer.add_char buf (match c with '\n' -> 'n' | '\t' -> 't' | c -> c);
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

(** [s] as a quoted string literal. *)
let add_string buf s =
  Buffer.add_char buf '"';
  add_string_body buf s;
  Buffer.add_char buf '"'

(** [v] as literal text.  An unknown prints as [null]: it never
    reaches a record of what exists. *)
let rec add_value buf (v : Value.t) =
  match v with
  | Value.Vnull | Value.Vunknown _ -> Buffer.add_string buf "null"
  | Value.Vbool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.Vint n -> Buffer.add_string buf (string_of_int n)
  | Value.Vfloat f -> Buffer.add_string buf (Value.float_to_string f)
  | Value.Vstring s -> add_string buf s
  | Value.Vlist vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add_value buf v)
        vs;
      Buffer.add_char buf ']'
  | Value.Vmap m -> add_map buf m

(** [Vmap m] as literal text, without building the [Vmap]. *)
and add_map buf m =
  Buffer.add_string buf "{ ";
  let first = ref true in
  Smap.iter
    (fun k v ->
      if !first then first := false else Buffer.add_string buf ", ";
      if ident_like k then Buffer.add_string buf k else add_string buf k;
      Buffer.add_string buf " = ";
      add_value buf v)
    m;
  Buffer.add_string buf " }"

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

module L = Lexer

(** The span of bytes [first] to [last] of [src], for an error about
    something a reader returned at those offsets. *)
let span ~file src first last =
  let st = L.make ~file src in
  Loc.make ~file ~start_pos:(L.pos_at st first) ~end_pos:(L.pos_at st last)

let describe st off =
  if off >= String.length st.L.src then "end of input"
  else
    match st.L.src.[off] with
    | '\n' -> "newline"
    | c -> Printf.sprintf "%C" c

(* Raise a [syntax/parse-error] for text that is not literal data, at
   offset [off] (through the cursor, if it has moved past [off]).  The
   rest of the input is lexed first, so a lexer error anywhere
   outranks it. *)
let syntax_error st off msg =
  let stop = max st.L.pos (min (off + 1) (String.length st.L.src)) in
  let span = span ~file:st.L.file st.L.src off stop in
  L.drain st;
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Syntax
    ~code:"parse-error" ~span "%s" msg

let expected st what =
  let off = st.L.pos in
  syntax_error st off
    (Printf.sprintf "expected %s but found %s" what (describe st off))

let[@inline] peek st = L.char_at st 0

(* A lone '=', not the '==' or '=>' the lexer reads there. *)
let at_assign st =
  peek st = '=' && L.char_at st 1 <> '=' && L.char_at st 1 <> '>'

(* Trivia and newlines. *)
let rec skip_ws st =
  L.skip_trivia st;
  if (not (L.at_end st)) && String.unsafe_get st.L.src st.L.pos = '\n' then begin
    L.advance st;
    skip_ws st
  end

(* A string literal, cursor on its opening quote.  A string without
   escapes is one [String.sub]; the lexer decodes the others. *)
let string_lit st =
  let src = st.L.src and start = st.L.pos in
  let stop = L.string_run_end src (start + 1) in
  if stop < String.length src && String.unsafe_get src stop = '"' then begin
    L.skip_to st (stop + 1);
    String.sub src (start + 1) (stop - start - 1)
  end
  else begin
    L.advance st;
    match L.lex_string_parts st start with
    | [] -> ""
    | [ Token.Lit s ] -> s
    | _ -> syntax_error st start "string interpolation is not literal data"
  end

(* A number, cursor on its first digit; [neg] when a '-' led it. *)
let number st ~neg =
  match L.lex_number st st.L.pos with
  | Token.INT n -> Value.Vint (if neg then -n else n)
  | Token.FLOAT f -> Value.Vfloat (if neg then -.f else f)
  | _ -> assert false (* the lexer reads digits as INT or FLOAT *)

(* The key set of an object read before: a template for later objects
   with the same keys (see [object_items]).  [keys] are [map]'s keys in
   ascending order. *)
type shape = { keys : string array; map : Value.t Smap.t }

(** The key sets of the objects one reader has met, most recent first:
    a document read by {!fold_blocks} has one, and a caller reading
    many values of one kind with {!read_value} can share one. *)
type shapes = { mutable known : shape list }

let shapes () = { known = [] }

let max_shapes = 8

(* A map whose keys arrived strictly ascending becomes the shape for
   its first key, in place of any other. *)
let remember sh m =
  let keys = Array.make (Smap.cardinal m) "" and i = ref 0 in
  Smap.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    m;
  let rec others n = function
    | s :: rest when n > 0 ->
        if String.equal s.keys.(0) keys.(0) then others n rest
        else s :: others (n - 1) rest
    | _ -> []
  in
  sh.known <- { keys; map = m } :: others (max_shapes - 1) sh.known

(* Whether bytes [i..] of [k] sit at [pos + i..] of [src]. *)
let rec holds_at src pos k i =
  i = String.length k
  || String.unsafe_get src (pos + i) = String.unsafe_get k i
     && holds_at src pos k (i + 1)

(* Whether the text at the cursor is the identifier [k]; if so, the
   cursor moves past it.  Nothing is allocated. *)
let ident_is st k =
  let src = st.L.src and pos = st.L.pos in
  let n = String.length k in
  L.is_ident_start (peek st)
  && L.ident_end src pos = pos + n
  && holds_at src pos k 0
  && begin
       L.skip_to st (pos + n);
       true
     end

let rec value sh st : Value.t =
  let start = st.L.pos in
  match peek st with
  | _ when L.at_end st -> expected st "a literal value"
  | '"' -> Value.Vstring (string_lit st)
  | '[' ->
      L.advance st;
      Value.Vlist (list_items sh st [])
  | '{' ->
      L.advance st;
      Value.Vmap (object_items sh st)
  | '-' when L.is_digit (L.char_at st 1) ->
      L.advance st;
      number st ~neg:true
  | c when L.is_digit c -> number st ~neg:false
  | c when L.is_ident_start c -> (
      match L.lex_ident st with
      | "null" -> Value.Vnull
      | "true" -> Value.Vbool true
      | "false" -> Value.Vbool false
      | name ->
          syntax_error st start
            (Printf.sprintf "%s is not literal data" name))
  | '<' when L.char_at st 1 = '<' ->
      syntax_error st start "a heredoc is not literal data"
  | _ -> expected st "a literal value"

and list_items sh st acc =
  skip_ws st;
  if peek st = ']' then begin
    L.advance st;
    List.rev acc
  end
  else
    let v = value sh st in
    skip_ws st;
    match peek st with
    | ',' ->
        L.advance st;
        list_items sh st (v :: acc)
    | ']' ->
        L.advance st;
        List.rev (v :: acc)
    | _ -> expected st "',' or ']'"

(* The entries of an object, cursor past its opening brace.  Commas
   between entries are optional and a repeated key keeps its last
   value, as in a configuration: the map is the fold of [Smap.add] over
   the entries in source order.  [add_map] writes keys in ascending
   order and a state repeats few key sets, so the fold's path copy per
   key is mostly avoidable: an object whose keys arrive strictly
   ascending is remembered as a shape, and a later object whose first
   key opens a shape reads its keys against the shape's.  When they
   all match, [Smap.map] copies the shape's tree, which the same fold
   built, with the new values: one node per key.  At the first key
   that does not match, the keys read so far are added and the object
   reads on key by key. *)
and object_items sh st =
  skip_ws st;
  match peek st with
  | '}' ->
      L.advance st;
      Smap.empty
  | '"' -> first_entry sh st (string_lit st)
  | c when L.is_ident_start c -> first_entry sh st (L.lex_ident st)
  | _ -> expected st "an object key or '}'"

and first_entry sh st key = with_shape sh st key (entry_value sh st) sh.known

(* Read on against the first of [shapes] that opens with [key]. *)
and with_shape sh st key v = function
  | s :: rest ->
      if String.equal s.keys.(0) key then shaped sh st s v
      else with_shape sh st key v rest
  | [] -> object_rest sh st (Smap.singleton key v) key true

(* The separator after a key, the value and an optional comma. *)
and entry_value sh st =
  skip_ws st;
  if at_assign st || peek st = ':' then L.advance st
  else expected st "'=' or ':'";
  skip_ws st;
  let v = value sh st in
  skip_ws st;
  if peek st = ',' then L.advance st;
  v

(* The rest of an object whose first key is [s]'s, its value [v0]. *)
and shaped sh st s v0 =
  let keys = s.keys in
  let n = Array.length keys in
  let values = Array.make n v0 in
  let rec next j =
    skip_ws st;
    if j = n && peek st = '}' then begin
      L.advance st;
      let i = ref (-1) in
      Smap.map
        (fun _ ->
          incr i;
          values.(!i))
        s.map
    end
    else if j < n && ident_is st keys.(j) then begin
      values.(j) <- entry_value sh st;
      next (j + 1)
    end
    else begin
      let m = ref Smap.empty in
      for i = 0 to j - 1 do
        m := Smap.add keys.(i) values.(i) !m
      done;
      object_rest sh st !m keys.(j - 1) true
    end
  in
  next 1

(* Entries up to the closing brace, key by key, into [m]; [last] is the
   key read last and [ascending] whether every key so far came in
   strictly ascending order. *)
and object_rest sh st m last ascending =
  skip_ws st;
  match peek st with
  | '}' ->
      L.advance st;
      if ascending then remember sh m;
      m
  | '"' -> object_entry sh st m last ascending (string_lit st)
  | c when L.is_ident_start c ->
      object_entry sh st m last ascending (L.lex_ident st)
  | _ -> expected st "an object key or '}'"

and object_entry sh st m last ascending key =
  let m = Smap.add key (entry_value sh st) m in
  object_rest sh st m key (ascending && String.compare last key < 0)

(** Read the one literal value that [src] holds, blanks and comments
    around it allowed, reading its objects against [shapes] (fresh by
    default).  Raises a [syntax/lex-error] on text that does not lex,
    else a [syntax/parse-error] on text that is not literal data. *)
let read_value ?(shapes = shapes ()) ~file src =
  let st = L.make ~file src in
  skip_ws st;
  let v = value shapes st in
  skip_ws st;
  if not (L.at_end st) then expected st "end of input";
  v

(** An attribute of a block: [at] is the byte offset of its name. *)
type attr = { name : string; value : Value.t; at : int }

(** A top-level block: [first] is the byte offset of its type name,
    [last] the offset just past its closing brace. *)
type block = {
  btype : string;
  labels : string list;
  attrs : attr list;  (** in source order *)
  first : int;
  last : int;
}

(* Attributes up to the closing brace, cursor inside the block.  Each
   ends at a newline, the closing brace or the end of input. *)
let rec attrs sh st acc =
  skip_ws st;
  match peek st with
  | '}' ->
      L.advance st;
      List.rev acc
  | c when L.is_ident_start c ->
      let at = st.L.pos in
      let name = L.lex_ident st in
      L.skip_trivia st;
      if at_assign st then L.advance st
      else expected st (Printf.sprintf "'=' after %s" name);
      skip_ws st;
      let value = value sh st in
      L.skip_trivia st;
      if not (L.at_end st || peek st = '\n' || peek st = '}') then
        expected st "a newline after the value";
      attrs sh st ({ name; value; at } :: acc)
  | _ -> expected st "an attribute or '}'"

let rec labels st acc =
  L.skip_trivia st;
  match peek st with
  | '{' ->
      L.advance st;
      List.rev acc
  | '"' -> labels st (string_lit st :: acc)
  | c when L.is_ident_start c -> labels st (L.lex_ident st :: acc)
  | _ -> expected st "a block label or '{'"

(** Fold [f] over the blocks of [src] in source order: a document of
    top-level blocks, [type "label" ... { name = literal ... }], with
    no top-level attribute and no nested block.  The first exception
    [f] raises is held while the rest of the text is read, so a lexer
    error anywhere ([syntax/lex-error]) outranks text that is not
    literal data anywhere ([syntax/parse-error]), which outranks a
    block's own error; after a held error [f] is not called again. *)
let fold_blocks ~file src f init =
  let st = L.make ~file src in
  let sh = shapes () in
  let held = ref None in
  let rec loop acc =
    skip_ws st;
    if L.at_end st then acc
    else if not (L.is_ident_start (peek st)) then expected st "a block"
    else begin
      let first = st.L.pos in
      let btype = L.lex_ident st in
      L.skip_trivia st;
      if peek st = '=' then
        syntax_error st first
          (Printf.sprintf "unexpected attribute %s at top level" btype);
      let labels = labels st [] in
      let attrs = attrs sh st [] in
      let b = { btype; labels; attrs; first; last = st.L.pos } in
      if Option.is_some !held then loop acc
      else
        match f acc b with
        | acc -> loop acc
        | exception e ->
            held := Some (e, Printexc.get_raw_backtrace ());
            loop acc
    end
  in
  let acc = loop init in
  match !held with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> acc
