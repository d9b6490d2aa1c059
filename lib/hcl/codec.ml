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
    for an error), syntax tree or evaluator scope.

    One checker passes text laid out exactly as the writer writes it
    ({!canonical_value}, {!check_object}), which is literal data that
    reads without error.  An object it passes can be left unread and
    read later, whole ({!read_object}) or one entry at a time
    ({!read_entry}), or compared with values from its text alone
    ({!object_holds}).  Any other text is read by the reader, which
    reports its errors. *)

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

(* Byte [i] of [src] is [c]. *)
let[@inline] byte src i c = i < String.length src && String.unsafe_get src i = c

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

(* A number, cursor on its first digit; [start] is the offset of the
   '-' that led it, if one did.  The sign is read with the digits, so
   the smallest integer, whose digits alone are past [max_int], reads
   back.  A float out of range, such as [1e999], is refused: it would
   read as an infinity, which is not literal data. *)
let rec number st ~start =
  let src = st.L.src and first = st.L.pos in
  let stop = L.number_end src first in
  L.skip_to st stop;
  let text = String.sub src start (stop - start) in
  (* past the leading digits: a fraction or an exponent *)
  if stop > L.digits_end src first then
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> Value.Vfloat f
    | Some _ -> L.error st start (Printf.sprintf "number %s is out of range" text)
    | None -> invalid_number st first
  else
    match int_of_string_opt text with
    | Some n -> Value.Vint n
    | None -> invalid_number st first

and invalid_number st first =
  L.error st first
    (Printf.sprintf "invalid number %S" (String.sub st.L.src first (st.L.pos - first)))

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

(* Whether bytes [start..stop) of [src] are [w]. *)
let is_word src start stop w =
  stop - start = String.length w && holds_at src start w 0

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

(* The separators [add_map] writes, [" = "] after a key and [", "]
   after a value, are passed in one step, which moves the cursor as the
   general path does. *)

(* Past the separator after an object key and the blanks after it. *)
let separator st =
  let src = st.L.src and pos = st.L.pos in
  if byte src pos ' ' && byte src (pos + 1) '=' && byte src (pos + 2) ' ' then
    L.skip_to st (pos + 3)
  else begin
    skip_ws st;
    if at_assign st || peek st = ':' then L.advance st
    else expected st "'=' or ':'"
  end;
  skip_ws st

(* Past the blanks and the optional comma after an entry's value. *)
let after_value st =
  let src = st.L.src and pos = st.L.pos in
  if byte src pos ',' && byte src (pos + 1) ' ' then L.skip_to st (pos + 2)
  else begin
    skip_ws st;
    if peek st = ',' then L.advance st
  end

(* [w] at byte [pos] of [src], as a whole word or number: the offset
   past it, or -1.  [stop] is the end of the token there. *)
let word_at src pos w ~stop =
  let len = String.length w in
  if stop = pos + len && holds_at src pos w 0 then stop else -1

(* Two bytes, [a] then [b], at byte [i]: the offset past them, or -1. *)
let[@inline] pair src i a b = if byte src i a && byte src (i + 1) b then i + 2 else -1

(* Whether the text at byte [pos] of [src] is [v] as {!add_value}
   writes it: the offset just past it, or -1.  Nothing is allocated
   except the digits of a number. *)
let rec match_literal src pos (v : Value.t) =
  match v with
  | Value.Vnull -> word_at src pos "null" ~stop:(L.ident_end src pos)
  | Value.Vbool b ->
      word_at src pos (if b then "true" else "false") ~stop:(L.ident_end src pos)
  | Value.Vint i -> match_number src pos (string_of_int i)
  | Value.Vfloat f -> match_number src pos (Value.float_to_string f)
  | Value.Vstring s ->
      if byte src pos '"' then match_string_body src (pos + 1) s else -1
  | Value.Vlist vs ->
      if byte src pos '[' then match_items src (pos + 1) vs ~first:true else -1
  | Value.Vmap m ->
      let i = pair src pos '{' ' ' in
      if i < 0 then -1
      else
        let i =
          Smap.fold
            (fun k v i ->
              if i < 0 then -1
              else
                let i = if i = pos + 2 then i else pair src i ',' ' ' in
                let i =
                  if i < 0 then -1
                  else if ident_like k then
                    if i + String.length k <= String.length src && holds_at src i k 0
                    then i + String.length k
                    else -1
                  else if byte src i '"' then match_string_body src (i + 1) k
                  else -1
                in
                let i = if i < 0 then -1 else pair src i ' ' '=' in
                if i >= 0 && byte src i ' ' then match_literal src (i + 1) v else -1)
            m i
        in
        if i < 0 then -1 else pair src i ' ' '}'
  | Value.Vunknown _ -> -1

and match_number src pos digits =
  let first = if byte src pos '-' then pos + 1 else pos in
  if pos + String.length digits <= String.length src then
    word_at src pos digits ~stop:(L.number_end src first)
  else -1

and match_items src i vs ~first =
  match vs with
  | [] -> if byte src i ']' then i + 1 else -1
  | v :: rest ->
      let i = if first then i else pair src i ',' ' ' in
      if i < 0 then -1
      else
        let i = match_literal src i v in
        if i < 0 then -1 else match_items src i rest ~first:false

(* The body of a string literal holding [s] as {!add_string_body}
   writes it, at byte [pos] of [src], and the closing quote: the offset
   just past the quote, or -1. *)
and match_string_body src pos s = match_string_from src pos s 0

(* [match_string_body] from byte [i] of [src] and byte [j] of [s]. *)
and match_string_from src i s j =
  let n = String.length src in
  if j = String.length s then if byte src i '"' then i + 1 else -1
  else if i >= n then -1
  else
    let c = String.unsafe_get s j in
    let escaped =
      match c with
      | '"' | '\\' | '\n' | '\t' -> true
      | '$' -> j + 1 < String.length s && String.unsafe_get s (j + 1) = '{'
      | _ -> false
    in
    if escaped then
      if
        String.unsafe_get src i = '\\'
        && i + 1 < n
        && String.unsafe_get src (i + 1)
           = (match c with '\n' -> 'n' | '\t' -> 't' | c -> c)
      then match_string_from src (i + 2) s (j + 1)
      else -1
    else if String.unsafe_get src i = c then match_string_from src (i + 1) s (j + 1)
    else -1

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
      number st ~start
  | c when L.is_digit c -> number st ~start
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
  separator st;
  let v = value sh st in
  after_value st;
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

(* ------------------------------------------------------------------ *)
(* Objects read on demand                                              *)
(* ------------------------------------------------------------------ *)

(** An object that {!check_object} passed and left unread: the offset
    of its opening brace, and of each entry's key in source order.
    The functions below read it; the text is literal data, so they
    raise nothing. *)
type unread = { brace : int; keys : int array }

let cursor src pos =
  let st = L.make ~file:"" src in
  st.L.pos <- pos;
  st

(** The object [u] of [src], read against [shapes]: the map
    {!read_value} builds. *)
let read_object ~shapes src u =
  let st = cursor src (u.brace + 1) in
  object_items shapes st

(* The offset just past the key at byte [off] of [src] if the key is
   [k], else -1.  Only a quoted key with escapes allocates. *)
let key_end src off k =
  let len = String.length k in
  if String.unsafe_get src off = '"' then begin
    let stop = L.string_run_end src (off + 1) in
    if byte src stop '"' then if is_word src (off + 1) stop k then stop + 1 else -1
    else
      let st = cursor src off in
      if String.equal (string_lit st) k then st.L.pos else -1
  end
  else if
    (* an identifier: a first byte that differs decides *)
    len > 0
    && String.unsafe_get src off = String.unsafe_get k 0
    && off + len <= String.length src
    && holds_at src off k 0
    && L.ident_end src (off + len) = off + len
  then off + len
  else -1

(* The offset of the value of the last entry [k] among [keys] (the one
   {!read_object} keeps) from index [i] down, or -1: past the key and
   the [" = "] after it. *)
let rec value_from src keys k i =
  if i < 0 then -1
  else
    let stop = key_end src keys.(i) k in
    if stop >= 0 then stop + 3 else value_from src keys k (i - 1)

let value_at src u k = value_from src u.keys k (Array.length u.keys - 1)

(** Entry [k] of the object [u] of [src], read against [shapes]
    without reading the other entries. *)
let read_entry ~shapes src u k =
  let pos = value_at src u k in
  if pos < 0 then None else Some (value shapes (cursor src pos))

(** Whether the object [u] of [src] holds every binding of [m], judged
    from its text alone: [Some false] when some key has no entry, else
    [Some true] when the last entry of each key is written as
    {!add_value} writes the binding's value, and [None] when some
    entry's text differs from that writing (a different value, or the
    same value written otherwise: only reading it tells which). *)
let object_holds src u m =
  (* 0: every entry written as its value so far; 1: some written
     otherwise; 2: some key missing *)
  let verdict =
    Smap.fold
      (fun k v verdict ->
        if verdict = 2 then 2
        else
          let pos = value_at src u k in
          if pos < 0 then 2
          else if match_literal src pos v < 0 then 1
          else verdict)
      m 0
  in
  match verdict with 0 -> Some true | 2 -> Some false | _ -> None

(** {!object_holds} for the one binding of [k] to the string [s]. *)
let entry_is_string src u k s =
  let pos = value_at src u k in
  if pos < 0 then Some false
  else if byte src pos '"' && match_string_body src (pos + 1) s >= 0 then
    Some true
  else None

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

(** Scratch space for the keys of the objects one reader checks. *)
type checker = {
  mutable offsets : int array;
  mutable n : int;  (** keys of the object being checked *)
  mutable stop : int;  (** the offset just past it *)
  key : int -> unit;  (** records a key's offset *)
}

let checker () =
  let rec c =
    {
      offsets = Array.make 16 0;
      n = 0;
      stop = 0;
      key =
        (fun off ->
          if c.n = Array.length c.offsets then
            c.offsets <- Array.append c.offsets (Array.make c.n 0);
          c.offsets.(c.n) <- off;
          c.n <- c.n + 1);
    }
  in
  c

(* [string_end] from byte [i], past the opening quote or an escape. *)
let rec string_from src i =
  let stop = L.string_run_end src i in
  if byte src stop '"' then stop + 1
  else if byte src stop '\\' && stop + 1 < String.length src then
    match String.unsafe_get src (stop + 1) with
    | 'n' | 't' | 'r' | '"' | '\\' | '$' -> string_from src (stop + 2)
    | _ -> -1
  else -1

(** The offset just past the string literal at byte [i] of [src] if it
    is literal data (no interpolation, no newline, only escapes the
    lexer reads), as {!add_string} writes strings; else -1. *)
let string_end src i = if byte src i '"' then string_from src (i + 1) else -1

(** The contents of the string literal at byte [i] of [src], which
    {!string_end} passed and which ends just before [stop]: [like]
    itself, not a copy, when they are [like]'s bytes. *)
let string_at ~like src i stop =
  let last = stop - 1 in
  if L.string_run_end src (i + 1) < last then string_lit (cursor src i)
  else if is_word src (i + 1) last like then like
  else String.sub src (i + 1) (last - i - 1)

(** The end of the value at byte [i] of [src] when it is written as
    {!add_value} writes values, else -1: strings as {!string_end}
    passes them, and numbers that read back (a finite float whose
    fraction and exponent have digits, an integer of at most 18 digits
    or one [int_of_string] reads with its sign).  Such text is literal data,
    which the reader reads without error.  [canonical_object] calls
    [key] with the offset of each of its keys. *)
let rec canonical_value src i =
  if i >= String.length src then -1
  else
    match String.unsafe_get src i with
    | '"' -> string_end src i
    | '[' -> if byte src (i + 1) ']' then i + 2 else canonical_items src (i + 1)
    | '{' -> canonical_object src i ~key:ignore
    | '-' | '0' .. '9' -> canonical_number src i
    | 'n' -> word_at src i "null" ~stop:(L.ident_end src i)
    | 't' -> word_at src i "true" ~stop:(L.ident_end src i)
    | 'f' -> word_at src i "false" ~stop:(L.ident_end src i)
    | _ -> -1

and canonical_number src i =
  let first = if byte src i '-' then i + 1 else i in
  let digits = L.digits_end src first in
  let stop = L.number_end src first in
  if digits = first then -1
  else if stop > digits then
    if
      L.is_digit (String.unsafe_get src (stop - 1))
      && (match float_of_string_opt (String.sub src i (stop - i)) with
         | Some f -> Float.is_finite f
         | None -> false)
    then stop
    else -1
  else if digits - first <= 18 || Option.is_some (int_of_string_opt (String.sub src i (stop - i)))
  then stop
  else -1

and canonical_items src i =
  let stop = canonical_value src i in
  if stop < 0 then -1
  else if byte src stop ']' then stop + 1
  else
    let next = pair src stop ',' ' ' in
    if next < 0 then -1 else canonical_items src next

and canonical_object src i ~key =
  if not (byte src i '{' && byte src (i + 1) ' ') then -1
  else if byte src (i + 2) ' ' && byte src (i + 3) '}' then i + 4
  else canonical_entry src (i + 2) ~key

and canonical_entry src i ~key =
  let key_end =
    if byte src i '"' then string_end src i
    else if i < String.length src && L.is_ident_start (String.unsafe_get src i) then
      L.ident_end src i
    else -1
  in
  if key_end < 0 || pair src key_end ' ' '=' < 0 || not (byte src (key_end + 2) ' ') then -1
  else begin
    key i;
    let stop = canonical_value src (key_end + 3) in
    if stop < 0 then -1
    else if byte src stop ' ' && byte src (stop + 1) '}' then stop + 2
    else
      let next = pair src stop ',' ' ' in
      if next < 0 then -1 else canonical_entry src next ~key
  end

(** The object whose opening brace is byte [brace] of [src], left
    unread, if it is written as {!add_map} writes it (see
    {!canonical_value}); the offset just past it is then
    {!checked_end}.  [None] for any other text. *)
let check_object c src brace =
  c.n <- 0;
  let stop = canonical_object src brace ~key:c.key in
  if stop < 0 then None
  else begin
    c.stop <- stop;
    Some { brace; keys = Array.sub c.offsets 0 c.n }
  end

let checked_end c = c.stop

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
