type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of int * string (* byte position, message *)

let fail pos msg = raise (Parse_error (pos, msg))

type state = { src : string; mutable pos : int }

let peek st = if st.pos >= String.length st.src then '\255' else st.src.[st.pos]

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  if peek st <> c then
    fail st.pos (Printf.sprintf "expected %C, found %C" c (peek st))
  else advance st

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

(* UTF-8-encode one \uXXXX code point.  Surrogate pairs are not
   recombined — the writer below only escapes ASCII control characters,
   so lone escapes below U+0800 are the realistic input. *)
let add_codepoint buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | '\255' -> fail st.pos "unterminated string"
    | '"' -> advance st
    | '\\' ->
      advance st;
      (match peek st with
      | '"' -> Buffer.add_char buf '"'; advance st
      | '\\' -> Buffer.add_char buf '\\'; advance st
      | '/' -> Buffer.add_char buf '/'; advance st
      | 'b' -> Buffer.add_char buf '\b'; advance st
      | 'f' -> Buffer.add_char buf '\012'; advance st
      | 'n' -> Buffer.add_char buf '\n'; advance st
      | 'r' -> Buffer.add_char buf '\r'; advance st
      | 't' -> Buffer.add_char buf '\t'; advance st
      | 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then
          fail st.pos "truncated \\u escape";
        let hex = String.sub st.src st.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some cp -> add_codepoint buf cp
        | None -> fail st.pos (Printf.sprintf "bad \\u escape %S" hex));
        st.pos <- st.pos + 4
      | c -> fail st.pos (Printf.sprintf "bad escape \\%C" c));
      loop ()
    | c when Char.code c < 0x20 -> fail st.pos "raw control byte in string"
    | c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let digits () =
    while match peek st with '0' .. '9' -> true | _ -> false do
      advance st
    done
  in
  if peek st = '-' then advance st;
  digits ();
  if peek st = '.' then begin advance st; digits () end;
  (match peek st with
  | 'e' | 'E' ->
    advance st;
    (match peek st with '+' | '-' -> advance st | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> Num v
  | None -> fail start (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | '{' ->
    advance st;
    skip_ws st;
    if peek st = '}' then begin advance st; Obj [] end
    else begin
      let members = ref [] in
      let rec next () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        members := (key, v) :: !members;
        skip_ws st;
        match peek st with
        | ',' -> advance st; next ()
        | '}' -> advance st
        | c -> fail st.pos (Printf.sprintf "expected ',' or '}', found %C" c)
      in
      next ();
      Obj (List.rev !members)
    end
  | '[' ->
    advance st;
    skip_ws st;
    if peek st = ']' then begin advance st; Arr [] end
    else begin
      let items = ref [] in
      let rec next () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | ',' -> advance st; next ()
        | ']' -> advance st
        | c -> fail st.pos (Printf.sprintf "expected ',' or ']', found %C" c)
      in
      next ();
      Arr (List.rev !items)
    end
  | '"' -> Str (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st.pos (Printf.sprintf "unexpected %C" c)

let line_of_pos src pos =
  let line = ref 1 in
  for i = 0 to min pos (String.length src) - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

let parse ~context src =
  let st = { src; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then
      fail st.pos "trailing bytes after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
    Error (Fault.bad_input ~line:(line_of_pos src pos) ~context msg)
  | exception Stack_overflow ->
    Error (Fault.bad_input ~context "JSON nesting too deep")

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_list = function Arr items -> Some items | _ -> None

let to_float = function
  | Num v -> Some v
  | Str s -> float_of_string_opt s
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let int n = Num (float_of_int n)

(* ---- Writer ---- *)

(* RFC 8259 string escaping: the quote, the backslash and the control
   bytes below 0x20; every other byte (UTF-8 included) is copied. *)
let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest of %.15g/%.16g/%.17g that reads back to the same float
   (%.17g always does), so integral values print as integers. *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    let s15 = Printf.sprintf "%.15g" v in
    if float_of_string s15 = v then s15
    else
      let s16 = Printf.sprintf "%.16g" v in
      if float_of_string s16 = v then s16 else Printf.sprintf "%.17g" v

let is_scalar = function Arr _ | Obj _ -> false | _ -> true

let to_string v =
  let buf = Buffer.create 4096 in
  (* One item per line, indented two spaces past the enclosing line. *)
  let block indent opening closing write_item items =
    Buffer.add_char buf opening;
    List.iteri
      (fun i item ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf indent;
        Buffer.add_string buf "  ";
        write_item item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf indent;
    Buffer.add_char buf closing
  in
  let rec write indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num v -> Buffer.add_string buf (number v)
    | Str s -> add_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | Arr items when List.for_all is_scalar items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          write indent item)
        items;
      Buffer.add_char buf ']'
    | Arr items -> block indent '[' ']' (write (indent ^ "  ")) items
    | Obj members ->
      block indent '{' '}'
        (fun (key, v) ->
          add_string buf key;
          Buffer.add_string buf ": ";
          write (indent ^ "  ") v)
        members
  in
  write "" v;
  Buffer.contents buf

let save path v =
  Fault.protect ~context:path (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (to_string v);
          output_char oc '\n'))
