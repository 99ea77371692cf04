type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float_or_string f =
  if Float.is_finite f then Float f
  else if f = infinity then String "inf"
  else if f = neg_infinity then String "-inf"
  else String "nan"

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let s = Printf.sprintf "%.6g" f in
    Buffer.add_string buf s;
    (* keep it a JSON number that reads back as a float *)
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  end

(* The one walker behind both layouts. The pretty one puts every
   element of a non-empty list or object on its own line, indented two
   spaces per level, and a space after each field colon; the compact
   one adds no whitespace at all. *)
let render ~pretty t =
  let buf = Buffer.create 256 in
  let quoted s =
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  in
  let newline depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | String s -> quoted s
    | List items -> seq depth '[' ']' (go (depth + 1)) items
    | Obj fields ->
      seq depth '{' '}'
        (fun (name, value) ->
          quoted name;
          Buffer.add_string buf (if pretty then ": " else ":");
          go (depth + 1) value)
        fields
  and seq : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
   fun depth opening closing item elements ->
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        newline (depth + 1);
        item x)
      elements;
    (match elements with [] -> () | _ -> newline depth);
    Buffer.add_char buf closing
  in
  go 0 t;
  Buffer.contents buf

let to_string t = render ~pretty:false t
let to_string_pretty t = render ~pretty:true t

(* ------------------------------------------------------------- parsing *)

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

(* Recursive-descent parser over a string with an explicit cursor.
   Depth of real documents here is tiny (BENCH.json nests 4 deep);
   [max_depth] only guards against pathological inputs whose recursion
   would otherwise blow the stack. *)
let max_depth = 1000

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail !pos (Printf.sprintf "expected %C, got %C" c got)
    | None -> fail !pos (Printf.sprintf "expected %C, got end of input" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v =
      match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
      | Some v -> v
      | None -> fail !pos "invalid \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | None -> fail !pos "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let code = hex4 () in
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* High surrogate: must pair with a low one. *)
              if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                pos := !pos + 2;
                let low = hex4 () in
                if low < 0xDC00 || low > 0xDFFF then fail !pos "unpaired surrogate";
                add_utf8 buf
                  (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
              end
              else fail !pos "unpaired surrogate"
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              fail !pos "unpaired surrogate"
            else add_utf8 buf code
          | c -> fail (!pos - 1) (Printf.sprintf "invalid escape \\%C" c)));
        go ()
      | c when Char.code c < 0x20 -> fail !pos "unescaped control character"
      | c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail !pos "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  (* Containers recurse through [parse_value]; a depth cap keeps
     adversarial inputs like ["[[[[..."] from overflowing the stack. *)
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let name = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((name, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((name, value) :: acc)
          | _ -> fail !pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let value = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> fail !pos "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail !pos "trailing content after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)
  | exception Failure msg -> Error (Printf.sprintf "JSON parse error: %s" msg)
