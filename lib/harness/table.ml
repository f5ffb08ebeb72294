type cell = Int of int | Float of { v : float; dec : int } | Text of string

type t = { title : string; header : string list; rows : cell list list }

let num n = Int n
let flt ?(dec = 2) v = Float { v; dec }
let ratio a b = flt (if b = 0.0 then nan else a /. b)

let with_separators n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + 4) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cell_text = function
  | Int n -> with_separators n
  | Float { v; _ } when Float.is_nan v -> "-"
  | Float { v; dec } -> Printf.sprintf "%.*f" dec v
  | Text s -> s

let check_widths { title; header; rows } =
  let w = List.length header in
  if List.exists (fun r -> List.length r <> w) rows then
    invalid_arg (Printf.sprintf "Table: a row of %S is not %d cells wide" title w)

let print ({ title; header; rows } as t) =
  check_widths t;
  let rows = List.map (List.map cell_text) rows in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map (fun _ -> 0) header)
      (header :: rows)
  in
  let render row =
    List.map2 (fun w s -> s ^ String.make (w - String.length s) ' ') widths row
    |> String.concat "  "
  in
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s\n" (render header);
  Printf.printf "%s\n" (String.make (String.length (render header)) '-');
  List.iter (fun row -> Printf.printf "%s\n" (render row)) rows;
  print_newline ()

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* The shortest %g rendering that reads back as the same float. *)
let json_float v =
  if not (Float.is_finite v) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    go 15

let cell_json = function
  | Int n -> string_of_int n
  | Float { v; _ } -> json_float v
  | Text s -> json_string s

let to_json ({ title; header; rows } as t) =
  check_widths t;
  let list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]" in
  Printf.sprintf {|{"title": %s, "header": %s, "rows": %s}|} (json_string title)
    (list json_string header)
    (list (list cell_json) rows)
