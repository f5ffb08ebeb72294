module Smap = Map.Make (String)
module Wire = Abcast_util.Wire

type state = string Smap.t

type cmd =
  | Set of string * string
  | Del of string
  | Get of string
  | Incr of string

(* Commands cross processes inside broadcast payloads, so they get a
   total Wire codec: one tag byte, then the key (and value for [Set]). *)
let write_cmd w = function
  | Set (k, v) ->
    Wire.write_u8 w 0;
    Wire.write_string w k;
    Wire.write_string w v
  | Del k ->
    Wire.write_u8 w 1;
    Wire.write_string w k
  | Get k ->
    Wire.write_u8 w 2;
    Wire.write_string w k
  | Incr k ->
    Wire.write_u8 w 3;
    Wire.write_string w k

let read_cmd r =
  match Wire.read_u8 r with
  | 0 ->
    let k = Wire.read_string r in
    Set (k, Wire.read_string r)
  | 1 -> Del (Wire.read_string r)
  | 2 -> Get (Wire.read_string r)
  | 3 -> Incr (Wire.read_string r)
  | t -> Wire.error "kv: bad command tag %d" t

let encode_cmd c = Wire.to_string write_cmd c

let set_cmd ~key ~value = encode_cmd (Set (key, value))

let del_cmd ~key = encode_cmd (Del key)

let get_cmd ~key = encode_cmd (Get key)

let incr_cmd ~key = encode_cmd (Incr key)

let decode_cmd data = Wire.of_string_opt read_cmd data

let cmd_key = function Set (k, _) -> k | Del k -> k | Get k -> k | Incr k -> k

(* Counter cells created by [Incr] store decimal strings; a non-numeric
   value under the key restarts the count deterministically at 0. *)
let int_of_cell = function
  | None -> 0
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)

let eval state data =
  match decode_cmd data with
  | Some (Set (k, v)) -> (Smap.add k v state, "")
  | Some (Del k) -> (Smap.remove k state, "")
  | Some (Get k) -> (state, Option.value (Smap.find_opt k state) ~default:"")
  | Some (Incr k) ->
    let n = int_of_cell (Smap.find_opt k state) + 1 in
    (Smap.add k (string_of_int n) state, string_of_int n)
  | None -> (state, "") (* foreign command: ignore deterministically *)

module Machine = struct
  type nonrec state = state

  let name = "kv"

  let initial = Smap.empty

  let apply state data = fst (eval state data)
end

(* Wire codec of the store contents for service-layer checkpoints:
   sorted bindings, so equal states encode to equal bytes on every
   replica. *)
let write_state w (s : state) =
  Wire.write_list
    (fun w (k, v) ->
      Wire.write_string w k;
      Wire.write_string w v)
    w (Smap.bindings s)

let read_state r =
  Wire.read_list
    (fun r ->
      let k = Wire.read_string r in
      let v = Wire.read_string r in
      (k, v))
    r
  |> List.fold_left (fun acc (k, v) -> Smap.add k v acc) Smap.empty

module Replica = Smr.Make (Machine)

let get state k = Smap.find_opt k state

let bindings state = Smap.bindings state

let size state = Smap.cardinal state

let digest state =
  Smap.fold (fun k v acc -> Hashtbl.hash (acc, k, v)) state 0 |> string_of_int
