module Stream_map = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type t = int Stream_map.t

let empty = Stream_map.empty

let contains t (id : Payload.id) =
  match Stream_map.find_opt (id.origin, id.boot) t with
  | Some s -> id.seq <= s
  | None -> false

let fits t (id : Payload.id) =
  id.seq = Stream_map.(
    match find_opt (id.origin, id.boot) t with Some s -> s + 1 | None -> 0)

let add t (id : Payload.id) =
  let key = (id.origin, id.boot) in
  let expected =
    match Stream_map.find_opt key t with Some s -> s + 1 | None -> 0
  in
  if id.seq <> expected then
    invalid_arg
      (Format.asprintf "Vclock.add: %a breaks FIFO (expected seq %d)"
         Payload.pp_id id expected);
  Stream_map.add key id.seq t

let next_seq t ~origin ~boot =
  match Stream_map.find_opt (origin, boot) t with
  | Some s -> s + 1
  | None -> 0

let streams t = Stream_map.bindings t

let of_streams l =
  List.fold_left (fun m ((o, b), s) -> Stream_map.add (o, b) s m) empty l

module Wire = Abcast_util.Wire

let write w t =
  Wire.write_list
    (fun w ((o, b), s) ->
      Wire.write_varint w o;
      Wire.write_varint w b;
      Wire.write_varint w s)
    w (streams t)

let read r =
  Wire.read_list
    (fun r ->
      let o = Wire.read_varint r in
      let b = Wire.read_varint r in
      let s = Wire.read_varint r in
      ((o, b), s))
    r
  |> of_streams
