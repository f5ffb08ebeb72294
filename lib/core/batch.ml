module Wire = Abcast_util.Wire

let rec write_payloads w = function
  | [] -> ()
  | (p : Payload.t) :: rest ->
    Payload.write w p;
    write_payloads w rest

(* Encode through one module-level scratch writer: it keeps its
   high-water-mark allocation across calls, so a proposal costs one
   output-string allocation and zero growth copies once warm. Safe
   because encoding is atomic (payload codecs never call back into
   [encode]) and the stack is single-domain. *)
let scratch = Wire.writer ~cap:4096 ()

let encode_into payloads : Abcast_consensus.Consensus_intf.value =
  Wire.clear scratch;
  Wire.write_uvarint scratch (List.length payloads);
  write_payloads scratch payloads;
  Wire.contents scratch

(* For unsorted input, walk the compacted sorted array straight into the
   writer — no list rebuild between sort and encode. *)
let encode payloads : Abcast_consensus.Consensus_intf.value =
  if Payload.sorted_distinct payloads then encode_into payloads
  else begin
    let arr, m = Payload.sorted_array payloads in
    Wire.clear scratch;
    Wire.write_uvarint scratch m;
    for i = 0 to m - 1 do
      Payload.write scratch (Array.unsafe_get arr i)
    done;
    Wire.contents scratch
  end

(* Bounded variant for adaptive batching: the batch is the whole sorted
   backlog, cut at a payload boundary once the encoded bodies exceed
   [max_bytes]. Bodies go through a second scratch writer so the count
   prefix (whose varint width depends on how many payloads survive the
   cut) can be written first in the final assembly. The cut keeps the
   identity-sorted prefix, so every stream's messages below the cut form
   a contiguous prefix — exactly the shape [Agreed] can append without
   gaps when proposer and applier share the same delivered state. At
   least one payload is always included (a single oversized payload must
   still be deliverable). *)
let body_scratch = Wire.writer ~cap:4096 ()

let encode_sorted_bounded ~max_bytes payloads =
  Wire.clear body_scratch;
  let rec go n acc = function
    | [] -> (n, List.rev acc, [])
    | (p : Payload.t) :: rest ->
      let mark = Wire.length body_scratch in
      Payload.write body_scratch p;
      if n > 0 && Wire.length body_scratch > max_bytes then begin
        Wire.truncate body_scratch mark;
        (n, List.rev acc, p :: rest)
      end
      else go (n + 1) (p :: acc) rest
  in
  let n, included, excluded = go 0 [] payloads in
  Wire.clear scratch;
  Wire.write_uvarint scratch n;
  Wire.append_writer scratch ~src:body_scratch;
  (Wire.contents scratch, included, excluded)

let decode value : Payload.t list =
  Wire.of_string_exn Payload.read_list value

let decode_opt value : Payload.t list option =
  Wire.of_string_opt Payload.read_list value

let size = String.length
