module Wire = Abcast_util.Wire

(* Bytes budget for one proposal's payload bodies (the adaptive batch is
   the whole backlog, cut at this bound) and for one ring message. *)
let max_bytes = 24_000

let encode payloads : Abcast_consensus.Consensus_intf.value =
  Wire.to_string ~cap:1024 (Wire.write_list Payload.write)
    (Payload.sort_batch payloads)

(* A proposer's two writers keep their high-water-mark allocation across
   calls, so a proposal costs one output-string allocation and zero
   growth copies once warm. Bodies go to [body] so the count prefix
   (whose varint width depends on how many payloads survive the cut)
   can be written first in the final assembly in [out]. *)
type writers = { out : Wire.writer; body : Wire.writer }

let writers () = { out = Wire.writer ~cap:4096 (); body = Wire.writer ~cap:4096 () }

(* Bounded variant for adaptive batching: the batch is the whole sorted
   backlog, cut at a payload boundary once the encoded bodies exceed
   [max_bytes]. The cut keeps the identity-sorted prefix, so every
   stream's messages below the cut form a contiguous prefix — exactly
   the shape [Agreed] can append without gaps when proposer and applier
   share the same delivered state. At least one payload is always
   included (a single oversized payload must still be deliverable). *)
let encode_sorted_bounded { out; body } ~max_bytes payloads =
  Wire.clear body;
  let rec go n acc = function
    | [] -> (n, List.rev acc)
    | (p : Payload.t) :: rest ->
      let mark = Wire.length body in
      Payload.write body p;
      if n > 0 && Wire.length body > max_bytes then begin
        Wire.truncate body mark;
        (n, List.rev acc)
      end
      else go (n + 1) (p :: acc) rest
  in
  let n, included = go 0 [] payloads in
  Wire.clear out;
  Wire.write_uvarint out n;
  Wire.append_writer out ~src:body;
  (Wire.contents out, included)

let decode value : Payload.t list =
  Wire.of_string_exn Payload.read_list value

let decode_opt value : Payload.t list option =
  Wire.of_string_opt Payload.read_list value

let size = String.length
