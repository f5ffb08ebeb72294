(* A Hashtbl, because most operations are point lookups, adds and
   removes, one of each per payload per process. Identity order is read
   off the stream records by walking each stream's seqs, so nothing is
   sorted and nothing is memoized. *)

module Ptbl = Payload.Id_tbl

type stream = {
  mutable low : int;
      (* no seq below it is held: [add] lowers it, the walk raises it to
         the lowest held seq *)
  mutable contig : int;
      (* every seq <= contig is delivered or held; the scan resumes here,
         so each seq is stepped over at most once per incarnation *)
  mutable maxseen : int;
}

type t = {
  tbl : Payload.t Ptbl.t;
  streams : (int * int, stream) Hashtbl.t;
  mutable order : (int * int * stream) list;
      (* the same records, by descending (origin, boot) *)
  covered : int Ptbl.t;
  parked : unit Ptbl.t;
}

let create () =
  {
    tbl = Ptbl.create 64;
    streams = Hashtbl.create 16;
    order = [];
    covered = Ptbl.create 64;
    parked = Ptbl.create 8;
  }

let mem t id = Ptbl.mem t.tbl id
let find_opt t id = Ptbl.find_opt t.tbl id
let count t = Ptbl.length t.tbl

(* Everything below the delivery frontier is covered, so the scan
   starts there at the latest and probes only held ids. *)
let advance t s ~vc ~origin ~boot =
  let rec go c =
    if Ptbl.mem t.tbl { Payload.origin; boot; seq = c + 1 } then go (c + 1)
    else c
  in
  s.contig <- go (max s.contig (Vclock.next_seq vc ~origin ~boot - 1));
  s.contig

(* Streams are created rarely (one per origin incarnation), so a list
   insertion keeps [order] sorted. *)
let rec insert ((o, b, _) as e) = function
  | ((o', b', _) as e') :: rest when o' > o || (o' = o && b' > b) ->
    e' :: insert e rest
  | l -> e :: l

let add t ~vc (p : Payload.t) =
  if not (Ptbl.mem t.tbl p.id) then begin
    Ptbl.replace t.tbl p.id p;
    let { Payload.origin; boot; seq } = p.id in
    let s =
      match Hashtbl.find t.streams (origin, boot) with
      | s ->
        if seq > s.maxseen then s.maxseen <- seq;
        if seq < s.low then s.low <- seq;
        s
      | exception Not_found ->
        let s = { low = seq; contig = -1; maxseen = seq } in
        Hashtbl.add t.streams (origin, boot) s;
        t.order <- insert (origin, boot, s) t.order;
        s
    in
    ignore (advance t s ~vc ~origin ~boot)
  end

let remove t id =
  Ptbl.remove t.tbl id;
  Ptbl.remove t.covered id;
  Ptbl.remove t.parked id

let drop_if t f =
  Ptbl.filter_map_inplace (fun id p -> if f id then None else Some p) t.tbl;
  Ptbl.filter_map_inplace (fun id j -> if f id then None else Some j) t.covered;
  Ptbl.filter_map_inplace (fun id () -> if f id then None else Some ()) t.parked

(* Every held id lies in its stream's [low .. maxseen]. Streams are
   walked by descending (origin, boot) and each from [maxseen] down,
   consing, so the held payloads [keep] accepts come out in ascending
   identity order. *)
let walk t keep =
  List.fold_left
    (fun acc (origin, boot, s) ->
      let low = s.low in
      let rec go seq lowest acc =
        if seq < low then begin
          s.low <- lowest;
          acc
        end
        else
          match Ptbl.find t.tbl { Payload.origin; boot; seq } with
          | p -> go (seq - 1) seq (if keep p then p :: acc else acc)
          | exception Not_found -> go (seq - 1) lowest acc
      in
      go s.maxseen (s.maxseen + 1) acc)
    [] t.order

let to_list t = walk t (fun _ -> true)

(* O(streams) per gossip tick instead of a fold over the set; a peer
   that pulls an advertised but since-delivered seq gets no reply and
   obtains it through its own commits or a state transfer. *)
let summary t =
  Hashtbl.fold
    (fun (origin, boot) s acc -> (origin, boot, s.maxseen) :: acc)
    t.streams []

(* The watermark jumps each stream's scan past its contiguous
   delivered-or-held prefix, leaving only genuine holes to probe. *)
let missing t ~vc ~cap summary =
  let budget = ref cap in
  List.fold_left
    (fun acc (origin, boot, smax) ->
      let rec collect s acc =
        if s > smax || !budget = 0 then acc
        else
          let id = { Payload.origin; boot; seq = s } in
          if Ptbl.mem t.tbl id then collect (s + 1) acc
          else begin
            decr budget;
            collect (s + 1) (id :: acc)
          end
      in
      let w =
        match Hashtbl.find t.streams (origin, boot) with
        | s -> advance t s ~vc ~origin ~boot
        | exception Not_found -> Vclock.next_seq vc ~origin ~boot - 1
      in
      collect (w + 1) acc)
    [] summary

let cover t j id = Ptbl.replace t.covered id j

let park t id = if Ptbl.mem t.tbl id then Ptbl.replace t.parked id ()

(* A parked id stays out until its stream's watermark reaches its
   predecessor; it then leaves the parked table for good, since the
   watermark never moves back. *)
let still_parked t ~vc ({ Payload.origin; boot; seq } as id) =
  Ptbl.mem t.parked id
  && begin
       let s = Hashtbl.find t.streams (origin, boot) in
       let blocked = advance t s ~vc ~origin ~boot < seq - 1 in
       if not blocked then Ptbl.remove t.parked id;
       blocked
     end

let uncovered t ~vc ~committed =
  walk t (fun (p : Payload.t) ->
      (match Ptbl.find t.covered p.id with
      | j -> j < committed
      | exception Not_found -> true)
      && not (still_parked t ~vc p.id))

let covered_count t = Ptbl.length t.covered
