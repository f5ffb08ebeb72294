(* A Hashtbl, because most operations are point lookups, adds and
   removes, one of each per payload per process; the sorted view is
   built on demand and memoized. (An always-sorted functional map made
   every add/remove pay a log-rebalance plus allocation; the profile
   showed that tax dwarfing the occasional sort.) *)

module Ptbl = Payload.Id_tbl

type stream = {
  mutable contig : int;
      (* every seq <= contig is delivered or held; the walk resumes here,
         so each seq is stepped over at most once per incarnation *)
  mutable maxseen : int;
}

type t = {
  tbl : Payload.t Ptbl.t;
  mutable sorted : Payload.t list option;
      (* exact while [sorted_len] is the table size, a superset after
         removals, stale after an add *)
  mutable sorted_len : int;
  streams : (int * int, stream) Hashtbl.t;
  covered : int Ptbl.t;
  parked : unit Ptbl.t;
}

let create () =
  {
    tbl = Ptbl.create 64;
    sorted = None;
    sorted_len = 0;
    streams = Hashtbl.create 16;
    covered = Ptbl.create 64;
    parked = Ptbl.create 8;
  }

let mem t id = Ptbl.mem t.tbl id
let find_opt t id = Ptbl.find_opt t.tbl id
let count t = Ptbl.length t.tbl

(* Everything below the delivery frontier is covered, so the walk
   starts there at the latest and probes only held ids. *)
let advance t s ~vc ~origin ~boot =
  let rec go c =
    if Ptbl.mem t.tbl { Payload.origin; boot; seq = c + 1 } then go (c + 1)
    else c
  in
  s.contig <- go (max s.contig (Vclock.next_seq vc ~origin ~boot - 1));
  s.contig

let add t ~vc (p : Payload.t) =
  if not (Ptbl.mem t.tbl p.id) then begin
    Ptbl.replace t.tbl p.id p;
    t.sorted <- None;
    let { Payload.origin; boot; seq } = p.id in
    let s =
      match Hashtbl.find t.streams (origin, boot) with
      | s ->
        if seq > s.maxseen then s.maxseen <- seq;
        s
      | exception Not_found ->
        let s = { contig = -1; maxseen = seq } in
        Hashtbl.add t.streams (origin, boot) s;
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

let to_list t =
  let live = Ptbl.length t.tbl in
  match t.sorted with
  | Some l when t.sorted_len = live -> l
  | memo ->
    let l =
      match memo with
      | Some l -> List.filter (fun (p : Payload.t) -> Ptbl.mem t.tbl p.id) l
      | None ->
        Payload.sort_batch (Ptbl.fold (fun _ p acc -> p :: acc) t.tbl [])
    in
    t.sorted <- Some l;
    t.sorted_len <- live;
    l

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
  let l = to_list t in
  if Ptbl.length t.covered = 0 && Ptbl.length t.parked = 0 then l
  else
    List.filter
      (fun (p : Payload.t) ->
        (match Ptbl.find t.covered p.id with
        | j -> j < committed
        | exception Not_found -> true)
        && not (still_parked t ~vc p.id))
      l

let covered_count t = Ptbl.length t.covered
