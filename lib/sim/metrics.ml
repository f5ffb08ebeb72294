module Histogram = Abcast_util.Histogram

(* A series cell is its log-bucketed histogram and nothing else: every
   reader (means, percentiles, exporters) works from bucket counts and
   the exact count/sum/min/max, so a cell's size does not grow with the
   number of samples it has seen. *)

type t = {
  scope : string;
      (* name prefix stamped on every counter/series registered through
         this view; [""] for the root registry. Sharded stacks hand each
         group a view scoped to ["g<id>/"] so one registry holds all
         groups' series side by side. *)
  counters : (int * string, int ref) Hashtbl.t;
  series : (int * string, Histogram.t) Hashtbl.t;
}

let create () =
  { scope = ""; counters = Hashtbl.create 64; series = Hashtbl.create 16 }

let scoped t prefix = { t with scope = t.scope ^ prefix }
let scope t = t.scope

(* Group scoping convention: a series registered through a view scoped
   with {!scoped} [(group_prefix g)] is stored under ["g<g>/<name>"].
   Readers below treat the group prefix as a label, not part of the
   identity: querying ["lat_deliver"] aggregates every group's series,
   querying ["g2/lat_deliver"] reads exactly one. *)

let group_prefix g = "g" ^ string_of_int g ^ "/"

let split_group n =
  let len = String.length n in
  if len > 2 && n.[0] = 'g' then begin
    let i = ref 1 in
    while !i < len && n.[!i] >= '0' && n.[!i] <= '9' do
      incr i
    done;
    if !i > 1 && !i < len && n.[!i] = '/' then
      (int_of_string (String.sub n 1 (!i - 1)),
       String.sub n (!i + 1) (len - !i - 1))
    else (0, n)
  end
  else (0, n)

let base_name n = snd (split_group n)
let matches ~query n = String.equal n query || String.equal (base_name n) query
let full t name = if t.scope = "" then name else t.scope ^ name

let counter t node name =
  let name = full t name in
  match Hashtbl.find_opt t.counters (node, name) with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters (node, name) r;
    r

let incr t ~node name = Stdlib.incr (counter t node name)

let add t ~node name v =
  let r = counter t node name in
  r := !r + v

(* Interned counter handles: the per-event hot paths (engine transmit,
   protocol dispatch, storage accounting) resolve their counters once and
   then bump a bare ref — no (node, name) tuple allocation, no string
   hashing per event. *)

type handle = int ref

let handle t ~node name = counter t node name

let hincr (h : handle) = Stdlib.incr h

let hadd (h : handle) v = h := !h + v

let hget (h : handle) = !h

let get t ~node name =
  match Hashtbl.find_opt t.counters (node, full t name) with
  | Some r -> !r
  | None -> 0

let sum t name =
  let query = full t name in
  Hashtbl.fold
    (fun (_, n) r acc -> if matches ~query n then acc + !r else acc)
    t.counters 0

let has_prefix ~prefix s =
  String.equal prefix s
  || (String.length s > String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
      && s.[String.length prefix] = '.')

let sum_prefix t prefix =
  let prefix = full t prefix in
  Hashtbl.fold
    (fun (_, n) r acc ->
      if has_prefix ~prefix n || has_prefix ~prefix (base_name n) then
        acc + !r
      else acc)
    t.counters 0

let cell t node name =
  let name = full t name in
  match Hashtbl.find_opt t.series (node, name) with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add t.series (node, name) h;
    h

let observe t ~node name v = Histogram.add (cell t node name) v

(* Interned series, the [observe] analogue of counter [handle]s:
   per-message paths resolve the cell once and then [Histogram.add]
   without the (node, name) tuple allocation and string hashing. *)
let hist t ~node name = cell t node name

let histogram t name =
  let query = full t name in
  let acc = Histogram.create () in
  let found = ref false in
  Hashtbl.iter
    (fun (_, n) h ->
      if matches ~query n then begin
        found := true;
        Histogram.merge_into ~dst:acc h
      end)
    t.series;
  if !found then Some acc else None

let hist_summary t name = Option.map Histogram.summary (histogram t name)

(* The scalar readers merge every node's cell of the series; [nan] marks
   a series with no samples. *)
let read t name ~empty f =
  match histogram t name with
  | Some h when Histogram.count h > 0 -> f h
  | _ -> empty

let count_samples t name = read t name ~empty:0 Histogram.count
let mean t name = read t name ~empty:nan Histogram.mean

let percentile t name p =
  read t name ~empty:nan (fun h -> Histogram.percentile h p)

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, Histogram.copy h) :: acc) t.series []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let series_names t =
  Hashtbl.fold (fun (_, n) _ acc -> n :: acc) t.series []
  |> List.sort_uniq compare

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort compare

(* Reset zeroes every cell *in place* rather than dropping the tables:
   interned handles and histogram references resolved before the reset
   stay attached to live storage, so post-reset increments remain
   visible through [get]/[sum] (this used to silently count into dead
   refs). *)
let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter (fun _ h -> Histogram.clear h) t.series
