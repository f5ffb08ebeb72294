module Durable = Abcast_store.Durable
module Wal = Abcast_store.Wal
module Histogram = Abcast_util.Histogram

type wal_state = {
  wal : Wal.t;
  mutable last : Wal.stats;
  h_appends : Metrics.handle;
  h_writes : Metrics.handle;
  h_fsyncs : Metrics.handle;
  h_segments : Metrics.handle;
  h_compactions : Metrics.handle;
  h_recovered : Metrics.handle;
  h_torn : Metrics.handle;
}

(* One key->value map per store: the memory backend's table, or the
   WAL's live map, which every read goes to. *)
type backend = Memory of (string, string) Hashtbl.t | Logged of wal_state

type t = {
  backend : backend;
  metrics : Metrics.t;
  node : int;
  prefix : string;
      (* key prefix stamped on every access through this view; [""] for
         the root store. Sharded stacks give each broadcast group a view
         prefixed ["g<id>/"], so one WAL holds group-tagged records for
         every group and recovers them all in one pass. *)
  layer_handles : (string, Metrics.handle * Metrics.handle) Hashtbl.t;
      (* layer -> (log_ops.<layer>, log_bytes.<layer>) — interned so the
         per-write accounting stops concatenating and hashing full names *)
}

(* ---- wal_* counter mirror ----

   [Wal] cannot depend on [Metrics] (the dependency runs the other way),
   so it keeps plain counters and the storage layer forwards the deltas
   after every operation that can move them. [segments] is a gauge, but
   adding signed deltas keeps the metric equal to its current value. *)

let sync_wal_metrics w =
  let s = Wal.stats w.wal in
  let last = w.last in
  if s.appends <> last.appends then
    Metrics.hadd w.h_appends (s.appends - last.appends);
  if s.writes <> last.writes then Metrics.hadd w.h_writes (s.writes - last.writes);
  if s.fsyncs <> last.fsyncs then Metrics.hadd w.h_fsyncs (s.fsyncs - last.fsyncs);
  if s.segments <> last.segments then
    Metrics.hadd w.h_segments (s.segments - last.segments);
  if s.compactions <> last.compactions then
    Metrics.hadd w.h_compactions (s.compactions - last.compactions);
  if s.recovered_records <> last.recovered_records then
    Metrics.hadd w.h_recovered (s.recovered_records - last.recovered_records);
  if s.torn_records <> last.torn_records then
    Metrics.hadd w.h_torn (s.torn_records - last.torn_records);
  w.last <- s

let wal_state ~metrics ~node wal =
  let h name = Metrics.handle metrics ~node name in
  let zero =
    {
      Wal.appends = 0;
      writes = 0;
      fsyncs = 0;
      segments = 0;
      compactions = 0;
      recovered_records = 0;
      torn_records = 0;
    }
  in
  let w =
    {
      wal;
      last = zero;
      h_appends = h "wal_appends";
      h_writes = h "wal_writes";
      h_fsyncs = h "wal_fsyncs";
      h_segments = h "wal_segments";
      h_compactions = h "wal_compactions";
      h_recovered = h "wal_recovered_records";
      h_torn = h "wal_torn_records";
    }
  in
  sync_wal_metrics w;
  w

let create ?dir ?(fsync = Durable.Every { ops = 64; ms = 20 })
    ?(flight = Flight.disabled)
    ?(flight_now = fun () -> int_of_float (Unix.gettimeofday () *. 1e6))
    ~metrics ~node () =
  let backend =
    match dir with
    | None -> Memory (Hashtbl.create 32)
    | Some d ->
      (* Route the WAL's timing tap into the latency histograms before
         the wal exists — [open_] itself reports the `Recover sample. *)
      let h_append = Metrics.hist metrics ~node "wal_append_us"
      and h_fsync = Metrics.hist metrics ~node "wal_fsync_us"
      and h_recover = Metrics.hist metrics ~node "wal_recover_us" in
      (* The flight tap mirrors the histogram one: WAL appends/fsyncs
         land in the node's black box with their duration, so the doctor
         can attribute fsync stalls to the broadcasts they delayed. *)
      let fl stage us =
        if Flight.enabled flight then
          Flight.record flight ~time:(flight_now ()) ~node ~group:0 ~boot:0
            ~stage ~trace:0 ~a:(int_of_float us) ~b:0
      in
      let on_io op us =
        match op with
        | `Append ->
          Histogram.add h_append us;
          fl Flight.wal_append us
        | `Fsync ->
          Histogram.add h_fsync us;
          fl Flight.wal_fsync us
        | `Recover -> Histogram.add h_recover us
      in
      let t0 = Unix.gettimeofday () in
      let wal = Wal.open_ ~fsync ~on_io ~dir:d () in
      (* Recovery-timeline instrumentation: how much the boot replayed
         from stable storage and how long it took. The flight event puts
         the replay on the same clock as the protocol's own recovery
         stages, so the doctor can render a boot-to-caught-up timeline
         per node. *)
      let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      let records = Wal.length wal in
      Metrics.add metrics ~node "recovery_replay_records" records;
      Metrics.add metrics ~node "recovery_replay_bytes"
        (Wal.fold wal
           (fun key value acc -> acc + String.length key + String.length value)
           0);
      Metrics.add metrics ~node "recovery_replay_us" us;
      if Flight.enabled flight then
        Flight.record flight ~time:(flight_now ()) ~node ~group:0 ~boot:0
          ~stage:Flight.replay ~trace:0 ~a:records ~b:us;
      Logged (wal_state ~metrics ~node wal)
  in
  { backend; metrics; node; prefix = ""; layer_handles = Hashtbl.create 4 }

(* A scoped view shares everything — backend, pacer, metric
   handles — and only rewrites keys. [sync]/[close]/[wipe]/[wal_stats]
   and the byte accounting remain whole-store operations: one physical
   log backs every view. *)
let scoped t ~prefix = { t with prefix = t.prefix ^ prefix }

let scope t = t.prefix
let full_key t key = if t.prefix = "" then key else t.prefix ^ key

let account t ~layer bytes =
  let ops, byt =
    match Hashtbl.find_opt t.layer_handles layer with
    | Some h -> h
    | None ->
      let h =
        ( Metrics.handle t.metrics ~node:t.node ("log_ops." ^ layer),
          Metrics.handle t.metrics ~node:t.node ("log_bytes." ^ layer) )
      in
      Hashtbl.add t.layer_handles layer h;
      h
  in
  Metrics.hincr ops;
  Metrics.hadd byt bytes

let write t ~layer ~key v =
  let key = full_key t key in
  account t ~layer (String.length v);
  match t.backend with
  | Memory tbl -> Hashtbl.replace tbl key v
  | Logged w ->
    Wal.put w.wal key v;
    sync_wal_metrics w

let read t key =
  let key = full_key t key in
  match t.backend with
  | Memory tbl -> Hashtbl.find_opt tbl key
  | Logged w -> Wal.find w.wal key

let mem t key = Option.is_some (read t key)

let length t =
  match t.backend with
  | Memory tbl -> Hashtbl.length tbl
  | Logged w -> Wal.length w.wal

let fold t f acc =
  match t.backend with
  | Memory tbl -> Hashtbl.fold f tbl acc
  | Logged w -> Wal.fold w.wal f acc

let delete t ~layer key =
  if mem t key then begin
    account t ~layer 0;
    let key = full_key t key in
    match t.backend with
    | Memory tbl -> Hashtbl.remove tbl key
    | Logged w ->
      Wal.delete w.wal key;
      sync_wal_metrics w
  end

let delete_range t ~layer ~lo ~hi =
  let lo = full_key t lo and hi = full_key t hi in
  let before = length t in
  (match t.backend with
  | Memory tbl ->
    Hashtbl.filter_map_inplace
      (fun k v ->
        if String.compare k lo >= 0 && String.compare k hi < 0 then None
        else Some v)
      tbl
  | Logged w ->
    Wal.delete_range w.wal ~lo ~hi;
    sync_wal_metrics w);
  if length t < before then account t ~layer 0

let keys_with_prefix t prefix =
  let prefix = full_key t prefix in
  let plen = String.length prefix in
  let skip = String.length t.prefix in
  fold t
    (fun k _ acc ->
      if String.length k >= plen && String.sub k 0 plen = prefix then
        (* return keys in the view's namespace, so a scoped reader can
           feed them straight back into [read]/[delete] *)
        String.sub k skip (String.length k - skip) :: acc
      else acc)
    []
  |> List.sort compare

let retained_bytes t = fold t (fun _ v acc -> acc + String.length v) 0

let retained_keys = length

let flush t =
  match t.backend with
  | Logged w when Wal.pending w.wal > 0 ->
    Wal.flush w.wal;
    sync_wal_metrics w
  | _ -> ()

let on_wal t f =
  match t.backend with
  | Memory _ -> ()
  | Logged w ->
    f w.wal;
    sync_wal_metrics w

let sync t = on_wal t Wal.sync

let close t = on_wal t Wal.close

let set_wal_failpoint t point = on_wal t (fun w -> Wal.set_failpoint w point)

let wal_stats t =
  match t.backend with Memory _ -> None | Logged w -> Some (Wal.stats w.wal)

let disk_bytes t =
  match t.backend with Memory _ -> 0 | Logged w -> Wal.disk_bytes w.wal

let wipe t =
  match t.backend with
  | Memory tbl -> Hashtbl.reset tbl
  | Logged w ->
    Wal.wipe w.wal;
    sync_wal_metrics w

let encode v = Marshal.to_string v []

let decode s = Marshal.from_string s 0

module Slot = struct
  type 'a slot = {
    store : t;
    layer : string;
    key : string;
    enc : 'a -> string;
    dec : string -> 'a option;
  }

  let make ~codec:(enc, dec) store ~layer ~key = { store; layer; key; enc; dec }

  let set slot v = write slot.store ~layer:slot.layer ~key:slot.key (slot.enc v)

  let get slot =
    match read slot.store slot.key with
    | None -> None
    | Some s -> slot.dec s

  let clear slot = delete slot.store ~layer:slot.layer slot.key
end
