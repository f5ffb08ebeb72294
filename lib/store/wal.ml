module Wire = Abcast_util.Wire

exception Injected_crash of string

type stats = {
  appends : int;
  writes : int;
  fsyncs : int;
  segments : int;
  compactions : int;
  recovered_records : int;
  torn_records : int;
}

type io_op = [ `Append | `Fsync | `Recover ]

type t = {
  dir : string;
  segment_bytes : int;
  compact_min_bytes : int;
  auto_compact : bool;
  pacer : Durable.pacer;
  (* optional wall-clock timing tap: called with each operation's
     duration in µs. The store layer feeds these into latency
     histograms; [None] (the default) costs nothing — not even a
     gettimeofday. Wal cannot depend on the sim Metrics module (the
     dependency points the other way), hence a callback. *)
  on_io : (io_op -> float -> unit) option;
  (* live map: key -> (value, framed record size on disk). The record
     size is what compaction would pay to rewrite the binding; summed it
     gives [live_bytes], the live fraction of the on-disk log. *)
  live : (string, string * int) Hashtbl.t;
  body : Wire.writer; (* scratch: record body *)
  tail : Wire.writer; (* framed records appended since the last flush *)
  snap : Wire.writer; (* compaction output, written at once *)
  mutable fd : Unix.file_descr;
  mutable seg_seq : int; (* sequence number of the current segment *)
  mutable seg_size : int; (* bytes in the current segment *)
  mutable sealed : (int * string) list; (* older segments, ascending seq *)
  mutable total_bytes : int; (* bytes across all segments *)
  mutable live_bytes : int;
  mutable closed : bool;
  mutable appends : int;
  mutable writes : int;
  mutable fsyncs : int;
  mutable compactions : int;
  mutable recovered : int;
  mutable torn : int;
  mutable failpoint : string option; (* test-only crash injection *)
}

let check_failpoint t name =
  match t.failpoint with
  | Some n when String.equal n name -> raise (Injected_crash name)
  | _ -> ()

let set_failpoint t point = t.failpoint <- point

(* ---- segment naming ---- *)

let seg_name seq = Printf.sprintf "wal-%010d.log" seq

let seg_path t seq = Filename.concat t.dir (seg_name seq)

let seq_of_name name =
  if
    String.length name = 18
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 10)
  else None

(* ---- record framing ---- *)

let tag_put = 0
let tag_delete = 1
let tag_reset = 2
let tag_range = 3

(* [key] and [value] are [lo] and [hi] for a Range record. *)
let encode_body t tag key value =
  Wire.clear t.body;
  Wire.write_u8 t.body tag;
  if tag <> tag_reset then Wire.write_string t.body key;
  if tag = tag_put || tag = tag_range then Wire.write_string t.body value

(* Append the frame of the current body to [w]; returns its length. *)
let frame_into t w =
  let start = Wire.length w in
  let blen = Wire.length t.body in
  Wire.write_uvarint w blen;
  Wire.append_writer w ~src:t.body;
  let crc = Crc32.bytes (Wire.unsafe_bytes t.body) ~off:0 ~len:blen in
  Wire.write_u8 w crc;
  Wire.write_u8 w (crc lsr 8);
  Wire.write_u8 w (crc lsr 16);
  Wire.write_u8 w (crc lsr 24);
  Wire.length w - start

(* Write the tail to the segment with one write call. The OS can tear
   it anywhere; the CRCs catch the tear and replay keeps the whole
   records before it. *)
let flush t =
  let len = Wire.length t.tail in
  if len > 0 then begin
    (match t.on_io with
    | None -> Durable.write_all t.fd (Wire.unsafe_bytes t.tail) 0 len
    | Some f ->
      let t0 = Unix.gettimeofday () in
      Durable.write_all t.fd (Wire.unsafe_bytes t.tail) 0 len;
      f `Append ((Unix.gettimeofday () -. t0) *. 1e6));
    Wire.clear t.tail;
    t.writes <- t.writes + 1
  end

let pending t = Wire.length t.tail

let do_fsync t =
  flush t;
  (match t.on_io with
  | None -> Durable.fsync_fd t.fd
  | Some f ->
    let t0 = Unix.gettimeofday () in
    Durable.fsync_fd t.fd;
    f `Fsync ((Unix.gettimeofday () -. t0) *. 1e6));
  t.fsyncs <- t.fsyncs + 1;
  Durable.note_sync t.pacer

let open_segment t seq =
  let fd =
    Unix.openfile (seg_path t seq)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  t.fd <- fd;
  t.seg_seq <- seq

let roll t =
  (* Seal the full segment: write its tail and sync it (unless the
     policy forbids spending fsyncs at all) so sealed segments are
     settled history, then start the next one. *)
  flush t;
  if Durable.policy t.pacer <> Durable.Never then do_fsync t;
  Unix.close t.fd;
  t.sealed <- t.sealed @ [ (t.seg_seq, seg_path t t.seg_seq) ];
  open_segment t (t.seg_seq + 1);
  t.seg_size <- 0

let check_open t op = if t.closed then invalid_arg ("Wal." ^ op ^ ": closed")

(* Append the already-encoded body as one record to the tail; returns
   the framed size. The fsync pacing still counts records: a due fsync
   writes the tail first. *)
let append t =
  let flen = frame_into t t.tail in
  t.seg_size <- t.seg_size + flen;
  t.total_bytes <- t.total_bytes + flen;
  t.appends <- t.appends + 1;
  if Durable.note_op t.pacer then do_fsync t;
  if t.seg_size >= t.segment_bytes then roll t;
  flen

(* ---- compaction ---- *)

let dead_bytes t = t.total_bytes - t.live_bytes

let compact t =
  check_open t "compact";
  flush t;
  let snap_seq = t.seg_seq + 1 in
  let snap_path = seg_path t snap_seq in
  let tmp = snap_path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let snap_size = ref 0 in
  let live_size = ref 0 in
  let emit tag key value =
    encode_body t tag key value;
    let flen = frame_into t t.snap in
    snap_size := !snap_size + flen;
    flen
  in
  Wire.clear t.snap;
  ignore (emit tag_reset "" "");
  Hashtbl.iter
    (fun key (value, _) -> live_size := !live_size + emit tag_put key value)
    t.live;
  Durable.write_all fd (Wire.unsafe_bytes t.snap) 0 !snap_size;
  t.writes <- t.writes + 1;
  Durable.fsync_fd fd;
  t.fsyncs <- t.fsyncs + 1;
  Unix.close fd;
  check_failpoint t "compact-before-rename";
  Sys.rename tmp snap_path;
  Durable.fsync_dir t.dir;
  check_failpoint t "compact-after-rename";
  (* The snapshot is durable and, thanks to its leading Reset record,
     replay-dominant over everything older: stale segments can now go,
     in any order, crash or no crash. *)
  Unix.close t.fd;
  List.iter
    (fun (_, path) -> try Sys.remove path with Sys_error _ -> ())
    t.sealed;
  (try Sys.remove (seg_path t t.seg_seq) with Sys_error _ -> ());
  Durable.fsync_dir t.dir;
  t.sealed <- [];
  t.seg_size <- !snap_size;
  t.total_bytes <- !snap_size;
  t.live_bytes <- !live_size;
  (* per-binding framed sizes are unchanged (same encoder), so the live
     table needs no touch-up *)
  open_segment t snap_seq;
  t.compactions <- t.compactions + 1;
  Durable.note_sync t.pacer

(* Due once the dead bytes pass [compact_min_bytes] and half the
   on-disk log. *)
let maybe_compact t =
  if
    t.auto_compact
    && dead_bytes t >= t.compact_min_bytes
    && 2 * dead_bytes t >= max 1 t.total_bytes
  then compact t

(* ---- public mutators ---- *)

let put t key value =
  check_open t "put";
  encode_body t tag_put key value;
  let flen = append t in
  (match Hashtbl.find_opt t.live key with
  | Some (_, old) -> t.live_bytes <- t.live_bytes - old
  | None -> ());
  Hashtbl.replace t.live key (value, flen);
  t.live_bytes <- t.live_bytes + flen;
  maybe_compact t

let delete t key =
  check_open t "delete";
  match Hashtbl.find_opt t.live key with
  | None -> ()
  | Some (_, old) ->
    encode_body t tag_delete key "";
    ignore (append t);
    Hashtbl.remove t.live key;
    t.live_bytes <- t.live_bytes - old;
    maybe_compact t

(* Drop every live key in [\[lo, hi)]; the writer and the replay share
   it, so both end at the same map. Returns whether a key went. *)
let remove_range t ~lo ~hi =
  let before = Hashtbl.length t.live in
  Hashtbl.filter_map_inplace
    (fun key ((_, flen) as b) ->
      if String.compare key lo >= 0 && String.compare key hi < 0 then begin
        t.live_bytes <- t.live_bytes - flen;
        None
      end
      else Some b)
    t.live;
  Hashtbl.length t.live < before

let delete_range t ~lo ~hi =
  check_open t "delete_range";
  if remove_range t ~lo ~hi then begin
    encode_body t tag_range lo hi;
    ignore (append t);
    maybe_compact t
  end

let find t key =
  match Hashtbl.find_opt t.live key with
  | Some (v, _) -> Some v
  | None -> None

let mem t key = Hashtbl.mem t.live key

let length t = Hashtbl.length t.live

let fold t f acc =
  Hashtbl.fold (fun key (value, _) acc -> f key value acc) t.live acc

let sync t =
  check_open t "sync";
  do_fsync t

let close t =
  if not t.closed then begin
    flush t;
    Durable.fsync_fd t.fd;
    t.fsyncs <- t.fsyncs + 1;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.closed <- true
  end

let stats t =
  {
    appends = t.appends;
    writes = t.writes;
    fsyncs = t.fsyncs;
    segments = List.length t.sealed + 1;
    compactions = t.compactions;
    recovered_records = t.recovered;
    torn_records = t.torn;
  }

let dir t = t.dir

let current_segment t = seg_path t t.seg_seq

let disk_bytes t = t.total_bytes

(* ---- recovery ---- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Replay one segment's bytes into the live map. Returns the offset of
   the first byte past the last whole, checksum-valid, decodable record
   — [String.length data] iff the segment is clean. *)
let replay_segment t data =
  let len = String.length data in
  let pos = ref 0 in
  let good = ref 0 in
  (try
     while !pos < len do
       let r = Wire.reader ~pos:!pos ~len:(len - !pos) data in
       let blen = Wire.read_uvarint r in
       if Wire.remaining r < blen + 4 then Wire.error "wal: truncated record";
       let bpos = Wire.unsafe_pos r in
       let stored =
         let b i = Char.code data.[bpos + blen + i] in
         b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
       in
       if Crc32.string data ~off:bpos ~len:blen <> stored then
         Wire.error "wal: checksum mismatch";
       let br = Wire.reader ~pos:bpos ~len:blen data in
       let tag = Wire.read_u8 br in
       let next = bpos + blen + 4 in
       let flen = next - !pos in
       (if tag = tag_put then begin
          let key = Wire.read_string br in
          let value = Wire.read_string br in
          Wire.expect_end br;
          (match Hashtbl.find_opt t.live key with
          | Some (_, old) -> t.live_bytes <- t.live_bytes - old
          | None -> ());
          Hashtbl.replace t.live key (value, flen);
          t.live_bytes <- t.live_bytes + flen
        end
        else if tag = tag_delete then begin
          let key = Wire.read_string br in
          Wire.expect_end br;
          match Hashtbl.find_opt t.live key with
          | Some (_, old) ->
            t.live_bytes <- t.live_bytes - old;
            Hashtbl.remove t.live key
          | None -> ()
        end
        else if tag = tag_range then begin
          let lo = Wire.read_string br in
          let hi = Wire.read_string br in
          Wire.expect_end br;
          ignore (remove_range t ~lo ~hi)
        end
        else if tag = tag_reset then begin
          Wire.expect_end br;
          Hashtbl.reset t.live;
          t.live_bytes <- 0
        end
        else Wire.error "wal: unknown record tag %d" tag);
       pos := next;
       good := next;
       t.recovered <- t.recovered + 1
     done
   with Wire.Error _ -> ());
  !good

let truncate_file path size =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd size;
  Durable.fsync_fd fd;
  Unix.close fd

let open_ ?(segment_bytes = 1 lsl 20)
    ?(fsync = Durable.Every { ops = 64; ms = 20 }) ?(compact_min_bytes = 64_000)
    ?(auto_compact = true) ?on_io ~dir () =
  if segment_bytes <= 0 then invalid_arg "Wal.open_: segment_bytes";
  Durable.mkdir_p dir;
  let t_recover0 =
    match on_io with None -> 0.0 | Some _ -> Unix.gettimeofday ()
  in
  let t =
    {
      dir;
      segment_bytes;
      compact_min_bytes;
      auto_compact;
      pacer = Durable.pacer fsync;
      on_io;
      live = Hashtbl.create 64;
      body = Wire.writer ~cap:256 ();
      tail = Wire.writer ~cap:4096 ();
      snap = Wire.writer ~cap:256 ();
      fd = Unix.stdin (* replaced below *);
      seg_seq = 0;
      seg_size = 0;
      sealed = [];
      total_bytes = 0;
      live_bytes = 0;
      closed = false;
      appends = 0;
      writes = 0;
      fsyncs = 0;
      compactions = 0;
      recovered = 0;
      torn = 0;
      failpoint = None;
    }
  in
  let entries = Sys.readdir dir in
  (* in-flight compaction output from a crashed incarnation: invisible
     to the log (never renamed), so just clean it up *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    entries;
  let segs =
    Array.to_list entries
    |> List.filter_map (fun name ->
           match seq_of_name name with
           | Some seq -> Some (seq, Filename.concat dir name)
           | None -> None)
    |> List.sort compare
  in
  let torn = ref false in
  let surviving =
    List.filter_map
      (fun (seq, path) ->
        if !torn then begin
          (* everything after a torn record is no longer a prefix of the
             appended operations: drop it *)
          (try Sys.remove path with Sys_error _ -> ());
          None
        end
        else begin
          let data = read_file path in
          let good = replay_segment t data in
          if good < String.length data then begin
            truncate_file path good;
            t.torn <- t.torn + 1;
            torn := true
          end;
          t.total_bytes <- t.total_bytes + good;
          Some (seq, path, good)
        end)
      segs
  in
  if !torn then Durable.fsync_dir dir;
  (match List.rev surviving with
  | [] ->
    open_segment t 1;
    t.seg_size <- 0
  | (seq, _, size) :: older ->
    open_segment t seq;
    t.seg_size <- size;
    t.sealed <- List.rev_map (fun (s, p, _) -> (s, p)) older);
  (match on_io with
  | None -> ()
  | Some f -> f `Recover ((Unix.gettimeofday () -. t_recover0) *. 1e6));
  t

let wipe t =
  check_open t "wipe";
  Wire.clear t.tail;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  Array.iter
    (fun name ->
      try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ())
    (Sys.readdir t.dir);
  Durable.fsync_dir t.dir;
  Hashtbl.reset t.live;
  t.sealed <- [];
  t.total_bytes <- 0;
  t.live_bytes <- 0;
  t.seg_size <- 0;
  open_segment t 1
