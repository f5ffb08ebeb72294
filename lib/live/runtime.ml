module Engine = Abcast_sim.Engine
module Storage = Abcast_sim.Storage
module Metrics = Abcast_sim.Metrics
module Histogram = Abcast_util.Histogram
module Rng = Abcast_util.Rng
module Heap = Abcast_util.Heap
module Wire = Abcast_util.Wire
module Payload = Abcast_core.Payload
module Flight = Abcast_sim.Flight

type net_stats = { tx_oversize : int; rx_undecodable : int }

(* What the mailbox reaches in one process: the stack and its current
   state, under an existential for the state type, and the process's
   private metrics table. Only ever used inside that process's thread —
   Hashtbl is not safe to read concurrently with writes, so exporters
   pay one mailbox round-trip per node per scrape instead of racing. *)
type node_ops =
  | Ops : {
      stack : (module Abcast_core.Proto.S with type t = 's);
      state : 's;
      metrics : Metrics.t;
    }
      -> node_ops

type node = {
  id : int;
  sock : Unix.file_descr;
  port : int;
  mutex : Mutex.t;
  cond : Condition.t;
  mailbox : (unit -> unit) Queue.t;
  mutable running : bool; (* guarded by mutex *)
  mutable thread : Thread.t option;
  mutable ops : node_ops option; (* written by the node thread at boot *)
  mutable boots : int;
  flight : Flight.t;
      (* the node's crash flight recorder. Created once per node (not per
         incarnation) so a recovery appends after the crash's last events
         instead of erasing them; persisted to [dir/node<i>/flight.bin]
         periodically, at loop exit and on {!request_dump}. *)
}

type t = {
  n : int;
  shards : int;
  base_port : int;
  dir : string option;
  fsync : Abcast_store.Durable.policy;
  nodes : node array;
  wake_sock : Unix.file_descr; (* unbound socket used to poke loops *)
  start_node : int -> unit; (* closes over the protocol's message type *)
  epoch : float;
  mutable dump_epoch : int;
      (* bumped by [request_dump] (e.g. from a SIGUSR1 handler); each
         node loop compares it against its last-seen value and dumps its
         flight recorder when behind *)
  mutable prom_extra : (Buffer.t -> unit) list;
      (* extra render hooks appended to the Prometheus dump — the
         service layer exports its per-class latency histograms here *)
  (* metrics exporter machinery (threads started by [create] on demand,
     torn down by [shutdown]) *)
  mutable metrics_stop : bool;
  mutable metrics_listen : Unix.file_descr option;
  mutable metrics_threads : Thread.t list;
}

let localhost = Unix.inet_addr_loopback

let addr_of t i = Unix.ADDR_INET (localhost, t.base_port + i)

(* Datagram formats: 'W' = wake (mailbox poke) and
   'B' ^ uvarint(src) ^ (uvarint(len) ^ wire(msg))* — a batch of frames
   coalesced into one datagram (what the send path emits) — see
   DESIGN.md "Wire format". The receive path treats the bytes as
   untrusted: any other tag, and anything that fails the bounds-checked
   decode, is counted and dropped, never raised into the event loop. *)

(* Stay under the conventional safe UDP payload ceiling; the receive
   buffer is sized to match, so an accepted send is never truncated. *)
let max_datagram = 65_000

(* Batched-datagram framing over pooled writers. Exposed (see the mli)
   so the allocation-regression test and benches can drive the exact
   send-path encoding without sockets. *)
module Frame = struct
  let start w ~src =
    Wire.clear w;
    Wire.write_u8 w (Char.code 'B');
    Wire.write_uvarint w src

  let add w ~msg =
    Wire.write_uvarint w (Wire.length msg);
    Wire.append_writer w ~src:msg
end

(* The wake byte is a shared constant: [Unix.sendto] only reads it, and
   every waker sends the same single 'W'. *)
let wake_byte = Bytes.make 1 'W'

let wake t i =
  try ignore (Unix.sendto t.wake_sock wake_byte 0 1 [] (addr_of t i))
  with Unix.Unix_error _ -> ()

let enqueue t i fn =
  let nd = t.nodes.(i) in
  Mutex.lock nd.mutex;
  Queue.push fn nd.mailbox;
  Mutex.unlock nd.mutex;
  wake t i

(* Synchronous query into the node thread. Returns None if the node is
   down (or dies before answering). *)
let call t i (fn : node_ops -> 'a) : 'a option =
  let nd = t.nodes.(i) in
  Mutex.lock nd.mutex;
  if not nd.running then begin
    Mutex.unlock nd.mutex;
    None
  end
  else begin
    let result = ref None in
    let done_ = ref false in
    Queue.push
      (fun () ->
        (match nd.ops with
        | Some ops -> result := Some (fn ops)
        | None -> ());
        Mutex.lock nd.mutex;
        done_ := true;
        Condition.broadcast nd.cond;
        Mutex.unlock nd.mutex)
      nd.mailbox;
    Mutex.unlock nd.mutex;
    wake t i;
    Mutex.lock nd.mutex;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not !done_) && nd.running && Unix.gettimeofday () < deadline do
      Mutex.unlock nd.mutex;
      Thread.yield ();
      Mutex.lock nd.mutex
    done;
    Mutex.unlock nd.mutex;
    !result
  end

let drain_socket sock =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Unix.select [ sock ] [] [] 0.0 with
    | [ _ ], _, _ ->
      ignore (Unix.recvfrom sock buf 0 (Bytes.length buf) []);
      go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let make (module P : Abcast_core.Proto.S) ~n ~base_port ~dir ~fsync
    ~flight_cap ~on_deliver () =
  let nodes =
    Array.init n (fun id ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (localhost, base_port + id));
        {
          id;
          sock;
          port = base_port + id;
          mutex = Mutex.create ();
          cond = Condition.create ();
          mailbox = Queue.create ();
          running = false;
          thread = None;
          ops = None;
          boots = 0;
          flight =
            (if flight_cap > 0 then Flight.create ~cap:flight_cap ()
             else Flight.disabled);
        })
  in
  let wake_sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let epoch = Unix.gettimeofday () in
  let rec t =
    {
      n;
      shards = P.shards;
      base_port;
      dir;
      fsync;
      nodes;
      wake_sock;
      start_node;
      epoch;
      metrics_stop = false;
      metrics_listen = None;
      metrics_threads = [];
      dump_epoch = 0;
      prom_extra = [];
    }
  (* The node event loop. Everything protocol-related happens here. *)
  and node_loop nd () =
    let metrics = Metrics.create () in
    let now_us () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e6) in
    let node_dir =
      Option.map (fun d -> Filename.concat d (Printf.sprintf "node%d" nd.id)) dir
    in
    let store =
      match node_dir with
      | Some d ->
        Storage.create ~dir:d ~fsync ~flight:nd.flight ~flight_now:now_us
          ~metrics ~node:nd.id ()
      | None -> Storage.create ~metrics ~node:nd.id ()
    in
    (* Real boot counter: persisted, so identities survive restarts. *)
    let incarnation =
      match Storage.read store "sys/boot" with
      | Some s -> int_of_string s
      | None -> 0
    in
    Storage.write store ~layer:"sys" ~key:"sys/boot"
      (string_of_int (incarnation + 1));
    Flight.record nd.flight ~time:(now_us ()) ~node:nd.id ~group:0
      ~boot:incarnation ~stage:Flight.boot ~trace:0 ~a:incarnation ~b:0;
    (* Persist the black box next to the WAL: periodically (so a SIGKILL
       loses at most the last second of events), on demand via
       [request_dump], and at loop exit. *)
    let flight_file = Option.map (fun d -> Filename.concat d "flight.bin") node_dir in
    let dump_flight () =
      match flight_file with
      | Some path when Flight.enabled nd.flight ->
        (try Flight.dump_to_file nd.flight path
         with Sys_error _ | Unix.Unix_error _ -> ())
      | _ -> ()
    in
    let last_flight_dump = ref (now_us ()) in
    let seen_dump_epoch = ref t.dump_epoch in
    let timers : (int * int * (unit -> unit)) Heap.t =
      Heap.create ~cmp:(fun (a, sa, _) (b, sb, _) -> compare (a, sa) (b, sb)) ()
    in
    let timer_seq = ref 0 in
    let h_tx_oversize = Metrics.handle metrics ~node:nd.id "udp_tx_oversize" in
    let h_rx_undecodable =
      Metrics.handle metrics ~node:nd.id "udp_rx_undecodable"
    in
    let h_tx_datagrams = Metrics.handle metrics ~node:nd.id "udp_tx_datagrams" in
    let h_tx_frames = Metrics.handle metrics ~node:nd.id "udp_tx_frames" in
    (* The allocation-free send path: one scratch writer holds the
       current message's encoding (produced exactly once, even for a
       multisend), per-destination pooled writers accumulate frames, and
       the sockaddrs are precomputed. A steady-state send touches the
       minor heap not at all: every buffer is reused at its
       high-water-mark capacity and [sendto] reads the writer's bytes in
       place. Buffers are flushed once per event-loop pass (or earlier
       when the next frame would overflow the datagram), which also
       coalesces several protocol messages into a single syscall. *)
    let addrs = Array.init n (fun i -> Unix.ADDR_INET (localhost, base_port + i)) in
    let msg_buf = Wire.writer ~cap:512 () in
    let dest_bufs = Array.init n (fun _ -> Wire.writer ~cap:4096 ()) in
    let hdr_len =
      Frame.start dest_bufs.(0) ~src:nd.id;
      Wire.length dest_bufs.(0)
    in
    Array.iter (fun w -> Frame.start w ~src:nd.id) dest_bufs;
    let flush_dst dst =
      let w = dest_bufs.(dst) in
      let len = Wire.length w in
      if len > hdr_len then begin
        (try ignore (Unix.sendto nd.sock (Wire.unsafe_bytes w) 0 len [] addrs.(dst))
         with Unix.Unix_error _ -> () (* lossy channel *));
        Metrics.hincr h_tx_datagrams;
        Frame.start w ~src:nd.id
      end
    in
    let flush_all () =
      for dst = 0 to n - 1 do
        flush_dst dst
      done
    in
    (* Worst-case frame overhead: the length prefix (uvarint of a value
       <= 65_000 takes at most 3 bytes). *)
    let frame_overhead = 3 in
    let push dst =
      let w = dest_bufs.(dst) in
      if Wire.length w + Wire.length msg_buf + frame_overhead > max_datagram
      then flush_dst dst;
      Frame.add dest_bufs.(dst) ~msg:msg_buf;
      Metrics.hincr h_tx_frames
    in
    (* Encode once into [msg_buf]; false (and a loud drop) if the message
       can never fit a datagram even alone. The protocol treats the drop
       as loss; the counter and stderr line make the cause diagnosable. *)
    let encode_current (msg : P.msg) =
      Wire.clear msg_buf;
      P.write_msg msg_buf msg;
      if Wire.length msg_buf + hdr_len + frame_overhead > max_datagram then begin
        Metrics.hincr h_tx_oversize;
        Printf.eprintf
          "abcast-live node %d: dropping oversize message (%d bytes > %d \
           limit)\n\
           %!"
          nd.id (Wire.length msg_buf) max_datagram;
        false
      end
      else true
    in
    (* Frames to ourselves never touch the socket: [send self] and the
       self copy of a multisend queue the message value in this FIFO,
       and [ship] hands them to the handler before every flush. A
       growable array ring: once it has reached its high-water size,
       queueing allocates nothing (a popped slot keeps its message until
       the ring laps it). *)
    let self_ring = ref [||] in
    let self_head = ref 0 in
    let self_len = ref 0 in
    let push_self (msg : P.msg) =
      let cap = Array.length !self_ring in
      if !self_len = cap then begin
        let ring = Array.make (max 16 (2 * cap)) msg in
        for i = 0 to cap - 1 do
          ring.(i) <- !self_ring.((!self_head + i) mod cap)
        done;
        self_ring := ring;
        self_head := 0
      end;
      let ring = !self_ring in
      ring.((!self_head + !self_len) mod Array.length ring) <- msg;
      incr self_len
    in
    let send dst (msg : P.msg) =
      if dst = nd.id then push_self msg else if encode_current msg then push dst
    in
    let io : P.msg Engine.io =
      {
        self = nd.id;
        n;
        group = 0;
        incarnation;
        now = now_us;
        send;
        multisend =
          (fun m ->
            push_self m;
            if n > 1 && encode_current m then
              for dst = 0 to n - 1 do
                if dst <> nd.id then push dst
              done);
        after =
          (fun delay fn ->
            incr timer_seq;
            Heap.push timers (now_us () + delay, !timer_seq, fn));
        store;
        rng = Rng.create ((nd.id * 7919) + incarnation);
        metrics;
        flight = nd.flight;
        alarm =
          (* Safety sentinel: scream on stderr, bump the counter and dump
             the flight ring immediately — the evidence must hit disk
             before any operator reaction (or a panicked SIGKILL). *)
          (fun reason ->
            Metrics.incr metrics ~node:nd.id "alarms";
            Printf.eprintf "abcast-live node %d: ALARM: %s\n%!" nd.id reason;
            dump_flight ());
        reorder_apply = false;
      }
    in
    let p =
      P.create io ~deliver:(fun ~group pl -> on_deliver ~node:nd.id ~group pl)
    in
    let handler = P.handler p in
    let rec drain_self () =
      if !self_len > 0 then begin
        let ring = !self_ring in
        let msg = ring.(!self_head) in
        self_head := (!self_head + 1) mod Array.length ring;
        decr self_len;
        handler ~src:nd.id msg;
        drain_self ()
      end
    in
    (* Ship everything produced so far: our own frames are handled first
       (their replies to peers join the same flush), then one coalesced
       datagram leaves per destination with pending frames. *)
    let ship () =
      drain_self ();
      flush_all ()
    in
    Mutex.lock nd.mutex;
    nd.ops <- Some (Ops { stack = (module P); state = p; metrics });
    Mutex.unlock nd.mutex;
    (* The allocation-free receive path: the socket is non-blocking so a
       single wakeup drains a bounded burst of datagrams; each datagram
       is decoded in place through a pooled reader over the (unsafely
       string-viewed) receive buffer. The view is sound because the
       buffer is only mutated by the next [recvfrom], after decoding is
       done. *)
    let buf = Bytes.create (max_datagram + 1) in
    let buf_view = Bytes.unsafe_to_string buf in
    Unix.set_nonblock nd.sock;
    let rd = Wire.reader "" in
    let frame_rd = Wire.reader "" in
    let decode_batch len =
      (* 'B' framing: uvarint source, then length-prefixed frames *)
      Wire.reader_reset rd ~pos:1 ~len:(len - 1) buf_view;
      (* Decoded messages copy their strings out of the buffer, so each
         frame's handler can run before the next frame is parsed — no
         per-datagram message list. A malformed tail loses only the
         remaining frames (counted once), exactly like datagram loss. *)
      match
        let src = Wire.read_uvarint rd in
        if src >= n then Wire.error "datagram: bad source %d" src;
        while not (Wire.at_end rd) do
          let flen = Wire.read_uvarint rd in
          let pos = Wire.unsafe_pos rd in
          if flen > Wire.remaining rd then
            Wire.error "datagram: frame overruns (%d bytes)" flen;
          Wire.reader_reset frame_rd ~pos ~len:flen buf_view;
          let msg = P.read_msg frame_rd in
          Wire.expect_end frame_rd;
          Wire.unsafe_seek rd (pos + flen);
          handler ~src msg
        done
      with
      | () -> ()
      | exception Wire.Error _ -> Metrics.hincr h_rx_undecodable
    in
    let recv_budget = 128 in
    let rec drain_ready budget =
      if budget > 0 then
        match Unix.recvfrom nd.sock buf 0 (Bytes.length buf) [] with
        | len, _ when len > 1 && Bytes.get buf 0 = 'B' ->
          decode_batch len;
          drain_ready (budget - 1)
        | len, _ when len > 0 && Bytes.get buf 0 = 'W' ->
          drain_ready (budget - 1) (* wake byte *)
        | len, _ when len > 0 ->
          Metrics.hincr h_rx_undecodable;
          drain_ready (budget - 1)
        | _ -> drain_ready (budget - 1)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error _ -> ()
    in
    let keep_going () =
      Mutex.lock nd.mutex;
      let r = nd.running in
      Mutex.unlock nd.mutex;
      r
    in
    while keep_going () do
      (* fire due timers *)
      let rec fire () =
        match Heap.peek timers with
        | Some (at, _, fn) when at <= now_us () ->
          ignore (Heap.pop timers);
          fn ();
          fire ()
        | _ -> ()
      in
      fire ();
      (* drain the mailbox *)
      let jobs = ref [] in
      Mutex.lock nd.mutex;
      while not (Queue.is_empty nd.mailbox) do
        jobs := Queue.pop nd.mailbox :: !jobs
      done;
      Mutex.unlock nd.mutex;
      List.iter (fun job -> job ()) (List.rev !jobs);
      (* Ship everything the timers/mailbox/handlers produced this pass. *)
      ship ();
      (* wait for traffic or the next timer *)
      let timeout =
        match Heap.peek timers with
        | Some (at, _, _) ->
          Float.max 0.0 (Float.min 0.05 (float_of_int (at - now_us ()) /. 1e6))
        | None -> 0.05
      in
      (* flight persistence: on demand (request_dump) or once a second *)
      if
        t.dump_epoch <> !seen_dump_epoch
        || now_us () - !last_flight_dump >= 1_000_000
      then begin
        seen_dump_epoch := t.dump_epoch;
        last_flight_dump := now_us ();
        dump_flight ()
      end;
      (match Unix.select [ nd.sock ] [] [] timeout with
      | [ _ ], _, _ ->
        drain_ready recv_budget;
        (* replies produced by the handlers must not wait out the next
           select timeout *)
        ship ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
    done;
    flush_all ();
    dump_flight ();
    Mutex.lock nd.mutex;
    nd.ops <- None;
    Mutex.unlock nd.mutex;
    (* Flush and release the durable backend: a clean shutdown must not
       lose the tail the fsync policy was still holding back. *)
    Storage.close store
  and start_node i =
    let nd = nodes.(i) in
    Mutex.lock nd.mutex;
    if not nd.running then begin
      nd.running <- true;
      nd.boots <- nd.boots + 1;
      Mutex.unlock nd.mutex;
      (* A recovering process has lost its input buffer: discard whatever
         piled up in the socket while it was down. *)
      drain_socket nd.sock;
      nd.thread <- Some (Thread.create (node_loop nd) ())
    end
    else Mutex.unlock nd.mutex
  in
  t

(* ---- metrics export ---- *)

(* Counter and histogram snapshots of one process; the histograms are
   copies. *)
let snapshot (Ops o) = (Metrics.counters o.metrics, Metrics.histograms o.metrics)

let node_counters t i =
  match call t i snapshot with
  | Some (ctrs, _) -> List.map (fun ((_, name), v) -> (name, v)) ctrs
  | None -> []

let hist_summaries t i =
  match call t i snapshot with
  | Some (_, hists) ->
    List.filter_map
      (fun ((_, name), h) ->
        if Histogram.count h > 0 then Some (name, Histogram.summary h)
        else None)
      hists
  | None -> []

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; the dotted series
   names map dots (and anything else exotic) to underscores under an
   [abcast_] prefix. *)
let prom_name name =
  "abcast_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

let prom_histogram buf ~name ~labels h =
  let cum = ref 0 in
  List.iter
    (fun (bound, count) ->
      if Float.is_finite bound then begin
        cum := !cum + count;
        Printf.bprintf buf "%s_bucket{%s,le=\"%.6g\"} %d\n" name labels bound
          !cum
      end)
    (Histogram.buckets h);
  Printf.bprintf buf "%s_bucket{%s,le=\"+Inf\"} %d\n" name labels
    (Histogram.count h);
  Printf.bprintf buf "%s_sum{%s} %.6f\n" name labels (Histogram.sum h);
  Printf.bprintf buf "%s_count{%s} %d\n" name labels (Histogram.count h)

(* Snapshot every up node once and render the Prometheus text format:
   counters as gauges (recovery can rewind e.g. wal_segments), observed
   series as cumulative histograms. *)
let prometheus t =
  let snaps =
    List.filter_map
      (fun i ->
        Option.map (fun s -> (i, s)) (call t i snapshot))
      (List.init t.n Fun.id)
  in
  let buf = Buffer.create 8192 in
  (* Sharded stacks intern their series under a "g<g>/" name prefix; the
     export strips the prefix back out of the metric name and carries the
     group as a label instead, so one # HELP/# TYPE covers all groups.
     Single-group stacks have bare names — no group label, byte-identical
     output to the unsharded exporter. *)
  let labels node g =
    if t.shards > 1 then Printf.sprintf "node=\"%d\",group=\"%d\"" node g
    else Printf.sprintf "node=\"%d\"" node
  in
  (* group by base metric name so # HELP/# TYPE appear once each; cells
     are (group, node, value) *)
  let group extract =
    let by_name = Hashtbl.create 64 in
    let names = ref [] in
    List.iter
      (fun (i, snap) ->
        List.iter
          (fun ((_, name), v) ->
            let g, base = Metrics.split_group name in
            if not (Hashtbl.mem by_name base) then names := base :: !names;
            Hashtbl.replace by_name base
              ((g, i, v)
              :: (try Hashtbl.find by_name base with Not_found -> [])))
          (extract snap))
      snaps;
    List.rev_map (fun n -> (n, List.rev (Hashtbl.find by_name n))) !names
    |> List.sort compare
  in
  List.iter
    (fun (name, cells) ->
      let pn = prom_name name in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s counter %s\n# TYPE %s gauge\n" pn name pn);
      List.iter
        (fun (g, node, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{%s} %d\n" pn (labels node g) v))
        cells)
    (group fst);
  List.iter
    (fun (name, cells) ->
      let pn = prom_name name in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s histogram of series %s\n# TYPE %s histogram\n"
           pn name pn);
      List.iter
        (fun (g, node, h) ->
          prom_histogram buf ~name:pn ~labels:(labels node g) h)
        cells)
    (group snd);
  List.iter (fun f -> f buf) (List.rev t.prom_extra);
  Buffer.contents buf

(* One JSONL snapshot line: counters and histogram summaries per node. *)
let json_snapshot t =
  let node_json i =
    match call t i snapshot with
    | None -> Printf.sprintf {|{"node":%d,"up":false}|} i
    | Some (ctrs, hists) ->
      let cjson =
        ctrs
        |> List.sort compare
        |> List.map (fun ((_, name), v) -> Printf.sprintf {|"%s":%d|} name v)
        |> String.concat ","
      in
      let hjson =
        hists
        |> List.filter (fun (_, h) -> Histogram.count h > 0)
        |> List.sort compare
        |> List.map (fun ((_, name), h) ->
               let s = Histogram.summary h in
               Printf.sprintf
                 {|"%s":{"count":%d,"mean":%.3f,"min":%.3f,"p50":%.3f,"p95":%.3f,"p99":%.3f,"max":%.3f}|}
                 name s.Histogram.count s.mean s.min s.p50 s.p95 s.p99 s.max)
        |> String.concat ","
      in
      Printf.sprintf
        {|{"node":%d,"up":true,"counters":{%s},"histograms":{%s}}|} i cjson
        hjson
  in
  Printf.sprintf {|{"ts":%.3f,"nodes":[%s]}|}
    (Unix.gettimeofday () -. t.epoch)
    (String.concat "," (List.map node_json (List.init t.n Fun.id)))

(* Blocking single-threaded HTTP/1.0 responder: accept, best-effort read
   of the request, answer with the full dump, close. Plenty for a
   scraper on localhost. The loop never parks in accept(2) — closing an
   fd does not wake a thread already blocked in it on Linux — but in a
   short select, so it notices [metrics_stop] within a poll period and
   [shutdown]'s join cannot hang. *)
let serve_metrics t port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (localhost, port));
  Unix.listen sock 8;
  t.metrics_listen <- Some sock;
  let th =
    Thread.create
      (fun () ->
        let rec loop () =
          if t.metrics_stop then ()
          else
            match Unix.select [ sock ] [] [] 0.1 with
            | exception Unix.Unix_error _ -> () (* listener closed *)
            | [], _, _ -> loop ()
            | _ -> (
              match Unix.accept sock with
              | exception Unix.Unix_error _ -> () (* listener closed *)
              | conn, _ -> serve conn)
        and serve conn =
            (try
               let buf = Bytes.create 1024 in
               (match Unix.select [ conn ] [] [] 1.0 with
               | [ _ ], _, _ -> (
                 try ignore (Unix.recv conn buf 0 1024 [])
                 with Unix.Unix_error _ -> ())
               | _ -> ());
               let body = prometheus t in
               let resp =
                 Printf.sprintf
                   "HTTP/1.0 200 OK\r\n\
                    Content-Type: text/plain; version=0.0.4\r\n\
                    Content-Length: %d\r\n\
                    Connection: close\r\n\
                    \r\n\
                    %s"
                   (String.length body) body
               in
               let b = Bytes.of_string resp in
               let rec wr off =
                 if off < Bytes.length b then
                   match Unix.write conn b off (Bytes.length b - off) with
                   | w when w > 0 -> wr (off + w)
                   | _ -> ()
               in
               (try wr 0 with Unix.Unix_error _ -> ())
             with _ -> ());
            (try Unix.close conn with Unix.Unix_error _ -> ());
            if not t.metrics_stop then loop ()
        in
        loop ())
      ()
  in
  t.metrics_threads <- th :: t.metrics_threads

(* Size-based rotation for the JSONL snapshot stream: when the live file
   crosses [snapshot_rotate_bytes], it becomes [path.1] (shifting path.k
   to path.k+1 and dropping path.<snapshot_keep>), so a long-lived
   service bounds its snapshot footprint at ~5 x 4 MiB. The doctor reads
   the rotated files oldest-first. *)
let snapshot_rotate_bytes = 4 * 1024 * 1024
let snapshot_keep = 4

let rotate_snapshots path =
  let numbered k = path ^ "." ^ string_of_int k in
  (try Sys.remove (numbered snapshot_keep) with Sys_error _ -> ());
  for k = snapshot_keep - 1 downto 1 do
    if Sys.file_exists (numbered k) then (
      try Sys.rename (numbered k) (numbered (k + 1)) with Sys_error _ -> ())
  done;
  try Sys.rename path (numbered 1) with Sys_error _ -> ()

let snapshot_loop t interval path =
  let th =
    Thread.create
      (fun () ->
        let open_file () = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        let oc = ref (open_file ()) in
        let emit () =
          try
            output_string !oc (json_snapshot t);
            output_char !oc '\n';
            flush !oc;
            if pos_out !oc > snapshot_rotate_bytes then begin
              close_out_noerr !oc;
              rotate_snapshots path;
              oc := open_file ()
            end
          with Sys_error _ -> ()
        in
        let rec loop () =
          if not t.metrics_stop then begin
            let target = Unix.gettimeofday () +. interval in
            while (not t.metrics_stop) && Unix.gettimeofday () < target do
              Thread.delay 0.02
            done;
            if not t.metrics_stop then begin
              emit ();
              loop ()
            end
          end
        in
        loop ();
        (* final snapshot at shutdown: [shutdown] joins this thread
           before crashing the nodes, so the tables are still live and
           even a run shorter than one interval leaves one line *)
        emit ();
        close_out_noerr !oc)
      ()
  in
  t.metrics_threads <- th :: t.metrics_threads

let create proto ~n ?(base_port = 7400) ?dir ?backend:(_ : [ `Wal ] = `Wal)
    ?(fsync = Abcast_store.Durable.Every { ops = 64; ms = 20 })
    ?(flight_cap = 8192) ?(on_deliver = fun ~node:_ ~group:_ _ -> ())
    ?metrics_port ?(metrics_interval = 1.0) ?metrics_out () =
  let t =
    make proto ~n ~base_port ~dir ~fsync ~flight_cap ~on_deliver ()
  in
  for i = 0 to n - 1 do
    t.start_node i
  done;
  (* wait for every loop to publish its operations *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  Array.iter
    (fun nd ->
      while nd.ops = None && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done)
    t.nodes;
  (match metrics_port with Some port -> serve_metrics t port | None -> ());
  (match metrics_out with
  | Some path -> snapshot_loop t metrics_interval path
  | None -> ());
  t

let n t = t.n
let shards t = t.shards
let now_us t = int_of_float ((Unix.gettimeofday () -. t.epoch) *. 1e6)
let flight t i = t.nodes.(i).flight

let request_dump t =
  t.dump_epoch <- t.dump_epoch + 1;
  for i = 0 to t.n - 1 do
    wake t i
  done

let set_prom_extra t f = t.prom_extra <- f :: t.prom_extra

let is_up t i =
  let nd = t.nodes.(i) in
  Mutex.lock nd.mutex;
  let r = nd.running in
  Mutex.unlock nd.mutex;
  r

let crash t i =
  let nd = t.nodes.(i) in
  Mutex.lock nd.mutex;
  let was_running = nd.running in
  nd.running <- false;
  Mutex.unlock nd.mutex;
  if was_running then begin
    wake t i;
    (match nd.thread with Some th -> Thread.join th | None -> ());
    nd.thread <- None
  end

let recover t i =
  if not (is_up t i) then begin
    t.start_node i;
    let nd = t.nodes.(i) in
    let deadline = Unix.gettimeofday () +. 5.0 in
    while nd.ops = None && Unix.gettimeofday () < deadline do
      Thread.yield ()
    done
  end

let broadcast ?group t ~node data =
  if is_up t node then
    enqueue t node (fun () ->
        match t.nodes.(node).ops with
        | Some (Ops { stack = (module P); state; _ }) ->
          ignore (P.broadcast state ?group data)
        | None -> ())

let delivered_count ?group t i =
  let get (Ops o) = Abcast_core.Proto.delivered_count o.stack ?group o.state in
  match call t i get with Some c -> c | None -> 0

let delivered_data ?group t i =
  let get (Ops o) =
    List.map
      (fun (x : Payload.t) -> x.data)
      (Abcast_core.Proto.delivered_tail o.stack ?group o.state)
  in
  match call t i get with Some l -> l | None -> []

let round t i =
  let get (Ops o) = Abcast_core.Proto.round o.stack o.state in
  match call t i get with Some r -> r | None -> 0

let net_stats t i =
  let get (Ops o) =
    {
      tx_oversize = Metrics.get o.metrics ~node:i "udp_tx_oversize";
      rx_undecodable = Metrics.get o.metrics ~node:i "udp_rx_undecodable";
    }
  in
  match call t i get with
  | Some s -> s
  | None -> { tx_oversize = 0; rx_undecodable = 0 }

let shutdown t =
  t.metrics_stop <- true;
  (match t.metrics_listen with
  | Some sock ->
    t.metrics_listen <- None;
    (try Unix.close sock with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter Thread.join t.metrics_threads;
  t.metrics_threads <- [];
  for i = 0 to t.n - 1 do
    crash t i
  done;
  Array.iter (fun nd -> try Unix.close nd.sock with Unix.Unix_error _ -> ()) t.nodes;
  try Unix.close t.wake_sock with Unix.Unix_error _ -> ()
