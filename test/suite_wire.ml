(* The binary wire codec: seeded round-trip properties (encode ∘ decode =
   id) for every boundary-crossing type, rejection of truncated/garbage
   buffers, and an end-to-end equivalence sweep showing that routing every
   message through the codec changes nothing about what gets delivered. *)

open Helpers
module Wire = Abcast_util.Wire
module Vclock = Abcast_core.Vclock
module Agreed = Abcast_core.Agreed
module Batch = Abcast_core.Batch
module Proto = Abcast_core.Proto
module Paxos = Abcast_consensus.Paxos
module Coord = Abcast_consensus.Coord
module Heartbeat = Abcast_fd.Heartbeat
module P = Protocol.Make (Paxos)
module PC = Protocol.Make (Coord)

(* --- Generators ------------------------------------------------------ *)

(* Ints with the boundary values the zigzag varint must survive. *)
let int_gen =
  QCheck.Gen.(
    frequency
      [
        (6, small_signed_int);
        (2, int);
        (1, oneofl [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ]);
      ])

let nat_gen = QCheck.Gen.(frequency [ (6, small_nat); (1, oneofl [ 0; 1 ]) ])

let data_gen =
  QCheck.Gen.(
    frequency [ (5, string_size (int_bound 40)); (1, return "") ])

let id_gen =
  QCheck.Gen.(
    map3
      (fun origin boot seq -> { Payload.origin; boot; seq })
      int_gen int_gen int_gen)

module Trace_ctx = Abcast_core.Trace_ctx

(* Mostly-unsampled (the live default), with sampled contexts across the
   full packed range. *)
let trace_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Trace_ctx.none);
        ( 2,
          map2
            (fun node stamp -> Trace_ctx.make ~node ~stamp)
            (int_bound Trace_ctx.max_node)
            (frequency
               [
                 (4, small_nat);
                 (1, oneofl [ 0; 1; Trace_ctx.max_stamp ]);
               ]) );
      ])

let payload_gen =
  QCheck.Gen.(
    map3
      (fun id data trace -> Payload.make ~trace id data)
      id_gen data_gen trace_gen)

(* Valid vclock: distinct (origin, boot) streams with their max seq. *)
let streams_gen =
  QCheck.Gen.(
    map
      (fun entries ->
        entries
        |> List.map (fun ((o, b), s) -> ((o land 0xff, b land 0xff), s))
        |> List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2))
      (small_list (pair (pair nat_gen nat_gen) nat_gen)))

let vclock_gen = QCheck.Gen.map Vclock.of_streams streams_gen

module Audit = Abcast_core.Audit

let cert_gen =
  QCheck.Gen.(
    map3
      (fun c_boot c_len c_hash -> { Audit.c_boot; c_len; c_hash })
      nat_gen nat_gen nat_gen)

let cert_opt_gen = QCheck.Gen.(frequency [ (1, return None); (2, map Option.some cert_gen) ])

let repr_gen =
  QCheck.Gen.(
    map2
      (fun (base_app, base_len, vc, tail) base_chain ->
        { Agreed.base_app; base_len; base_chain; vc; tail })
      (quad (option data_gen) nat_gen vclock_gen (small_list payload_gen))
      nat_gen)

let paxos_gen : Paxos.msg QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Paxos.Prepare { b }) nat_gen;
        map3
          (fun b accepted above -> Paxos.Promise { b; accepted; above })
          nat_gen
          (option (pair nat_gen data_gen))
          (small_list (pair nat_gen nat_gen));
        map (fun b -> Paxos.Reject { b }) nat_gen;
        map2 (fun b v -> Paxos.Accept { b; v }) nat_gen data_gen;
        map (fun b -> Paxos.Accepted { b }) nat_gen;
        return Paxos.Query;
        map (fun v -> Paxos.Decide { v }) data_gen;
      ])

let coord_gen : Coord.msg QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        (* ts = -1 is a real protocol value ("never adopted"): the codec
           must handle negative timestamps. *)
        map3
          (fun r v ts -> Coord.Estimate { r; v; ts })
          nat_gen data_gen
          (oneofl [ -1; 0; 1; 17 ]);
        map2 (fun r v -> Coord.Proposal { r; v }) nat_gen data_gen;
        map (fun r -> Coord.Ack { r }) nat_gen;
        return Coord.Query;
        map (fun v -> Coord.Decide { v }) data_gen;
      ])

let msg_gen : P.msg QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun (k, cert) len unordered -> P.Gossip { k; len; unordered; cert })
          (pair nat_gen cert_opt_gen)
          nat_gen (small_list payload_gen);
        map3
          (fun (k, cert) len summary -> P.Digest { k; len; summary; cert })
          (pair nat_gen cert_opt_gen)
          nat_gen
          (small_list (triple nat_gen nat_gen int_gen));
        map (fun ids -> P.Need { ids }) (small_list id_gen);
        map3
          (fun k floor agreed -> P.State { k; floor; agreed })
          nat_gen nat_gen repr_gen;
        map2 (fun k m -> P.Cons (P.M.Inst (k, m))) nat_gen paxos_gen;
        map (fun floor -> P.Cons (P.M.Truncated { floor })) nat_gen;
        map (fun epoch -> P.Fd (Heartbeat.Beat { epoch })) nat_gen;
      ])

(* --- Structural equality (Vclock is a map: compare via its listing) --- *)

let repr_equal (a : Agreed.repr) (b : Agreed.repr) =
  a.base_app = b.base_app
  && a.base_len = b.base_len
  && a.base_chain = b.base_chain
  && Vclock.streams a.vc = Vclock.streams b.vc
  && a.tail = b.tail

let msg_equal (a : P.msg) (b : P.msg) =
  match (a, b) with
  | P.State s1, P.State s2 ->
    s1.k = s2.k && s1.floor = s2.floor && repr_equal s1.agreed s2.agreed
  | _ -> a = b

(* --- Round-trip properties ------------------------------------------- *)

let roundtrips write read equal v =
  match Wire.of_string_opt read (Wire.to_string write v) with
  | Some v' -> equal v v'
  | None -> false

let prop name gen p = QCheck.Test.make ~name ~count:300 (QCheck.make gen) p

let roundtrip_props =
  [
    prop "varint roundtrips (full int range)" int_gen
      (roundtrips Wire.write_varint Wire.read_varint ( = ));
    prop "payload id roundtrips" id_gen
      (roundtrips Payload.write_id Payload.read_id ( = ));
    prop "payload roundtrips" payload_gen
      (roundtrips Payload.write Payload.read ( = ));
    prop "trace context roundtrips" trace_gen (fun t ->
        t = Trace_ctx.none
        || roundtrips Trace_ctx.write Trace_ctx.read Trace_ctx.equal t);
    prop "unsampled payloads carry zero trace bytes" (QCheck.Gen.pair id_gen data_gen)
      (fun (id, data) ->
        let plain = Wire.to_string Payload.write (Payload.make id data) in
        let traced =
          Wire.to_string Payload.write
            (Payload.make ~trace:(Trace_ctx.make ~node:3 ~stamp:9) id data)
        in
        String.length traced > String.length plain);
    prop "every strict prefix of a traced payload is rejected" payload_gen
      (fun pl ->
        let s = Wire.to_string Payload.write pl in
        let ok = ref true in
        for len = 0 to String.length s - 1 do
          if
            Wire.of_string_opt Payload.read (String.sub s 0 len) <> None
          then ok := false
        done;
        !ok);
    prop "trace-context decode of arbitrary bytes never raises"
      QCheck.Gen.(string_size (int_bound 16))
      (fun s ->
        match Wire.of_string_opt Trace_ctx.read s with
        | Some t -> Trace_ctx.is_sampled t
        | None -> true);
    prop "vclock roundtrips" streams_gen (fun streams ->
        let vc = Vclock.of_streams streams in
        roundtrips Vclock.write Vclock.read
          (fun a b -> Vclock.streams a = Vclock.streams b)
          vc
        && Vclock.streams vc = streams);
    prop "agreed repr roundtrips" repr_gen
      (roundtrips Agreed.write_repr Agreed.read_repr repr_equal);
    prop "batch decode inverts encode" (QCheck.Gen.small_list payload_gen)
      (fun ps ->
        Batch.decode_opt (Batch.encode ps) = Some (Payload.sort_batch ps));
    prop "paxos msg roundtrips" paxos_gen
      (roundtrips Paxos.write_msg Paxos.read_msg ( = ));
    prop "coord msg roundtrips" coord_gen
      (roundtrips Coord.write_msg Coord.read_msg ( = ));
    prop "protocol msg roundtrips" msg_gen (fun m ->
        match P.decode_msg (P.encode_msg m) with
        | Some m' -> msg_equal m m'
        | None -> false);
    prop "checkpoint roundtrips" (QCheck.Gen.pair nat_gen repr_gen)
      (fun (k, repr) ->
        match Protocol.decode_checkpoint (Protocol.encode_checkpoint (k, repr))
        with
        | Some (k', repr') -> k = k' && repr_equal repr repr'
        | None -> false);
  ]

(* --- Order-audit chains and certificates (PR 10) ---------------------- *)

let chain ids = List.fold_left Audit.mix Audit.empty ids

let audit_props =
  [
    prop "order certificate roundtrips" cert_gen
      (roundtrips Audit.write_cert Audit.read_cert ( = ));
    prop "every strict prefix of a certificate is rejected" cert_gen
      (fun c ->
        let s = Wire.to_string Audit.write_cert c in
        let ok = ref true in
        for len = 0 to String.length s - 1 do
          if Wire.of_string_opt Audit.read_cert (String.sub s 0 len) <> None
          then ok := false
        done;
        !ok);
    prop "chain values are non-negative" (QCheck.Gen.small_list id_gen)
      (fun ids -> chain ids >= 0);
    prop "equal delivery prefixes yield equal chains at every position"
      (QCheck.Gen.small_list id_gen)
      (fun ids ->
        (* two nodes folding the same sequence independently *)
        let a = ref Audit.empty and b = ref Audit.empty in
        List.for_all
          (fun id ->
            a := Audit.mix !a id;
            b := Audit.mix !b id;
            !a = !b)
          ids);
    prop "transposing two distinct deliveries changes the chain"
      QCheck.Gen.(
        triple (small_list id_gen) (pair id_gen id_gen) (small_list id_gen))
      (fun (pre, (x, y), post) ->
        x = y || chain (pre @ [ x; y ] @ post) <> chain (pre @ [ y; x ] @ post));
    prop "chains are boot-epoch-scoped"
      QCheck.Gen.(pair (small_list id_gen) id_gen)
      (fun (pre, id) ->
        (* the same (origin, seq) redelivered by a later incarnation is
           a different identity and must hash differently *)
        chain (pre @ [ id ])
        <> chain (pre @ [ { id with Payload.boot = id.Payload.boot + 1 } ]));
    prop "window covers exactly the last cap positions"
      QCheck.Gen.(pair (int_range 1 16) (int_range 1 64))
      (fun (cap, len) ->
        let w = Audit.window ~cap () in
        for pos = 1 to len do
          Audit.note w ~pos ~hash:(pos * 7)
        done;
        let ok = ref true in
        for pos = 1 to len do
          let expect =
            if pos > len - min cap len then Some (pos * 7) else None
          in
          if Audit.hash_at w ~pos <> expect then ok := false
        done;
        !ok);
    prop "check: match in window, mismatch on altered hash, unknown outside"
      QCheck.Gen.(pair (int_range 1 16) (int_range 1 64))
      (fun (cap, len) ->
        let w = Audit.window ~cap () in
        for pos = 1 to len do
          Audit.note w ~pos ~hash:(pos * 7)
        done;
        let cert pos hash = { Audit.c_boot = 0; c_len = pos; c_hash = hash } in
        Audit.check w (cert len (len * 7)) = `Match
        && Audit.check w (cert len ((len * 7) + 1)) = `Mismatch
        && Audit.check w (cert (len + 1) 0) = `Unknown
        && (cap >= len || Audit.check w (cert (len - cap) 0) = `Unknown));
    prop "a position gap restarts the window"
      QCheck.Gen.(int_range 2 16)
      (fun cap ->
        let w = Audit.window ~cap () in
        Audit.note w ~pos:1 ~hash:11;
        Audit.note w ~pos:2 ~hash:22;
        (* state transfer jumps the frontier: old positions are no
           longer comparable evidence *)
        Audit.note w ~pos:10 ~hash:33;
        Audit.hash_at w ~pos:2 = None
        && Audit.hash_at w ~pos:10 = Some 33);
  ]

(* --- Service envelope codecs (PR 8) ---------------------------------- *)

module Envelope = Abcast_core.Envelope

let envelope_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun session seq cmd -> Envelope.Request { session; seq; cmd })
          nat_gen int_gen data_gen;
        map2 (fun node stamp -> Envelope.Claim { node; stamp }) nat_gen int_gen;
        map2 (fun node stamp -> Envelope.Lease { node; stamp }) nat_gen int_gen;
      ])

let reply_gen =
  QCheck.Gen.(
    map
      (fun (r_session, r_seq, st, data) ->
        let status =
          match st with
          | 0 -> Envelope.Applied
          | 1 -> Envelope.Cached
          | _ -> Envelope.Gap
        in
        { Envelope.r_session; r_seq; status; data })
      (quad nat_gen int_gen (int_bound 2) data_gen))

let envelope_props =
  [
    prop "service envelope roundtrips" envelope_gen (fun e ->
        Envelope.decode (Envelope.encode e) = Some e);
    prop "service reply roundtrips" reply_gen (fun r ->
        Envelope.decode_reply (Envelope.encode_reply r) = Some r);
    prop "every strict prefix of an envelope is rejected" envelope_gen
      (fun e ->
        let s = Envelope.encode e in
        let ok = ref true in
        for len = 0 to String.length s - 1 do
          if Envelope.decode (String.sub s 0 len) <> None then ok := false
        done;
        !ok);
    prop "envelope trailing garbage is rejected" envelope_gen (fun e ->
        Envelope.decode (Envelope.encode e ^ "\x00") = None);
    prop "envelope decode of arbitrary bytes never raises"
      QCheck.Gen.(string_size (int_bound 64))
      (fun s ->
        match Envelope.decode s with
        | Some _ | None -> Envelope.decode_reply s = Envelope.decode_reply s);
    prop "bare kv commands are not service envelopes" data_gen (fun key ->
        let cmd = Abcast_apps.Kv.set_cmd ~key ~value:"v" in
        (not (Envelope.is_service cmd)) && Envelope.decode cmd = None);
  ]

(* --- Kv commands (payload bytes from the network) --------------------- *)

module Kv = Abcast_apps.Kv

let kv_cmd_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun k v -> Kv.Set (k, v)) data_gen data_gen;
        map (fun k -> Kv.Del k) data_gen;
        map (fun k -> Kv.Get k) data_gen;
        map (fun k -> Kv.Incr k) data_gen;
      ])

let kv_encode = function
  | Kv.Set (key, value) -> Kv.set_cmd ~key ~value
  | Kv.Del key -> Kv.del_cmd ~key
  | Kv.Get key -> Kv.get_cmd ~key
  | Kv.Incr key -> Kv.incr_cmd ~key

let kv_props =
  [
    prop "kv command roundtrips" kv_cmd_gen (fun c ->
        Kv.decode_cmd (kv_encode c) = Some c);
    prop "every strict prefix of a kv command is rejected" kv_cmd_gen
      (fun c ->
        let s = kv_encode c in
        let ok = ref true in
        for len = 0 to String.length s - 1 do
          if Kv.decode_cmd (String.sub s 0 len) <> None then ok := false
        done;
        !ok);
    prop "kv command trailing garbage is rejected" kv_cmd_gen (fun c ->
        Kv.decode_cmd (kv_encode c ^ "\x00") = None);
    prop "kv decode of arbitrary bytes never raises"
      QCheck.Gen.(string_size (int_bound 64))
      (fun s -> match Kv.decode_cmd s with Some _ | None -> true);
  ]

(* --- Rejection: truncation, garbage, hostile input ------------------- *)

(* Every encoding is prefix-free at the top level (length/count prefixes +
   expect_end), so every strict prefix of a valid message must be
   rejected — this is what makes a truncated datagram safe to drop. *)
let truncation_props =
  [
    prop "every strict prefix of a msg encoding is rejected" msg_gen
      (fun m ->
        let s = P.encode_msg m in
        let ok = ref true in
        for len = 0 to String.length s - 1 do
          if P.decode_msg (String.sub s 0 len) <> None then ok := false
        done;
        !ok);
    prop "trailing garbage is rejected" msg_gen (fun m ->
        P.decode_msg (P.encode_msg m ^ "\x00") = None);
    prop "decoding arbitrary bytes never raises"
      QCheck.Gen.(string_size (int_bound 64))
      (fun s ->
        match P.decode_msg s with Some _ | None -> true);
  ]

let rejection_tests =
  [
    test "a marshalled blob is not a kv command and leaves the store as is"
      (fun () ->
        let blob = Marshal.to_string (1, 2) [] in
        Alcotest.(check bool) "decode rejects" true (Kv.decode_cmd blob = None);
        let st, _ = Kv.eval Kv.Machine.initial (Kv.incr_cmd ~key:"c1") in
        let st', reply = Kv.eval st blob in
        Alcotest.(check string) "no reply" "" reply;
        Alcotest.(check (list (pair string string)))
          "state unchanged" (Kv.bindings st) (Kv.bindings st'));
    test "Incr on a short key is five bytes" (fun () ->
        Alcotest.(check int) "tag + length + key" 5
          (String.length (Kv.incr_cmd ~key:"c12")));
    test "empty buffer is rejected" (fun () ->
        Alcotest.(check bool) "empty" true (P.decode_msg "" = None));
    test "overlong varint is rejected" (fun () ->
        Alcotest.(check bool) "10 continuation bytes" true
          (Wire.of_string_opt Wire.read_varint (String.make 10 '\x80') = None));
    test "unterminated varint is rejected" (fun () ->
        Alcotest.(check bool) "all-continuation" true
          (Wire.of_string_opt Wire.read_varint "\x80" = None));
    test "bad message tag is rejected" (fun () ->
        Alcotest.(check bool) "tag 250" true (P.decode_msg "\xfa" = None));
    test "hostile list count cannot force a huge allocation" (fun () ->
        (* Gossip framing with a 100M-element count and no elements: the
           reader rejects the count against the remaining byte budget
           before allocating anything. *)
        let w = Wire.writer () in
        Wire.write_u8 w 0;
        Wire.write_varint w 0;
        Wire.write_varint w 0;
        Wire.write_uvarint w 100_000_000;
        Alcotest.(check bool) "rejected" true
          (P.decode_msg (Wire.contents w) = None));
    test "storage slot with wire codec rejects corrupt bytes" (fun () ->
        let store =
          Storage.create ~metrics:(Metrics.create ()) ~node:0 ()
        in
        let slot =
          Storage.Slot.make
            ~codec:(Protocol.encode_checkpoint, Protocol.decode_checkpoint)
            store ~layer:"t" ~key:"ck"
        in
        Storage.Slot.set slot (3, Agreed.snapshot (Agreed.create ()));
        (match Storage.Slot.get slot with
        | Some (3, _) -> ()
        | _ -> Alcotest.fail "roundtrip through storage failed");
        Storage.write store ~layer:"t" ~key:"ck" "garbage!";
        Alcotest.(check bool) "corrupt -> None" true
          (Storage.Slot.get slot = None));
    test "coord Estimate with ts = -1 roundtrips" (fun () ->
        let m = Coord.Estimate { r = 0; v = "v"; ts = -1 } in
        Alcotest.(check bool) "eq" true
          (Wire.of_string_opt Coord.read_msg
             (Wire.to_string Coord.write_msg m)
          = Some m));
    test "coord codec roundtrips through Multi wrapper" (fun () ->
        let m = PC.Cons (PC.M.Inst (7, Coord.Ack { r = 2 })) in
        Alcotest.(check bool) "eq" true
          (PC.decode_msg (PC.encode_msg m) = Some m));
    test "small ints cost one byte" (fun () ->
        List.iter
          (fun (n, bytes) ->
            let w = Wire.writer () in
            Wire.write_varint w n;
            Alcotest.(check int)
              (Printf.sprintf "varint %d" n)
              bytes (Wire.length w))
          [ (0, 1); (1, 1); (-1, 1); (63, 1); (64, 2); (max_int, 9) ]);
  ]

(* --- End-to-end equivalence sweep ------------------------------------ *)

(* Wrap a stack so every message is encoded and re-decoded through the
   wire codec before the handler sees it — in the simulator messages
   normally travel as in-memory values, so this forces the exact bytes a
   live datagram would carry. The delivery order must be identical to the
   unwrapped baseline on the same seed. *)
let with_codec_roundtrip (stack : Proto.t) : Proto.t =
  let module S = (val stack : Proto.S) in
  (module struct
    include S

    let name = S.name ^ "+codec"

    let handler t ~src m =
      match S.decode_msg (S.encode_msg m) with
      | Some m' -> S.handler t ~src m'
      | None ->
        Alcotest.failf "wire roundtrip failed for a %s message" S.name
  end : Proto.S)

(* Adversarial run: loss, duplication and a crash/recovery. Returns the
   full delivery order of node 0 (basic protocol: nothing is compacted,
   so the tail is the entire sequence). *)
let equiv_run ~stack ~seed =
  let net = Net.create ~loss:0.12 ~dup:0.05 () in
  let cluster = Cluster.create stack ~seed ~n:3 ~net () in
  let rng = Rng.create (seed + 4242) in
  Cluster.at cluster 12_000 (fun () -> Cluster.crash cluster 1);
  Cluster.at cluster 30_000 (fun () -> Cluster.recover cluster 1);
  let count =
    Workload.open_loop cluster ~rng ~senders:[ 0; 2 ] ~start:1_000 ~stop:40_000
      ~mean_gap:900 ()
  in
  let ok =
    Cluster.run_until cluster ~until:400_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
      ()
  in
  if not ok then Alcotest.failf "seed %d: did not quiesce" seed;
  check_ok
    (Printf.sprintf "properties (seed %d)" seed)
    (Checks.all ~cluster ~good:[ 0; 1; 2 ] ());
  List.map (fun (p : Payload.t) -> (p.id, p.data))
    (Cluster.delivered_tail cluster 0)

let equivalence_tests =
  [
    slow_test "codec-roundtrip delivery order equals baseline (16 seeds)"
      (fun () ->
        let basic = Factory.make Protocol.paper_basic in
        for seed = 400 to 415 do
          let baseline = equiv_run ~stack:basic ~seed in
          let codec =
            equiv_run ~stack:(with_codec_roundtrip basic) ~seed
          in
          if baseline = [] then Alcotest.failf "seed %d: empty run" seed;
          if codec <> baseline then
            Alcotest.failf "seed %d: delivery order diverged" seed
        done);
    slow_test "codec-roundtrip equivalence, alternative/coord stack"
      (fun () ->
        (* The alternative protocol compacts its tail, so compare the
           (count, vclock) fingerprint instead of the full order. *)
        let fingerprint stack seed =
          let net = Net.create ~loss:0.12 ~dup:0.05 () in
          let cluster = Cluster.create stack ~seed ~n:3 ~net () in
          let rng = Rng.create (seed + 99) in
          Cluster.at cluster 12_000 (fun () -> Cluster.crash cluster 1);
          Cluster.at cluster 30_000 (fun () -> Cluster.recover cluster 1);
          let count =
            Workload.open_loop cluster ~rng ~senders:[ 0; 2 ] ~start:1_000
              ~stop:40_000 ~mean_gap:900 ()
          in
          let ok =
            Cluster.run_until cluster ~until:400_000_000
              ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
              ()
          in
          if not ok then Alcotest.failf "seed %d: did not quiesce" seed;
          ( Cluster.delivered_count cluster 0,
            Vclock.streams (Cluster.delivery_vc cluster 0) )
        in
        List.iter
          (fun seed ->
            let alt = Factory.make ~consensus:`Coord Protocol.paper_alternative in
            let base = fingerprint alt seed in
            let codec = fingerprint (with_codec_roundtrip alt) seed in
            if base <> codec then
              Alcotest.failf "seed %d: fingerprints diverged" seed)
          [ 500; 501; 502; 503 ]);
  ]

let suite =
  ( "wire",
    rejection_tests @ equivalence_tests
    @ List.map QCheck_alcotest.to_alcotest
        (roundtrip_props @ audit_props @ envelope_props @ kv_props
       @ truncation_props) )
