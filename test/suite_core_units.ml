(* Unit and property tests for the core data structures: Payload, Vclock,
   Agreed, Batch, Unordered. *)

open Helpers
module Vclock = Abcast_core.Vclock
module Agreed = Abcast_core.Agreed
module Batch = Abcast_core.Batch
module Unordered = Abcast_core.Unordered

let id origin boot seq = { Payload.origin; boot; seq }

let pl ?(data = "d") i = Payload.make i data

let payload_tests =
  [
    test "id ordering is (origin, boot, seq)" (fun () ->
        Alcotest.(check bool) "origin" true
          (Payload.compare_id (id 0 5 5) (id 1 0 0) < 0);
        Alcotest.(check bool) "boot" true
          (Payload.compare_id (id 1 0 9) (id 1 1 0) < 0);
        Alcotest.(check bool) "seq" true
          (Payload.compare_id (id 1 1 0) (id 1 1 1) < 0);
        Alcotest.(check int) "equal" 0 (Payload.compare_id (id 2 1 3) (id 2 1 3)));
    test "equal_id" (fun () ->
        Alcotest.(check bool) "eq" true (Payload.equal_id (id 1 2 3) (id 1 2 3));
        Alcotest.(check bool) "neq" false (Payload.equal_id (id 1 2 3) (id 1 2 4)));
    test "payload compare ignores data" (fun () ->
        Alcotest.(check int) "same id" 0
          (Payload.compare (pl ~data:"a" (id 0 0 0)) (pl ~data:"b" (id 0 0 0))));
    test "sort_batch sorts and dedupes" (fun () ->
        let batch =
          [ pl (id 1 0 0); pl (id 0 0 1); pl (id 1 0 0); pl (id 0 0 0) ]
        in
        let sorted = Payload.sort_batch batch in
        Alcotest.(check (list string))
          "ids"
          [ "p0.0.0"; "p0.0.1"; "p1.0.0" ]
          (List.map (fun (p : Payload.t) -> Format.asprintf "%a" Payload.pp_id p.id) sorted));
    test "pp_id renders" (fun () ->
        Alcotest.(check string) "fmt" "p2.1.7"
          (Format.asprintf "%a" Payload.pp_id (id 2 1 7)));
  ]

let vclock_tests =
  [
    test "empty contains nothing" (fun () ->
        Alcotest.(check bool) "none" false (Vclock.contains Vclock.empty (id 0 0 0)));
    test "add then contains up to max seq" (fun () ->
        let vc = Vclock.add (Vclock.add Vclock.empty (id 0 0 0)) (id 0 0 1) in
        Alcotest.(check bool) "0" true (Vclock.contains vc (id 0 0 0));
        Alcotest.(check bool) "1" true (Vclock.contains vc (id 0 0 1));
        Alcotest.(check bool) "2" false (Vclock.contains vc (id 0 0 2)));
    test "streams are independent" (fun () ->
        let vc = Vclock.add (Vclock.add Vclock.empty (id 0 0 0)) (id 1 0 0) in
        Alcotest.(check bool) "other boot" false (Vclock.contains vc (id 0 1 0));
        Alcotest.(check int) "two streams" 2 (List.length (Vclock.streams vc)));
    test "gap raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Vclock.add Vclock.empty (id 0 0 1));
             false
           with Invalid_argument _ -> true));
    test "rewind raises" (fun () ->
        let vc = Vclock.add (Vclock.add Vclock.empty (id 0 0 0)) (id 0 0 1) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Vclock.add vc (id 0 0 1));
             false
           with Invalid_argument _ -> true));
    test "same seq different boots are distinct streams" (fun () ->
        let vc = Vclock.add (Vclock.add Vclock.empty (id 0 0 0)) (id 0 1 0) in
        Alcotest.(check bool) "b0" true (Vclock.contains vc (id 0 0 0));
        Alcotest.(check bool) "b1" true (Vclock.contains vc (id 0 1 0)));
  ]

let vclock_props =
  [
    QCheck.Test.make ~name:"vclock contains exactly the added prefix" ~count:200
      QCheck.(pair (int_range 0 20) (int_range 0 20))
      (fun (len, probe) ->
        let vc = ref Vclock.empty in
        for s = 0 to len - 1 do
          vc := Vclock.add !vc (id 3 1 s)
        done;
        Vclock.contains !vc (id 3 1 probe) = (probe < len));
  ]

let agreed_tests =
  [
    test "append then contains; duplicates rejected" (fun () ->
        let q = Agreed.create () in
        Alcotest.(check bool) "fresh" true (Agreed.append q (pl (id 0 0 0)));
        Alcotest.(check bool) "dup" false (Agreed.append q (pl (id 0 0 0)));
        Alcotest.(check int) "len" 1 (Agreed.total_len q));
    test "tail preserves append order" (fun () ->
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 1 0 0)));
        ignore (Agreed.append q (pl (id 0 0 0)));
        Alcotest.(check (list string)) "order" [ "p1.0.0"; "p0.0.0" ]
          (List.map
             (fun (p : Payload.t) -> Format.asprintf "%a" Payload.pp_id p.id)
             (Agreed.tail q)));
    test "compact keeps membership, empties tail" (fun () ->
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        ignore (Agreed.append q (pl (id 1 0 0)));
        Agreed.compact q ~app_blob:"snap";
        Alcotest.(check int) "len" 2 (Agreed.total_len q);
        Alcotest.(check int) "tail" 0 (List.length (Agreed.tail q));
        Alcotest.(check bool) "contains" true (Agreed.contains q (id 0 0 0));
        Alcotest.(check bool) "dup still rejected" false
          (Agreed.append q (pl (id 0 0 0))));
    test "snapshot/restore roundtrip" (fun () ->
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        Agreed.compact q ~app_blob:"s";
        ignore (Agreed.append q (pl (id 0 0 1)));
        let r = Agreed.snapshot q in
        let q' = Agreed.restore r in
        Alcotest.(check int) "len" 2 (Agreed.total_len q');
        Alcotest.(check int) "tail" 1 (List.length (Agreed.tail q'));
        Alcotest.(check bool) "contains base" true (Agreed.contains q' (id 0 0 0)));
    test "adopt: donor behind is a no-op" (fun () ->
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        let donor = Agreed.create () in
        (match Agreed.adopt q (Agreed.snapshot donor) with
        | `Deliver [] -> ()
        | _ -> Alcotest.fail "expected empty deliver");
        Alcotest.(check int) "unchanged" 1 (Agreed.total_len q));
    test "adopt: deliver path returns only the missing suffix" (fun () ->
        let donor = Agreed.create () in
        ignore (Agreed.append donor (pl (id 0 0 0)));
        ignore (Agreed.append donor (pl (id 1 0 0)));
        ignore (Agreed.append donor (pl (id 2 0 0)));
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        (match Agreed.adopt q (Agreed.snapshot donor) with
        | `Deliver missing ->
          Alcotest.(check (list string)) "suffix" [ "p1.0.0"; "p2.0.0" ]
            (List.map
               (fun (p : Payload.t) -> Format.asprintf "%a" Payload.pp_id p.id)
               missing)
        | `Install _ -> Alcotest.fail "expected deliver");
        Alcotest.(check int) "caught up" 3 (Agreed.total_len q));
    test "adopt: install path when behind the donor's base" (fun () ->
        let donor = Agreed.create () in
        ignore (Agreed.append donor (pl (id 0 0 0)));
        ignore (Agreed.append donor (pl (id 1 0 0)));
        Agreed.compact donor ~app_blob:"base2";
        ignore (Agreed.append donor (pl (id 2 0 0)));
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        (match Agreed.adopt q (Agreed.snapshot donor) with
        | `Install (Some "base2", [ p ]) ->
          Alcotest.(check string) "tail" "p2.0.0"
            (Format.asprintf "%a" Payload.pp_id p.id)
        | _ -> Alcotest.fail "expected install of base2 with 1 tail msg");
        Alcotest.(check int) "adopted len" 3 (Agreed.total_len q));
    test "suffix_snapshot returns only the missing part" (fun () ->
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        ignore (Agreed.append q (pl (id 1 0 0)));
        ignore (Agreed.append q (pl (id 2 0 0)));
        (match Agreed.suffix_snapshot q ~from_len:1 with
        | Some r ->
          Alcotest.(check int) "base" 1 r.base_len;
          Alcotest.(check int) "tail" 2 (List.length r.tail);
          Alcotest.(check bool) "no app" true (r.base_app = None)
        | None -> Alcotest.fail "expected a suffix");
        (* adopting the suffix catches the receiver up *)
        let receiver = Agreed.create () in
        ignore (Agreed.append receiver (pl (id 0 0 0)));
        (match
           Agreed.adopt receiver (Option.get (Agreed.suffix_snapshot q ~from_len:1))
         with
        | `Deliver missing -> Alcotest.(check int) "two" 2 (List.length missing)
        | `Install _ -> Alcotest.fail "deliver path expected");
        Alcotest.(check int) "caught up" 3 (Agreed.total_len receiver));
    test "adopt of a trimmed repr keeps the local prefix in the tail" (fun () ->
        (* regression: adopting a suffix snapshot must append the missing
           messages, not replace the receiver's state with the prefix-less
           trimmed repr (which would drop already-delivered messages from
           [tail] and break the delivered-sequence prefix property) *)
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        ignore (Agreed.append q (pl (id 1 0 0)));
        ignore (Agreed.append q (pl (id 2 0 0)));
        let receiver = Agreed.create () in
        ignore (Agreed.append receiver (pl (id 0 0 0)));
        (match
           Agreed.adopt receiver (Option.get (Agreed.suffix_snapshot q ~from_len:1))
         with
        | `Deliver _ -> ()
        | `Install _ -> Alcotest.fail "deliver path expected");
        Alcotest.(check (list string)) "full tail retained"
          [ "p0.0.0"; "p1.0.0"; "p2.0.0" ]
          (List.map
             (fun (p : Payload.t) -> Format.asprintf "%a" Payload.pp_id p.id)
             (Agreed.tail receiver));
        Alcotest.(check bool) "prefix still contained" true
          (Agreed.contains receiver (id 0 0 0)));
    test "suffix_snapshot refuses to reach into the base" (fun () ->
        let q = Agreed.create () in
        ignore (Agreed.append q (pl (id 0 0 0)));
        ignore (Agreed.append q (pl (id 1 0 0)));
        Agreed.compact q ~app_blob:"s";
        ignore (Agreed.append q (pl (id 2 0 0)));
        Alcotest.(check bool) "inside base" true
          (Agreed.suffix_snapshot q ~from_len:1 = None);
        Alcotest.(check bool) "beyond end" true
          (Agreed.suffix_snapshot q ~from_len:9 = None);
        Alcotest.(check bool) "at base edge ok" true
          (Agreed.suffix_snapshot q ~from_len:2 <> None));
    test "fifo violation raises" (fun () ->
        let q = Agreed.create () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Agreed.append q (pl (id 0 0 5)));
             false
           with Invalid_argument _ -> true));
  ]

let batch_tests =
  [
    test "roundtrip preserves content" (fun () ->
        let ps = [ pl ~data:"a" (id 1 0 0); pl ~data:"b" (id 0 0 0) ] in
        let decoded = Batch.decode (Batch.encode ps) in
        Alcotest.(check int) "len" 2 (List.length decoded);
        Alcotest.(check string) "sorted first" "p0.0.0"
          (Format.asprintf "%a" Payload.pp_id (List.hd decoded).id));
    test "empty batch" (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (Batch.decode (Batch.encode []))));
    test "equal sets encode equally regardless of order" (fun () ->
        let a = [ pl (id 0 0 0); pl (id 1 0 0) ] in
        let b = [ pl (id 1 0 0); pl (id 0 0 0) ] in
        Alcotest.(check string) "equal" (Batch.encode a) (Batch.encode b));
    test "duplicates removed by encode" (fun () ->
        let ps = [ pl (id 0 0 0); pl (id 0 0 0) ] in
        Alcotest.(check int) "one" 1 (List.length (Batch.decode (Batch.encode ps))));
    test "size is the string length" (fun () ->
        let v = Batch.encode [ pl (id 0 0 0) ] in
        Alcotest.(check int) "size" (String.length v) (Batch.size v));
  ]

let agreed_props =
  [
    QCheck.Test.make ~name:"adopt always reconciles receiver with donor"
      ~count:200
      QCheck.(pair (int_range 0 20) (int_range 0 20))
      (fun (donor_len, cut) ->
        (* donor delivers donor_len messages of one stream; receiver holds
           a prefix of length min cut donor_len; after adopt they agree *)
        let donor = Agreed.create () in
        for s = 0 to donor_len - 1 do
          ignore (Agreed.append donor (pl (id 0 0 s)))
        done;
        let receiver = Agreed.create () in
        for s = 0 to min cut donor_len - 1 do
          ignore (Agreed.append receiver (pl (id 0 0 s)))
        done;
        (match Agreed.adopt receiver (Agreed.snapshot donor) with
        | `Deliver _ | `Install _ -> ());
        Agreed.total_len receiver = max donor_len (min cut donor_len)
        && Agreed.vc receiver
           = (if donor_len >= min cut donor_len then Agreed.vc donor
              else Agreed.vc receiver));
    QCheck.Test.make ~name:"suffix_snapshot + adopt equals full adopt"
      ~count:200
      QCheck.(pair (int_range 1 20) (int_range 0 20))
      (fun (donor_len, cut) ->
        let cut = min cut donor_len in
        let donor = Agreed.create () in
        for s = 0 to donor_len - 1 do
          ignore (Agreed.append donor (pl (id 0 0 s)))
        done;
        match Agreed.suffix_snapshot donor ~from_len:cut with
        | None -> false (* no base: every prefix must be available *)
        | Some trimmed ->
          let receiver = Agreed.create () in
          for s = 0 to cut - 1 do
            ignore (Agreed.append receiver (pl (id 0 0 s)))
          done;
          (match Agreed.adopt receiver trimmed with
          | `Deliver _ -> ()
          | `Install _ -> ());
          Agreed.total_len receiver = donor_len
          && Agreed.vc receiver = Agreed.vc donor);
  ]

let batch_props =
  [
    QCheck.Test.make ~name:"batch roundtrip = sort_batch" ~count:200
      QCheck.(list (triple (int_range 0 4) (int_range 0 2) (int_range 0 5)))
      (fun triples ->
        let ps = List.map (fun (o, b, s) -> pl (id o b s)) triples in
        Batch.decode (Batch.encode ps) = Payload.sort_batch ps);
  ]

(* --- Unordered against a list model ----------------------------------- *)

(* One step of the sequencer's life. The operations keep the caller
   invariant of [Unordered]: an id leaves the set only once the
   delivery clock covers it. *)
type u_op =
  | Add of int * int * int  (** admit (origin, boot, seq) unless delivered *)
  | Deliver of int * int  (** a stream's next seq is delivered and leaves *)
  | Absorb of int * int  (** a stream's next seq is ordered but stays held *)
  | Remove of int  (** the nth held id, if delivered (a duplicate) *)
  | Drop  (** state transfer's bulk drop of every delivered id *)
  | Cover of int * int  (** the nth held id, at instance committed + d *)
  | Commit  (** the commit cursor moves one instance *)
  | Park of int  (** the nth held id, skipped as a gap *)

let pp_u_op = function
  | Add (o, b, s) -> Printf.sprintf "Add %d.%d.%d" o b s
  | Deliver (o, b) -> Printf.sprintf "Deliver %d.%d" o b
  | Absorb (o, b) -> Printf.sprintf "Absorb %d.%d" o b
  | Remove i -> Printf.sprintf "Remove %d" i
  | Drop -> "Drop"
  | Cover (i, d) -> Printf.sprintf "Cover %d +%d" i d
  | Commit -> "Commit"
  | Park i -> Printf.sprintf "Park %d" i

let u_op_gen =
  QCheck.Gen.(
    let o = int_range 0 2 and b = int_range 0 1 in
    frequency
      [
        (8, map3 (fun o b s -> Add (o, b, s)) o b (int_range 0 11));
        (3, map2 (fun o b -> Deliver (o, b)) o b);
        (1, map2 (fun o b -> Absorb (o, b)) o b);
        (1, map (fun i -> Remove i) (int_range 0 20));
        (1, return Drop);
        (3, map2 (fun i d -> Cover (i, d)) (int_range 0 20) (int_range 0 3));
        (2, return Commit);
        (2, map (fun i -> Park i) (int_range 0 20));
      ])

let u_streams = [ (0, 0); (2, 1); (1, 0); (0, 1); (2, 0); (1, 1) ]

let unordered_props =
  [
    QCheck.Test.make ~name:"unordered matches a list model after every step"
      ~count:300
      QCheck.(
        pair
          (make
             ~print:(fun ops -> String.concat "; " (List.map pp_u_op ops))
             Gen.(list_size (int_range 1 80) u_op_gen))
          (int_range 0 12))
      (fun (ops, cap) ->
        let u = Unordered.create () in
        let vc = ref Vclock.empty in
        (* the model *)
        let held = ref [] (* ids *)
        and cov = ref [] (* (id, instance) *)
        and maxseen = ref [] (* ((origin, boot), seq), first admission *)
        and parked = ref [] (* ids *)
        and committed = ref 0 in
        let next o b = Vclock.next_seq !vc ~origin:o ~boot:b in
        let delivered (i : Payload.id) = i.seq < next i.origin i.boot in
        let leave i =
          Unordered.remove u i;
          held := List.filter (( <> ) i) !held;
          cov := List.filter (fun (i', _) -> i' <> i) !cov;
          parked := List.filter (( <> ) i) !parked
        in
        (* parked, and some smaller seq neither delivered nor held *)
        let blocked (i : Payload.id) =
          List.mem i !parked
          && List.exists
               (fun s ->
                 let j = id i.origin i.boot s in
                 not (delivered j || List.mem j !held))
               (List.init i.seq Fun.id)
        in
        let step = function
          | Add (o, b, s) ->
            let i = id o b s in
            if not (delivered i) then begin
              Unordered.add u ~vc:!vc (pl i);
              if not (List.mem i !held) then held := i :: !held;
              match List.assoc_opt (o, b) !maxseen with
              | Some m when m >= s -> ()
              | _ ->
                maxseen := ((o, b), s) :: List.remove_assoc (o, b) !maxseen
            end
          | Deliver (o, b) ->
            let i = id o b (next o b) in
            vc := Vclock.add !vc i;
            leave i
          | Absorb (o, b) -> vc := Vclock.add !vc (id o b (next o b))
          | Remove n -> (
            match List.nth_opt !held n with
            | Some i when delivered i -> leave i
            | _ -> ())
          | Drop ->
            Unordered.drop_if u (Vclock.contains !vc);
            held := List.filter (fun i -> not (delivered i)) !held;
            cov := List.filter (fun (i, _) -> not (delivered i)) !cov;
            parked := List.filter (fun i -> not (delivered i)) !parked
          | Cover (n, d) -> (
            match List.nth_opt !held n with
            | Some i ->
              Unordered.cover u (!committed + d) i;
              cov := (i, !committed + d) :: List.remove_assoc i !cov
            | None -> ())
          | Commit -> incr committed
          | Park n -> (
            match List.nth_opt !held n with
            | Some i ->
              Unordered.park u i;
              if not (List.mem i !parked) then parked := i :: !parked
            | None -> ())
        in
        let ids = List.map (fun (p : Payload.t) -> p.id) in
        let model_missing () =
          let budget = ref cap in
          List.fold_left
            (fun acc (o, b) ->
              let w = ref (next o b - 1) in
              while List.mem (id o b (!w + 1)) !held do
                incr w
              done;
              let acc = ref acc in
              for s = !w + 1 to 11 do
                if !budget > 0 && not (List.mem (id o b s) !held) then begin
                  decr budget;
                  acc := id o b s :: !acc
                end
              done;
              !acc)
            []
            u_streams
        in
        List.for_all
          (fun op ->
            step op;
            let sorted = List.sort Payload.compare_id !held in
            ids (Unordered.to_list u) = sorted
            && Unordered.count u = List.length sorted
            && List.sort compare (Unordered.summary u)
               = List.sort compare
                   (List.map (fun ((o, b), s) -> (o, b, s)) !maxseen)
            && Unordered.missing u ~vc:!vc ~cap
                 (List.map (fun (o, b) -> (o, b, 11)) u_streams)
               = model_missing ()
            && ids (Unordered.uncovered u ~vc:!vc ~committed:!committed)
               = List.filter
                   (fun i ->
                     not
                       (List.exists
                          (fun (i', j) -> i' = i && j >= !committed)
                          !cov)
                     && not (blocked i))
                   sorted
            && Unordered.covered_count u = List.length !cov)
          ops);
  ]

(* --- Stable: what the broadcast layer keeps on stable storage -------- *)

(* One store per test, reopened as a recovering node would find it: the
   same table on the memory backend, a fresh replay of the directory on
   the WAL backend. *)
let stable_dirs = ref 0

let with_backend backend f =
  let metrics = Metrics.create () in
  match backend with
  | `Memory ->
    let store = Storage.create ~metrics ~node:0 () in
    f ~metrics (fun () -> store)
  | `Wal ->
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (incr stable_dirs;
         Printf.sprintf "abcast-stable-%d-%d" (Unix.getpid ()) !stable_dirs)
    in
    let current = ref None in
    let reopen () =
      Option.iter Storage.close !current;
      let store = Storage.create ~dir ~metrics ~node:0 () in
      current := Some store;
      store
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Storage.close !current;
        Abcast_store.Durable.rm_rf dir)
      (fun () -> f ~metrics reopen)

(* (name, early_return, incremental) *)
let log_modes =
  [ ("no log", false, false); ("per item", true, true); ("full set", true, false) ]

let stable_create store ~boot (_, early_return, incremental) =
  Stable.create store ~self:0 ~boot ~app:None ~early_return ~incremental

let abcast_ops metrics = Metrics.get metrics ~node:0 "log_ops.abcast"

(* Broadcast [ids] as own payloads: into the set, then the log. *)
let log_own st u agreed ids =
  List.iter
    (fun i ->
      let p = pl i in
      Unordered.add u ~vc:(Agreed.vc agreed) p;
      Stable.log_add st u p)
    ids

let deliver u agreed ids =
  List.iter
    (fun i ->
      ignore (Agreed.append agreed (pl i));
      Unordered.remove u i)
    ids

let restored_ids st agreed =
  let u = Unordered.create () in
  Stable.restore st agreed u;
  List.map (fun (p : Payload.t) -> p.id) (Unordered.to_list u)

let ids_t = Alcotest.testable (Fmt.list Payload.pp_id) ( = )

let stable_tests =
  List.concat_map
    (fun (backend, bname) ->
      List.concat_map
        (fun ((mname, early_return, _) as mode) ->
          let name what = Printf.sprintf "stable (%s, %s): %s" mname bname what in
          let logs = early_return in
          [
            test (name "log_add then restore gives the undelivered own payloads")
              (fun () ->
                with_backend backend (fun ~metrics:_ reopen ->
                    let agreed = Agreed.create () and u = Unordered.create () in
                    let st = stable_create (reopen ()) ~boot:0 mode in
                    log_own st u agreed (List.init 5 (id 0 0));
                    deliver u agreed [ id 0 0 0; id 0 0 1 ];
                    let st' = stable_create (reopen ()) ~boot:1 mode in
                    Alcotest.check ids_t "restored"
                      (if logs then [ id 0 0 2; id 0 0 3; id 0 0 4 ] else [])
                      (restored_ids st' agreed)));
            test (name "a checkpoint of an unmoved node writes nothing")
              (fun () ->
                with_backend backend (fun ~metrics reopen ->
                    let agreed = Agreed.create () and u = Unordered.create () in
                    let st = stable_create (reopen ()) ~boot:0 mode in
                    log_own st u agreed [ id 0 0 0; id 0 0 1 ];
                    deliver u agreed [ id 0 0 0 ];
                    let truncated = ref [] in
                    let truncate k = truncated := k :: !truncated in
                    Stable.checkpoint st ~k:1 agreed u ~truncate;
                    let ops = abcast_ops metrics in
                    Stable.checkpoint st ~k:1 agreed u ~truncate;
                    Alcotest.(check int) "no record" ops (abcast_ops metrics);
                    Alcotest.(check (list int)) "truncated once" [ 1 ] !truncated;
                    let st' = stable_create (reopen ()) ~boot:1 mode in
                    match Stable.last_checkpoint st' with
                    | Some (k, a) ->
                      Alcotest.(check int) "k" 1 k;
                      Alcotest.(check int) "len" 1 (Agreed.total_len a)
                    | None -> Alcotest.fail "no checkpoint record"));
            test (name "retirement drops only each own stream's delivered prefix")
              (fun () ->
                with_backend backend (fun ~metrics:_ reopen ->
                    let agreed = Agreed.create () and u = Unordered.create () in
                    (* boot 1's node still holds boot 0's stream; seqs
                       past 9 check that the padded keys keep seq order *)
                    let st = stable_create (reopen ()) ~boot:1 mode in
                    log_own st u agreed (List.init 12 (id 0 0) @ List.init 3 (id 0 1));
                    deliver u agreed (List.init 10 (id 0 0) @ [ id 0 1 0 ]);
                    Stable.checkpoint st ~k:11 agreed u ~truncate:ignore;
                    let left = [ id 0 0 10; id 0 0 11; id 0 1 1; id 0 1 2 ] in
                    let store = reopen () in
                    if mname = "per item" then
                      Alcotest.(check int) "item keys" (List.length left)
                        (List.length (Storage.keys_with_prefix store "ab/u/"));
                    Alcotest.check ids_t "restored"
                      (if logs then left else [])
                      (restored_ids (stable_create store ~boot:2 mode) agreed)));
          ]
          @
          if mname <> "full set" then []
          else
            [
              test (name "the set is rewritten only after a delivery") (fun () ->
                  with_backend backend (fun ~metrics reopen ->
                      let agreed = Agreed.create () and u = Unordered.create () in
                      let st = stable_create (reopen ()) ~boot:0 mode in
                      log_own st u agreed (List.init 3 (id 0 0));
                      let ops_of k =
                        let before = abcast_ops metrics in
                        Stable.checkpoint st ~k agreed u ~truncate:ignore;
                        abcast_ops metrics - before
                      in
                      Alcotest.(check int) "no delivery: the record only" 1 (ops_of 1);
                      deliver u agreed [ id 0 0 0 ];
                      Alcotest.(check int) "a delivery: record and set" 2 (ops_of 2);
                      Alcotest.(check int) "none since: the record only" 1 (ops_of 3)));
            ])
        log_modes)
    [ (`Memory, "memory"); (`Wal, "wal") ]
  @ [
      test "stable: adopt rejects a trimmed snapshot whose base we lack" (fun () ->
          let donor = Agreed.create () in
          List.iter (fun s -> ignore (Agreed.append donor (pl (id 1 0 s)))) (List.init 10 Fun.id);
          let receiver len =
            let a = Agreed.create () in
            List.iter (fun s -> ignore (Agreed.append a (pl (id 1 0 s)))) (List.init len Fun.id);
            a
          in
          let trimmed =
            match Agreed.suffix_snapshot donor ~from_len:6 with
            | Some r -> r
            | None -> Alcotest.fail "no suffix snapshot"
          in
          let adoptable ?(delta = Some 2) a repr =
            Stable.adoptable ~delta ~committed:0 a ~k:10 ~floor:0 repr
          in
          Alcotest.(check bool) "base not covered" false (adoptable (receiver 4) trimmed);
          Alcotest.(check bool) "base covered" true (adoptable (receiver 6) trimmed);
          Alcotest.(check bool) "full snapshot" true
            (adoptable (receiver 4) (Agreed.snapshot donor));
          Alcotest.(check bool) "no delta" false
            (adoptable ~delta:None (receiver 6) trimmed);
          Alcotest.(check bool) "the snapshot sent to len 6 is that suffix" true
            (Stable.snapshot_for donor ~for_len:(Some 6) = trimmed));
    ]

let suite =
  ( "core-units",
    payload_tests @ vclock_tests @ agreed_tests @ batch_tests @ stable_tests
    @ List.map QCheck_alcotest.to_alcotest
        (vclock_props @ agreed_props @ batch_props @ unordered_props) )
