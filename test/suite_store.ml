(* Tests for abcast.store: the segmented WAL, its crash fidelity (torn
   writes at every byte offset, kill-mid-compaction), and the WAL-backed
   Abcast_sim.Storage built on it — including a sweep that runs the same
   seeded simulation over memory and WAL storage and requires identical
   outcomes. *)

open Helpers
module Wal = Abcast_store.Wal
module Durable = Abcast_store.Durable

(* ---- scratch directories ---- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abcast-store-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Durable.mkdir_p d;
  d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> Durable.rm_rf d) (fun () -> f d)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_raw path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ---- an operation model for prefix properties ---- *)

type op = Put of string * string | Del of string | Range of string * string

let apply w = function
  | Put (k, v) -> Wal.put w k v
  | Del k -> Wal.delete w k
  | Range (lo, hi) -> Wal.delete_range w ~lo ~hi

let bindings w =
  List.sort compare (Wal.fold w (fun k v acc -> (k, v) :: acc) [])

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let model ops =
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | Put (k, v) -> Hashtbl.replace tbl k v
      | Del k -> Hashtbl.remove tbl k
      | Range (lo, hi) ->
        Hashtbl.filter_map_inplace
          (fun k v -> if k >= lo && k < hi then None else Some v)
          tbl)
    ops;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let prefix_models ops =
  List.init (List.length ops + 1) (fun i -> model (take i ops))

let kv_list = Alcotest.(list (pair string string))

(* Replay [ops] into a fresh single-segment log with no automatic
   compaction and return (dir, per-op end offsets including offset 0). *)
let build_log d ops =
  let w = Wal.open_ ~dir:d ~fsync:Durable.Never ~auto_compact:false () in
  let seg = Wal.current_segment w in
  let offsets =
    List.map
      (fun op ->
        apply w op;
        Wal.flush w;
        (Unix.stat seg).Unix.st_size)
      ops
  in
  Wal.close w;
  (seg, 0 :: offsets)

(* ---- WAL unit tests ---- *)

let wal_tests =
  [
    test "durable: rm_rf removes a nested tree; a missing path is a no-op"
      (fun () ->
        let d = fresh_dir () in
        Durable.mkdir_p (Filename.concat d "a/b/c");
        Durable.write_file (Filename.concat d "a/b/c/f") "x";
        Durable.write_file (Filename.concat d "a/g") "y";
        Durable.rm_rf d;
        Alcotest.(check bool) "tree gone" false (Sys.file_exists d);
        Durable.rm_rf d;
        Durable.rm_rf (Filename.concat d "never/existed"));
    test "wal: puts and deletes survive reopen" (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d () in
            Wal.put w "a" "1";
            Wal.put w "b" "two";
            Wal.put w "a" "one";
            Wal.delete w "b";
            Wal.put w "c" "";
            Wal.close w;
            let w2 = Wal.open_ ~dir:d () in
            Alcotest.check kv_list "recovered"
              [ ("a", "one"); ("c", "") ]
              (bindings w2);
            Alcotest.(check int) "recovered_records" 5
              (Wal.stats w2).Wal.recovered_records;
            Alcotest.(check int) "no tears" 0 (Wal.stats w2).Wal.torn_records;
            Wal.close w2));
    test "wal: an unflushed record is absent from the segment" (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~fsync:Durable.Never () in
            let seg = Wal.current_segment w in
            let size () = (Unix.stat seg).Unix.st_size in
            let writes () = (Wal.stats w).Wal.writes in
            Wal.put w "a" "1";
            Wal.put w "b" "two";
            Wal.delete w "a";
            Alcotest.(check int) "nothing in the file" 0 (size ());
            Alcotest.(check int) "no write yet" 0 (writes ());
            let pending = Wal.pending w in
            Alcotest.(check int) "the tail holds the records"
              (Wal.disk_bytes w) pending;
            Wal.flush w;
            Alcotest.(check int) "one write for three records" 1 (writes ());
            Alcotest.(check int) "the tail is in the file" pending (size ());
            Alcotest.(check int) "tail empty" 0 (Wal.pending w);
            Wal.flush w;
            Alcotest.(check int) "an empty flush writes nothing" 1 (writes ());
            Wal.close w));
    test "wal: delete of an absent key appends nothing" (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d () in
            Wal.delete w "ghost";
            Alcotest.(check int) "appends" 0 (Wal.stats w).Wal.appends;
            Wal.close w));
    test "wal: segments roll at the size threshold" (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~segment_bytes:128 ~fsync:Durable.Never
                ~auto_compact:false () in
            for i = 0 to 49 do
              Wal.put w (Printf.sprintf "key%02d" i) (String.make 16 'v')
            done;
            let segs = (Wal.stats w).Wal.segments in
            Alcotest.(check bool) "rolled" true (segs > 1);
            let on_disk =
              Array.to_list (Sys.readdir d)
              |> List.filter (fun n -> Filename.check_suffix n ".log")
            in
            Alcotest.(check int) "files match stats" segs
              (List.length on_disk);
            Wal.close w;
            let w2 = Wal.open_ ~dir:d () in
            Alcotest.(check int) "all keys back" 50 (Wal.length w2);
            Alcotest.(check (option string)) "spot check" (Some (String.make 16 'v'))
              (Wal.find w2 "key07");
            Wal.close w2));
    test "wal: overwrites trigger compaction and bound the disk" (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~segment_bytes:4096 ~compact_min_bytes:2048
                ~fsync:Durable.Never () in
            let v = String.make 64 'x' in
            for _ = 1 to 500 do
              Wal.put w "hot" v
            done;
            Wal.put w "cold" "c";
            let s = Wal.stats w in
            Alcotest.(check bool) "compacted" true (s.Wal.compactions >= 1);
            (* 500 × ~70-byte records ≈ 35 KB appended; compaction must keep
               the on-disk log near the ~80 live bytes, not the history *)
            Alcotest.(check bool) "disk bounded" true (Wal.disk_bytes w < 8192);
            Wal.close w;
            let w2 = Wal.open_ ~dir:d () in
            Alcotest.check kv_list "state intact"
              [ ("cold", "c"); ("hot", v) ]
              (bindings w2);
            Wal.close w2));
    test "wal: explicit compact is unconditional and preserves state"
      (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~fsync:Durable.Never ~auto_compact:false () in
            List.iter (apply w)
              [ Put ("a", "1"); Put ("b", "2"); Del "a"; Put ("c", "3") ];
            let before = bindings w in
            let bytes_before = Wal.disk_bytes w in
            Wal.compact w;
            Alcotest.check kv_list "live map unchanged" before (bindings w);
            Alcotest.(check bool) "dead bytes dropped" true
              (Wal.disk_bytes w < bytes_before);
            Wal.close w;
            let w2 = Wal.open_ ~dir:d () in
            Alcotest.check kv_list "snapshot replays" before (bindings w2);
            Wal.close w2));
    test "wal: fsync policies pace the sync calls" (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~fsync:Durable.Always ~auto_compact:false () in
            for i = 1 to 10 do
              Wal.put w (string_of_int i) "v"
            done;
            Alcotest.(check bool) "always: one sync per op" true
              ((Wal.stats w).Wal.fsyncs >= 10);
            Wal.close w);
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~fsync:Durable.Never ~auto_compact:false () in
            for i = 1 to 10 do
              Wal.put w (string_of_int i) "v"
            done;
            Alcotest.(check int) "never: zero syncs" 0 (Wal.stats w).Wal.fsyncs;
            Wal.close w);
        with_dir (fun d ->
            let w =
              Wal.open_ ~dir:d
                ~fsync:(Durable.Every { ops = 5; ms = 10_000 })
                ~auto_compact:false ()
            in
            for i = 1 to 20 do
              Wal.put w (string_of_int i) "v"
            done;
            let s = (Wal.stats w).Wal.fsyncs in
            Alcotest.(check bool) "every:5 syncs ~4 times" true
              (s >= 4 && s < 20);
            Wal.close w));
    test "wal: wipe empties the log durably" (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~fsync:Durable.Never () in
            Wal.put w "a" "1";
            Wal.wipe w;
            Alcotest.(check int) "empty" 0 (Wal.length w);
            Wal.put w "b" "2";
            Wal.close w;
            let w2 = Wal.open_ ~dir:d () in
            Alcotest.check kv_list "only post-wipe state" [ ("b", "2") ]
              (bindings w2);
            Wal.close w2));
  ]

(* ---- crash fidelity: torn tails ---- *)

(* A fixed op sequence whose last record we will damage at every byte
   offset. Values vary in size so the offsets exercise multi-byte
   regions of the frame (length varint, key, value, CRC). *)
let fixed_ops =
  [
    Put ("alpha", "1");
    Put ("beta", String.make 40 'b');
    Del "alpha";
    Put ("gamma", "ggg");
    Put ("beta", "2");
  ]

(* Reopen a copy of [seg_data] cut/mutated by [mutate] and return the
   recovered bindings. *)
let recover_mutated mutate seg_data =
  with_dir (fun d ->
      write_raw (Filename.concat d "wal-0000000001.log") (mutate seg_data);
      let w = Wal.open_ ~dir:d () in
      let got = bindings w in
      let torn = (Wal.stats w).Wal.torn_records in
      Wal.close w;
      (got, torn))

let crash_tests =
  [
    test "torn tail: truncation at every offset of the last record"
      (fun () ->
        with_dir (fun d ->
            let seg, offsets = build_log d fixed_ops in
            let data = read_file seg in
            let last_start = List.nth offsets (List.length fixed_ops - 1) in
            let expect = model (take (List.length fixed_ops - 1) fixed_ops) in
            Alcotest.(check int) "log length" (String.length data)
              (List.nth offsets (List.length fixed_ops));
            for cut = last_start to String.length data - 1 do
              let got, torn =
                recover_mutated (fun s -> String.sub s 0 cut) data
              in
              Alcotest.check kv_list
                (Printf.sprintf "cut at %d recovers the N-1 prefix" cut)
                expect got;
              if cut > last_start then
                Alcotest.(check int)
                  (Printf.sprintf "cut at %d counts one tear" cut)
                  1 torn
            done));
    test "torn tail: a flipped byte anywhere in the last record is rejected"
      (fun () ->
        with_dir (fun d ->
            let seg, offsets = build_log d fixed_ops in
            let data = read_file seg in
            let last_start = List.nth offsets (List.length fixed_ops - 1) in
            let expect = model (take (List.length fixed_ops - 1) fixed_ops) in
            for pos = last_start to String.length data - 1 do
              let flip s =
                let b = Bytes.of_string s in
                Bytes.set b pos
                  (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
                Bytes.to_string b
              in
              let got, torn = recover_mutated flip data in
              Alcotest.check kv_list
                (Printf.sprintf "flip at %d recovers the N-1 prefix" pos)
                expect got;
              Alcotest.(check int)
                (Printf.sprintf "flip at %d counts one tear" pos)
                1 torn
            done));
    test "torn tail: damage in a middle segment drops all later segments"
      (fun () ->
        with_dir (fun d ->
            let w = Wal.open_ ~dir:d ~segment_bytes:96 ~fsync:Durable.Never
                ~auto_compact:false () in
            let ops =
              List.init 30 (fun i ->
                  Put (Printf.sprintf "key%02d" i, String.make 12 'v'))
            in
            List.iter (apply w) ops;
            let segs = (Wal.stats w).Wal.segments in
            Alcotest.(check bool) "at least 3 segments" true (segs >= 3);
            Wal.close w;
            (* corrupt one byte in the middle of the second segment *)
            let seg_files =
              Array.to_list (Sys.readdir d)
              |> List.filter (fun n -> Filename.check_suffix n ".log")
              |> List.sort compare
            in
            let victim = Filename.concat d (List.nth seg_files 1) in
            let data = Bytes.of_string (read_file victim) in
            let pos = Bytes.length data / 2 in
            Bytes.set data pos
              (Char.chr (Char.code (Bytes.get data pos) lxor 0xff));
            write_raw victim (Bytes.to_string data);
            let w2 = Wal.open_ ~dir:d () in
            (* whatever survives must be the effect of an op prefix *)
            Alcotest.(check bool) "recovered a prefix" true
              (List.mem (bindings w2) (prefix_models ops));
            Alcotest.(check bool) "strictly shorter than the full log" true
              (Wal.length w2 < 30);
            Alcotest.(check int) "one tear" 1 (Wal.stats w2).Wal.torn_records;
            (* the segments after the damaged one must be gone from disk *)
            let remaining =
              Array.to_list (Sys.readdir d)
              |> List.filter (fun n -> Filename.check_suffix n ".log")
              |> List.sort compare
            in
            Alcotest.(check (list string)) "later segments unlinked"
              (take 2 seg_files) remaining;
            Wal.close w2));
  ]

(* ---- crash fidelity: kill mid-compaction ---- *)

let range_ops =
  [
    Put ("a/1", "x");
    Put ("a/2", "y");
    Put ("a/10", "z");
    Put ("b/1", String.make 20 'b');
    Range ("a/1", "a/2");
  ]

let range_tests =
  [
    test "wal: a range record drops [lo, hi) in byte order, on write and replay"
      (fun () ->
        with_dir (fun d ->
            let w =
              Wal.open_ ~dir:d ~fsync:Durable.Never ~auto_compact:false ()
            in
            List.iter (apply w) range_ops;
            let live = bindings w in
            Alcotest.check kv_list "writer: a/1 and a/10 gone"
              [ ("a/2", "y"); ("b/1", String.make 20 'b') ]
              live;
            Alcotest.(check int) "one record" 5 (Wal.stats w).Wal.appends;
            Wal.close w;
            let w2 = Wal.open_ ~dir:d () in
            Alcotest.check kv_list "replay equals the writer" live (bindings w2);
            Wal.close w2));
    test "wal: a range with no live key appends nothing" (fun () ->
        with_dir (fun d ->
            let w =
              Wal.open_ ~dir:d ~fsync:Durable.Never ~auto_compact:false ()
            in
            List.iter (apply w) range_ops;
            Wal.flush w;
            let seg_size () = (Unix.stat (Wal.current_segment w)).Unix.st_size in
            let appends = (Wal.stats w).Wal.appends and size = seg_size () in
            let live = bindings w in
            (* [a/1, a/2) was emptied by the last op; nothing sorts in [c, d) *)
            Wal.delete_range w ~lo:"a/1" ~hi:"a/2";
            Wal.delete_range w ~lo:"c" ~hi:"d";
            Wal.flush w;
            Alcotest.(check int) "no record appended" appends
              (Wal.stats w).Wal.appends;
            Alcotest.(check int) "segment unchanged" size (seg_size ());
            Alcotest.check kv_list "map unchanged" live (bindings w);
            Wal.close w));
    test "torn tail: a range record cut at every offset is all or nothing"
      (fun () ->
        with_dir (fun d ->
            let seg, offsets = build_log d range_ops in
            let data = read_file seg in
            let last = List.length range_ops - 1 in
            let last_start = List.nth offsets last in
            for cut = last_start to String.length data do
              let got, _ = recover_mutated (fun s -> String.sub s 0 cut) data in
              let expect =
                let whole = cut = String.length data in
                model (take (if whole then last + 1 else last) range_ops)
              in
              Alcotest.check kv_list (Printf.sprintf "cut at %d" cut) expect got
            done));
  ]

let compaction_crash_test point =
  test (Printf.sprintf "compaction killed at %s recovers cleanly" point)
    (fun () ->
      with_dir (fun d ->
          let w = Wal.open_ ~dir:d ~fsync:Durable.Never ~auto_compact:false () in
          List.iter (apply w)
            [
              Put ("a", "1");
              Put ("b", String.make 30 'b');
              Put ("c", "3");
              Del "b";
              Put ("a", "one");
              Del "c";
            ];
          let expect = bindings w in
          Wal.set_failpoint w (Some point);
          (match Wal.compact w with
          | () -> Alcotest.fail "failpoint did not fire"
          | exception Wal.Injected_crash _ -> ());
          (* the crashed instance is dead; a fresh open is the recovery *)
          let w2 = Wal.open_ ~dir:d () in
          Alcotest.check kv_list "state preserved" expect (bindings w2);
          Alcotest.(check int) "aborted compaction not counted" 0
            (Wal.stats w2).Wal.compactions;
          let tmps =
            Array.to_list (Sys.readdir d)
            |> List.filter (fun n -> Filename.check_suffix n ".tmp")
          in
          Alcotest.(check (list string)) "no tmp debris" [] tmps;
          (* and the recovered log remains fully usable *)
          Wal.put w2 "d" "4";
          Wal.close w2;
          let w3 = Wal.open_ ~dir:d () in
          Alcotest.check kv_list "still appendable"
            (List.sort compare (("d", "4") :: expect))
            (bindings w3);
          Wal.close w3))

let failpoint_tests =
  [
    compaction_crash_test "compact-before-rename";
    compaction_crash_test "compact-after-rename";
  ]

(* ---- randomized prefix properties ---- *)

(* Ops are generated as plain int pairs so QCheck can print
   counterexamples with its stock printers. *)
let decode_ops raw =
  List.map
    (fun (a, b) ->
      let key = Printf.sprintf "k%d" (a mod 5) in
      if a / 5 = 4 then Del key
      else Put (key, String.make (b mod 50) (Char.chr (65 + (b mod 26)))))
    raw

let raw_ops =
  QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 24) (int_range 0 999)))

(* [decode_ops] with range records in the mix: a draw of 23 or 24 is a
   Range whose bounds may be empty or inverted. *)
let decode_ops_with_ranges raw =
  List.map2
    (fun (a, b) op ->
      if a >= 23 then
        Range (Printf.sprintf "k%d" (b mod 5), Printf.sprintf "k%d" (b / 5 mod 6))
      else op)
    raw (decode_ops raw)

(* Damage must hit the raw segment bytes of a log with compaction off:
   truncating inside a compaction snapshot yields a key subset, not an
   op prefix (and a real torn write cannot hit the snapshot — it is
   fully fsynced before the rename makes it visible). *)
let prefix_property ?(decode = decode_ops) mutate (raw, sel) =
  let ops = decode raw in
  with_dir (fun d ->
      let seg, _ = build_log d ops in
      let data = read_file seg in
      match mutate data sel with
      | None -> true
      | Some data' ->
        write_raw seg data';
        let w = Wal.open_ ~dir:d () in
        let got = bindings w in
        Wal.close w;
        List.mem got (prefix_models ops))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make
        ~name:"wal: truncation at any point recovers an exact op prefix"
        ~count:60
        QCheck.(pair raw_ops (int_range 0 1_000_000))
        (prefix_property (fun data sel ->
             Some (String.sub data 0 (sel mod (String.length data + 1)))));
      QCheck.Test.make
        ~name:
          "wal: flush batches of any size, then damage anywhere, recover an \
           exact op prefix"
        ~count:100
        QCheck.(
          quad raw_ops
            (list_of_size (Gen.int_range 1 6) (int_range 1 8))
            bool (int_range 0 1_000_000))
        (fun (raw, batches, flip, sel) ->
          let ops = decode_ops raw in
          with_dir (fun d ->
              let w =
                Wal.open_ ~dir:d ~fsync:Durable.Never ~auto_compact:false ()
              in
              let seg = Wal.current_segment w in
              (* write [ops] in batches, cycling through the sizes *)
              let expected_writes = ref 0 in
              let rec go ops bs =
                match (ops, bs) with
                | [], _ -> ()
                | _, [] -> go ops batches
                | _, b :: bs ->
                  List.iter (apply w) (take b ops);
                  if Wal.pending w > 0 then incr expected_writes;
                  Wal.flush w;
                  go (List.filteri (fun i _ -> i >= b) ops) bs
              in
              go ops batches;
              let writes = (Wal.stats w).Wal.writes in
              Wal.close w;
              let data = read_file seg in
              let len = String.length data in
              let damaged =
                if flip && len > 0 then begin
                  let b = Bytes.of_string data in
                  let pos = sel mod len in
                  Bytes.set b pos
                    (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
                  Bytes.to_string b
                end
                else String.sub data 0 (sel mod (len + 1))
              in
              write_raw seg damaged;
              let w2 = Wal.open_ ~dir:d () in
              let got = bindings w2 in
              Wal.close w2;
              writes = !expected_writes && List.mem got (prefix_models ops)));
      QCheck.Test.make
        ~name:
          "wal: with range records, truncation at any point recovers an exact \
           op prefix"
        ~count:60
        QCheck.(pair raw_ops (int_range 0 1_000_000))
        (prefix_property ~decode:decode_ops_with_ranges (fun data sel ->
             Some (String.sub data 0 (sel mod (String.length data + 1)))));
      QCheck.Test.make
        ~name:"wal: one corrupt byte anywhere recovers an exact op prefix"
        ~count:60
        QCheck.(pair raw_ops (int_range 0 1_000_000))
        (prefix_property (fun data sel ->
             if String.length data = 0 then None
             else begin
               let b = Bytes.of_string data in
               let pos = sel mod Bytes.length b in
               Bytes.set b pos
                 (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
               Some (Bytes.to_string b)
             end));
    ]

(* ---- Storage backends ---- *)

let mk_storage ?dir ?fsync () =
  let metrics = Metrics.create () in
  (Storage.create ?dir ?fsync ~metrics ~node:0 (), metrics)

let backend_tests =
  [
    test "wal backend: state survives close and reopen" (fun () ->
        with_dir (fun d ->
            let s, _ = mk_storage ~dir:d ~fsync:Durable.Always () in
            Storage.write s ~layer:"x" ~key:"a" "1";
            Storage.write s ~layer:"x" ~key:"b" "two";
            Storage.write s ~layer:"x" ~key:"a" "one";
            Storage.delete s ~layer:"x" "b";
            Alcotest.(check bool) "disk in use" true (Storage.disk_bytes s > 0);
            Storage.close s;
            let s2, _ = mk_storage ~dir:d () in
            Alcotest.(check (option string)) "a" (Some "one") (Storage.read s2 "a");
            Alcotest.(check (option string)) "b gone" None (Storage.read s2 "b");
            Alcotest.(check int) "keys" 1 (Storage.retained_keys s2);
            Storage.close s2));
    test "wal backend mirrors its counters into metrics" (fun () ->
        with_dir (fun d ->
            let s, m = mk_storage ~dir:d ~fsync:Durable.Always () in
            for i = 1 to 8 do
              Storage.write s ~layer:"x" ~key:(string_of_int i) "v"
            done;
            Storage.delete s ~layer:"x" "3";
            Alcotest.(check int) "appends" 9 (Metrics.get m ~node:0 "wal_appends");
            (* every record is due an fsync, which writes it first *)
            Alcotest.(check int) "writes" 9 (Metrics.get m ~node:0 "wal_writes");
            Alcotest.(check bool) "fsyncs" true
              (Metrics.get m ~node:0 "wal_fsyncs" >= 9);
            Alcotest.(check int) "segments gauge" 1
              (Metrics.get m ~node:0 "wal_segments");
            Storage.close s;
            (* a reopen mirrors the replay count of the new instance *)
            let s2, m2 = mk_storage ~dir:d () in
            Alcotest.(check int) "recovered"
              9
              (Metrics.get m2 ~node:0 "wal_recovered_records");
            (match Storage.wal_stats s2 with
            | Some st -> Alcotest.(check int) "stats agree" 9 st.Wal.recovered_records
            | None -> Alcotest.fail "wal_stats missing");
            Storage.close s2));
  ]

(* ---- consensus-log retirement under a crash ---- *)

module Multi = Abcast_consensus.Multi.Make (Abcast_consensus.Paxos)
module Paxos = Abcast_consensus.Paxos
module Keys = Abcast_consensus.Consensus_intf.Keys

(* A Multi over [store] that captures its replies. *)
let multi_over store =
  let sent = ref [] in
  let io : Multi.msg Engine.io =
    {
      self = 0;
      n = 3;
      group = 0;
      incarnation = 0;
      now = (fun () -> 0);
      send = (fun dst m -> sent := (dst, m) :: !sent);
      multisend = ignore;
      after = (fun _ f -> Engine.Timer.make f);
      store;
      rng = Rng.create 1;
      metrics = Metrics.create ();
      flight = Abcast_sim.Flight.disabled;
      alarm = ignore;
    }
  in
  let m =
    Multi.create io ~leader:(Abcast_fd.Omega.fixed 1) ~on_ready:ignore
      ~on_behind:(fun ~src:_ -> ())
  in
  (m, sent)

let retired_below = 6

(* Instances 0..9 hold acceptor state, 0..5 are decided; then the
   checkpoint at 6 retires 0..5. Each value is [pad] bytes longer than
   its ["v<k>"] name. *)
let populate ?(pad = 0) store =
  let m, _ = multi_over store in
  let value k = Printf.sprintf "v%d%s" k (String.make pad '.') in
  for k = 0 to 9 do
    Multi.handle m ~src:1 (Multi.Inst (k, Paxos.Accept { b = 4; v = value k }))
  done;
  for k = 0 to retired_below - 1 do
    Multi.handle m ~src:1 (Multi.Inst (k, Paxos.Decide { v = value k }))
  done;
  Storage.flush store;
  m

(* Recover [dir] and ask for a promise in every retired instance: a node
   must answer [Truncated] or report what it accepted — a promise with
   nothing accepted would let a lagging proposer decide anew. *)
let check_recovered what dir =
  let store, _ = mk_storage ~dir () in
  let m, sent = multi_over store in
  for k = 0 to retired_below - 1 do
    let kept = Storage.mem store (Keys.inst k "paxos.acc") in
    sent := [];
    Multi.handle m ~src:2 (Multi.Inst (k, Paxos.Prepare { b = 100 }));
    if not (kept || k < Multi.floor m) then
      Alcotest.failf "%s: instance %d lost its acceptor state above floor %d"
        what k (Multi.floor m);
    List.iter
      (function
        | _, Multi.Inst (_, Paxos.Promise { accepted = None; _ }) ->
          Alcotest.failf "%s: instance %d promised with nothing accepted" what k
        | _ -> ())
      !sent
  done;
  Storage.close store

(* Record boundaries of a segment from byte [from] on. *)
let record_ends data ~from =
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else
      let len = String.length data - pos in
      let r = Abcast_util.Wire.reader ~pos ~len data in
      let blen = Abcast_util.Wire.read_uvarint r in
      let next = Abcast_util.Wire.unsafe_pos r + blen + 4 in
      go next (next :: acc)
  in
  go from []

let copy_dir src dst =
  Durable.mkdir_p dst;
  Array.iter
    (fun name ->
      write_raw (Filename.concat dst name)
        (read_file (Filename.concat src name)))
    (Sys.readdir src)

let retirement_tests =
  [
    test "retirement: a crash after any record keeps the floor ahead of it"
      (fun () ->
        with_dir (fun d ->
            let live = Filename.concat d "live" in
            let store, _ = mk_storage ~dir:live ~fsync:Durable.Never () in
            let m = populate store in
            (* one segment: nothing here comes near the roll size *)
            let seg = "wal-0000000001.log" in
            let from = (Unix.stat (Filename.concat live seg)).Unix.st_size in
            Multi.truncate_below m retired_below;
            Storage.flush store;
            let data = read_file (Filename.concat live seg) in
            let cuts = from :: record_ends data ~from in
            Alcotest.(check int) "the floor and one range record" 3
              (List.length cuts);
            List.iteri
              (fun i cut ->
                let copy = Filename.concat d (Printf.sprintf "cut%d" i) in
                copy_dir live copy;
                write_raw (Filename.concat copy seg) (String.sub data 0 cut);
                check_recovered (Printf.sprintf "cut after record %d" i) copy)
              cuts;
            Storage.close store));
    test "retirement: a crash in the compaction it triggers keeps the floor"
      (fun () ->
        List.iter
          (fun point ->
            with_dir (fun d ->
                let store, _ = mk_storage ~dir:d ~fsync:Durable.Never () in
                (* 8 KB values: the range record kills the 12 retired
                   bindings (~96 KB of a ~128 KB log), past the WAL's
                   compaction threshold of 64 000 dead bytes and half
                   the log *)
                let m = populate ~pad:8_000 store in
                Storage.set_wal_failpoint store (Some point);
                let crashed =
                  match Multi.truncate_below m retired_below with
                  | () -> false
                  | exception Wal.Injected_crash _ -> true
                in
                Alcotest.(check bool)
                  (point ^ ": the retirement compacted")
                  true crashed;
                check_recovered point d))
          [ "compact-before-rename"; "compact-after-rename" ]);
  ]

(* ---- backend equivalence sweep (E3 workload on memory and WAL) ---- *)

(* The simulator's schedule never depends on how storage persists, so a
   seeded run must produce bit-identical protocol outcomes on the memory
   and WAL backends — same deliveries, same log accounting, same retained
   footprint, same surviving keys. *)
let sweep_run ?storage () =
  let stack =
    Factory.make
      {
        Protocol.paper_alternative with
        checkpoint_period = Some 15_000;
        delta = Some 3;
      }
  in
  let cluster = Cluster.create stack ~seed:17 ~n:3 ?storage () in
  let rng = Rng.create 23 in
  let count =
    Workload.open_loop cluster ~rng ~senders:[ 0; 1; 2 ] ~start:1_000
      ~stop:60_000 ~mean_gap:1_000 ~size:512 ()
  in
  let ok =
    Cluster.run_until cluster ~until:1_000_000_000
      ~pred:(fun () -> Cluster.all_caught_up cluster ~count ())
      ()
  in
  Alcotest.(check bool) "quiesced" true ok;
  (* settle so idle checkpoints run and truncate the logs *)
  Cluster.run cluster ~until:(Cluster.now cluster + 400_000);
  (cluster, count)

let observe cluster =
  let m = Cluster.metrics cluster in
  List.map
    (fun i ->
      ( Cluster.delivered_count cluster i,
        ids_of (Cluster.delivered_tail cluster i),
        Cluster.retained_bytes cluster i,
        Cluster.retained_keys cluster i,
        Cluster.storage_keys cluster i "" ))
    [ 0; 1; 2 ]
  @ [ (Metrics.sum_prefix m "log_ops.", [], Metrics.sum_prefix m "log_bytes.", 0, []) ]

let sweep_tests =
  [
    test "backend equivalence: memory and wal agree on a seeded run"
      (fun () ->
        with_dir (fun base ->
            let factory ~metrics ~node =
              Storage.create
                ~dir:(Filename.concat base (Printf.sprintf "w%d" node))
                ~fsync:Durable.Never ~metrics ~node ()
            in
            let mem_cluster, count = sweep_run () in
            let wal_cluster, count_w = sweep_run ~storage:factory () in
            Alcotest.(check int) "same workload (wal)" count count_w;
            let actual = observe wal_cluster in
            List.iteri
              (fun i (dc, ids, rb, rk, keys) ->
                let dc', ids', rb', rk', keys' = List.nth actual i in
                Alcotest.(check int)
                  (Printf.sprintf "wal: delivered_count[%d]" i)
                  dc dc';
                Alcotest.(check bool)
                  (Printf.sprintf "wal: delivery order[%d]" i)
                  true (ids = ids');
                Alcotest.(check int)
                  (Printf.sprintf "wal: retained_bytes[%d]" i)
                  rb rb';
                Alcotest.(check int)
                  (Printf.sprintf "wal: retained_keys[%d]" i)
                  rk rk';
                Alcotest.(check (list string))
                  (Printf.sprintf "wal: stored keys[%d]" i)
                  keys keys')
              (observe mem_cluster);
            (* the durable backend actually wrote: bytes on disk *)
            Alcotest.(check bool) "wal wrote to disk" true
              (Cluster.disk_bytes wal_cluster 0 > 0);
            (* the WAL's own replay agrees with the cluster's view: reopen
               node 0's directory and compare every surviving key *)
            (match Cluster.wal_stats wal_cluster 0 with
            | None -> Alcotest.fail "wal cluster has no wal stats"
            | Some st ->
              Alcotest.(check bool) "wal appended" true (st.Wal.appends > 0));
            (* 512-byte payloads retire enough volume to cross the WAL's
               default compaction threshold *)
            Alcotest.(check bool) "wal compacted" true
              (Metrics.sum_prefix (Cluster.metrics wal_cluster) "wal_compactions"
              > 0);
            let w = Wal.open_ ~dir:(Filename.concat base "w0") () in
            let wal_keys = List.sort compare (List.map fst (bindings w)) in
            List.iter
              (fun (k, v) ->
                Alcotest.(check (option string)) ("replayed " ^ k)
                  (Cluster.read_storage wal_cluster 0 k)
                  (Some v))
              (bindings w);
            Alcotest.(check (list string)) "replayed key set"
              (Cluster.storage_keys wal_cluster 0 "")
              wal_keys;
            Wal.close w));
  ]

let suite =
  ( "store",
    wal_tests @ crash_tests @ range_tests @ failpoint_tests @ qcheck_tests
    @ backend_tests @ retirement_tests @ sweep_tests )
