(* Restart smoke test for the durable storage stack — run by CI.

     dune exec examples/store_smoke.exe

   Two parts, both exiting nonzero on failure:

   1. A child process appends to a WAL with [fsync = Always] and is
      SIGKILLed mid-write — a real crash, no atexit, no flush. The
      parent reopens the directory and requires the recovered keys to be
      an exact contiguous prefix of what the child was writing: nothing
      mangled, nothing missing in the middle, at most the in-flight
      record torn off the tail.

   2. A three-process live cluster (real UDP, WAL-backed storage) orders
      a few broadcasts, is shut down, and is started again on the same
      directories. The restarted cluster must recover the delivered
      sequence from its logs alone. *)

module Wal = Abcast_store.Wal
module Durable = Abcast_store.Durable
module Live = Abcast_live.Runtime
module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol

let failures = ref 0

let check what ok =
  if ok then Printf.printf "  ok: %s\n%!" what
  else begin
    incr failures;
    Printf.printf "  FAIL: %s\n%!" what
  end

let fresh_dir tag =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abcast-store-smoke-%d-%s" (Unix.getpid ()) tag)
  in
  Durable.mkdir_p d;
  d

let await ?(timeout = 20.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* ---- part 1: SIGKILL a WAL writer ---- *)

let part1 () =
  Printf.printf "part 1: kill a WAL writer mid-append\n%!";
  let dir = fresh_dir "wal" in
  match Unix.fork () with
  | 0 ->
    (* the victim: every completed put is fsynced, so every completed
       put must survive the kill *)
    let w =
      Wal.open_ ~dir ~fsync:Durable.Always ~segment_bytes:16_384 ()
    in
    for i = 0 to 99_999 do
      Wal.put w (Printf.sprintf "rec%06d" i) (String.make 32 'x')
    done;
    Unix._exit 0
  | pid ->
    Unix.sleepf 0.15;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    let w = Wal.open_ ~dir () in
    let n = Wal.length w in
    let stats = Wal.stats w in
    Printf.printf "  recovered %d records, %d torn, %d segment(s)\n%!" n
      stats.Wal.torn_records stats.Wal.segments;
    check "child wrote something before dying" (n > 0);
    let prefix_ok = ref true in
    for i = 0 to n - 1 do
      if not (Wal.mem w (Printf.sprintf "rec%06d" i)) then prefix_ok := false
    done;
    check "recovered keys are a contiguous prefix" !prefix_ok;
    check "no key past the prefix"
      (not (Wal.mem w (Printf.sprintf "rec%06d" n)));
    check "at most the in-flight record was torn" (stats.Wal.torn_records <= 1);
    (* the survivor is a working log *)
    Wal.put w "after-recovery" "ok";
    Wal.close w;
    let w2 = Wal.open_ ~dir () in
    check "recovered log accepts appends"
      (Wal.find w2 "after-recovery" = Some "ok");
    Wal.close w2

(* ---- part 2: restart a live WAL-backed cluster ---- *)

let part2 () =
  Printf.printf "part 2: restart a live cluster from its WAL\n%!";
  let dir = fresh_dir "live" in
  let stack () = Factory.make Protocol.paper_basic in
  let msgs = 5 in
  let start () =
    Live.create (stack ()) ~n:3 ~base_port:7491 ~dir
      ~fsync:Durable.Always ()
  in
  match start () with
  | exception Unix.Unix_error (e, _, _) ->
    (* restricted environments without sockets: the WAL part above
       already ran, so report and succeed *)
    Printf.printf "  skipping live part: %s\n" (Unix.error_message e)
  | live ->
    for j = 0 to msgs - 1 do
      Live.broadcast live ~node:(j mod 3) (Printf.sprintf "m%d" j)
    done;
    let all_delivered live =
      List.for_all (fun i -> Live.delivered_count live i >= msgs) [ 0; 1; 2 ]
    in
    check "first incarnation delivers everything"
      (await (fun () -> all_delivered live));
    let order = Live.delivered_data live 0 in
    Live.shutdown live;
    (* same directories, brand-new processes: state must come back from
       the logs, with no broadcast re-sent *)
    (match start () with
    | exception Unix.Unix_error (e, _, _) ->
      incr failures;
      Printf.printf "  FAIL: restart could not bind sockets: %s\n"
        (Unix.error_message e)
    | live2 ->
      check "restarted cluster recovers all deliveries"
        (await (fun () -> all_delivered live2));
      check "recovered order matches the pre-restart order"
        (Live.delivered_data live2 0 = order);
      Live.shutdown live2)

let () =
  part1 ();
  part2 ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "store smoke test passed"
