(* The same protocol, no simulator: real threads, real UDP datagrams,
   real files.

     dune exec examples/live_cluster.exe

   Three processes bind UDP sockets on localhost and run the alternative
   protocol. Process 2 is killed for real — its thread dies, its socket
   buffer is discarded — and later restarted; it recovers from the files
   in its storage directory and catches up. Wall-clock timings below are
   actual. *)

module Live = Abcast_live.Runtime
module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol

let await ?(timeout = 20.0) what pred =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. timeout in
  let rec go () =
    if pred () then Printf.printf "  %-42s %6.0f ms\n%!" what ((Unix.gettimeofday () -. t0) *. 1000.0)
    else if Unix.gettimeofday () > deadline then failwith ("timeout: " ^ what)
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "abcast-live-demo-%d" (Unix.getpid ()))
  in
  Printf.printf "storage directory: %s\n" dir;
  let stack =
    Factory.make
      {
        Protocol.paper_alternative with
        checkpoint_period = Some 100_000;
        delta = Some 2;
      }
  in
  let live =
    try Live.create stack ~n:3 ~base_port:7470 ~dir ()
    with Unix.Unix_error (e, _, _) ->
      Printf.printf "cannot create sockets here (%s); skipping demo\n"
        (Unix.error_message e);
      exit 0
  in
  Fun.protect ~finally:(fun () -> Live.shutdown live) @@ fun () ->
  Printf.printf "three processes up on udp/127.0.0.1:7470-7472\n\n";

  for j = 0 to 9 do
    Live.broadcast live ~node:(j mod 3) (Printf.sprintf "update-%d" j)
  done;
  await "10 broadcasts totally ordered everywhere" (fun () ->
      List.for_all (fun i -> Live.delivered_count live i >= 10) [ 0; 1; 2 ]);

  Printf.printf "\nkilling process 2 (thread dies, volatile state gone)\n";
  Live.crash live 2;
  for j = 10 to 19 do
    Live.broadcast live ~node:(j mod 2) (Printf.sprintf "update-%d" j)
  done;
  await "majority keeps ordering without it" (fun () ->
      List.for_all (fun i -> Live.delivered_count live i >= 20) [ 0; 1 ]);

  Printf.printf "\nrestarting process 2 (new incarnation, reads its files)\n";
  Live.recover live 2;
  await "recovered process caught up to 20" (fun () ->
      Live.delivered_count live 2 >= 20);

  let a = Live.delivered_data live 0 and c = Live.delivered_data live 2 in
  Printf.printf "\nsequences equal after real recovery: %b (20 messages)\n"
    (a = c);
  Printf.printf "first five: %s\n"
    (String.concat ", " (List.filteri (fun i _ -> i < 5) a))
