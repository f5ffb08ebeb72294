(* Bechamel micro-benchmarks of the hot paths: one Test.make per table
   row. These measure real host time (the experiment tables in
   Experiments report simulated metrics). *)

open Bechamel
open Toolkit
module Rng = Abcast_util.Rng
module Heap = Abcast_util.Heap
module Engine = Abcast_sim.Engine
module Cluster = Abcast_harness.Cluster
module Workload = Abcast_harness.Workload
module Factory = Abcast_core.Factory
module Protocol = Abcast_core.Protocol
module Metrics = Abcast_sim.Metrics
module Histogram = Abcast_util.Histogram
module Table = Abcast_harness.Table

let rng_bench =
  Test.make ~name:"rng.bits64"
    (Staged.stage
       (let rng = Rng.create 1 in
        fun () -> ignore (Rng.bits64 rng)))

let heap_bench =
  Test.make ~name:"heap.push+pop (1k live)"
    (Staged.stage
       (let h = Heap.create ~cmp:compare () in
        for i = 0 to 999 do
          Heap.push h (i * 7919 mod 1000, i)
        done;
        let i = ref 0 in
        fun () ->
          incr i;
          Heap.push h (!i * 7919 mod 1000, !i);
          ignore (Heap.pop h)))

let engine_bench =
  Test.make ~name:"engine: 3-node echo round"
    (Staged.stage (fun () ->
         let eng = Engine.create ~seed:1 ~n:3 () in
         for i = 0 to 2 do
           Engine.set_behavior eng i (fun io ->
               io.multisend "ping";
               fun ~src:_ _ -> ())
         done;
         Engine.start_all eng;
         Engine.run eng ~until:10_000))

(* Construction alone, so the quiescence row below can be read as
   setup plus delivery. *)
let cluster_create_bench =
  Test.make ~name:"cluster: create (n=3)"
    (Staged.stage (fun () ->
         ignore
           (Cluster.create (Factory.make Protocol.paper_basic) ~seed:1 ~n:3 ())))

let protocol_round_bench =
  Test.make ~name:"abcast: 10 msgs to quiescence (n=3)"
    (Staged.stage (fun () ->
         let cluster =
           Cluster.create (Factory.make Protocol.paper_basic) ~seed:1 ~n:3 ()
         in
         for j = 0 to 9 do
           Cluster.at cluster (500 * (j + 1)) (fun () ->
               ignore (Cluster.broadcast cluster ~node:(j mod 3) "m"))
         done;
         ignore
           (Cluster.run_until cluster ~until:100_000_000
              ~pred:(fun () -> Cluster.all_caught_up cluster ~count:10 ())
              ())))

let bench_payloads =
  List.init 32 (fun i ->
      Abcast_core.Payload.make
        { origin = i mod 3; boot = 0; seq = i }
        (String.make 32 'x'))

let batch_bench =
  Test.make ~name:"batch encode/decode, wire codec (32 msgs)"
    (Staged.stage (fun () ->
         ignore
           (Abcast_core.Batch.decode (Abcast_core.Batch.encode bench_payloads))))

(* The replaced baseline, kept as a row so the codec-vs-Marshal gap stays
   visible in every run. *)
let batch_marshal_bench =
  Test.make ~name:"batch encode/decode, Marshal (32 msgs)"
    (Staged.stage (fun () ->
         let sorted = Abcast_core.Payload.sort_batch bench_payloads in
         let s = Marshal.to_string sorted [] in
         ignore (Marshal.from_string s 0 : Abcast_core.Payload.t list)))

module PB = Abcast_core.Protocol.Make (Abcast_consensus.Paxos)

let bench_msg =
  PB.Dissem
    (Gossip { k = 12; len = 40; unordered = bench_payloads; cert = None })

let msg_wire_bench =
  Test.make ~name:"protocol msg roundtrip, wire codec (gossip)"
    (Staged.stage (fun () ->
         match PB.decode_msg (PB.encode_msg bench_msg) with
         | Some _ -> ()
         | None -> assert false))

let msg_marshal_bench =
  Test.make ~name:"protocol msg roundtrip, Marshal (gossip)"
    (Staged.stage (fun () ->
         let s = Marshal.to_string bench_msg [] in
         ignore (Marshal.from_string s 0 : PB.msg)))

let storage_bench =
  Test.make ~name:"storage write (64B value)"
    (Staged.stage
       (let store =
          Abcast_sim.Storage.create
            ~metrics:(Abcast_sim.Metrics.create ())
            ~node:0 ()
        in
        let v = String.make 64 'x' in
        let i = ref 0 in
        fun () ->
          incr i;
          Abcast_sim.Storage.write store ~layer:"bench"
            ~key:(string_of_int (!i land 1023))
            v))

let vclock_bench =
  Test.make ~name:"vclock add+contains (8 streams)"
    (Staged.stage
       (let vc = ref Abcast_core.Vclock.empty in
        let seqs = Array.make 8 0 in
        let i = ref 0 in
        fun () ->
          incr i;
          let origin = !i land 7 in
          let id =
            { Abcast_core.Payload.origin; boot = 0; seq = seqs.(origin) }
          in
          seqs.(origin) <- seqs.(origin) + 1;
          vc := Abcast_core.Vclock.add !vc id;
          ignore (Abcast_core.Vclock.contains !vc id)))

let metrics_string_bench =
  Test.make ~name:"metrics incr (string key)"
    (Staged.stage
       (let m = Metrics.create () in
        fun () -> Metrics.incr m ~node:0 "rx.gossip"))

let metrics_handle_bench =
  Test.make ~name:"metrics hincr (interned handle)"
    (Staged.stage
       (let m = Metrics.create () in
        let h = Metrics.handle m ~node:0 "rx.gossip" in
        fun () -> Metrics.hincr h))

let metrics_observe_bench =
  Test.make ~name:"metrics observe (histogram series)"
    (Staged.stage
       (let m = Metrics.create () in
        fun () -> Metrics.observe m ~node:0 "bench.obs" 123.4))

(* Sweeps the value over the whole bucket range so every add lands in a
   realistic bucket, not one hot cache line. *)
let histogram_add_bench =
  Test.make ~name:"histogram add"
    (Staged.stage
       (let h = Histogram.create () in
        let v = ref 1.5 in
        fun () ->
          v := !v *. 1.009;
          if !v > 1e8 then v := 1.5;
          Histogram.add h !v))

let histogram_percentile_bench =
  Test.make ~name:"histogram p95 (10k samples)"
    (Staged.stage
       (let h = Histogram.create () in
        let rng = Rng.create 3 in
        for _ = 1 to 10_000 do
          Histogram.add h (float_of_int (1 + Rng.int rng 1_000_000))
        done;
        fun () -> ignore (Histogram.percentile h 95.)))

let tests =
  [
    rng_bench; heap_bench; storage_bench; vclock_bench; batch_bench;
    batch_marshal_bench; msg_wire_bench; msg_marshal_bench;
    metrics_string_bench; metrics_handle_bench; metrics_observe_bench;
    histogram_add_bench; histogram_percentile_bench;
    engine_bench; cluster_create_bench; protocol_round_bench;
  ]

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let rows =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> est
              | _ -> nan
            in
            [ Table.Text name; Table.flt ~dec:1 ns ] :: acc)
          analysis [])
      tests
  in
  {
    Table.title = "Micro-benchmarks (host time per run)";
    header = [ "benchmark"; "ns/run" ];
    rows;
  }
