(* The dissemination layer's pull path as a model: two processes'
   Unordered sets, reconciled only by Digest -> Need -> Gossip rounds
   driven through Dissem's own handler, converge within the rounds the
   Need cap allows. *)

open Helpers
module Dissem = Abcast_core.Dissem
module Agreed = Abcast_core.Agreed
module Unordered = Abcast_core.Unordered
module Vclock = Abcast_core.Vclock
module Flight = Abcast_sim.Flight

let need_cap = 128

(* One process of a two-node exchange: its sends queue up for the test
   to carry, and its gossip tick is kept for the test to fire. The self
   copy of a multisend is dropped: a digest of our own set pulls
   nothing. Digest-only ticks, no ring, nothing delivered yet. *)
type side = {
  d : Dissem.t;
  u : Unordered.t;
  tick : (unit -> unit) ref;
}

let side ~self ~out =
  let tick = ref ignore in
  let metrics = Metrics.create () in
  let io =
    {
      Engine.self;
      n = 2;
      group = 0;
      incarnation = 0;
      now = (fun () -> 0);
      send = (fun dst m -> Queue.add (self, dst, m) out);
      multisend = (fun m -> Queue.add (self, 1 - self, m) out);
      after =
        (fun _ f ->
          tick := f;
          Engine.Timer.none);
      store = Storage.create ~metrics ~node:self ();
      rng = Rng.create self;
      metrics;
      flight = Flight.disabled;
      alarm = ignore;
    }
  in
  let u = Unordered.create () in
  let agreed = Agreed.create () in
  let d =
    Dissem.create ~period:1 ~full_every:max_int ~dissemination:`Gossip
      ~audit:false io u
      ~agreed:(fun () -> agreed)
      ~cursor:(fun () -> 0)
      ~on_progress:(fun ~src:_ ~k:_ ~len:_ -> ())
  in
  tick := (fun () -> Dissem.start d);
  { d; u; tick }

let ids u =
  List.map (fun (p : Payload.t) -> p.id) (Unordered.to_list u)

(* Up to four (origin, boot) streams, each seqs 0 .. len-1; every seq is
   held by the first side (0), the second (1) or both (2), with odds
   drawn per stream, so one side may hold far more than the other. A
   seq held by neither would not be in the system: no process could
   ever answer for it. *)
let model_gen =
  QCheck.Gen.(
    let held =
      triple (int_bound 3) (int_bound 3) (int_bound 3) >>= fun (a, b, both) ->
      let a = if a + b + both = 0 then 1 else a in
      list_size (int_bound 400)
        (frequency [ (a, return 0); (b, return 1); (both, return 2) ])
    in
    let stream =
      map2
        (fun held (origin, boot) -> (origin, boot, held))
        held
        (pair (int_bound 3) (int_bound 1))
    in
    map
      (List.sort_uniq (fun (o, b, _) (o', b', _) -> compare (o, b) (o', b')))
      (list_size (int_range 1 4) stream))

let print_model streams =
  String.concat "; "
    (List.map
       (fun (o, b, held) ->
         Printf.sprintf "(%d,%d) %s" o b
           (String.concat "" (List.map string_of_int held)))
       streams)

let converges streams =
  let out = Queue.create () in
  let sides = [| side ~self:0 ~out; side ~self:1 ~out |] in
  List.iter
    (fun (origin, boot, held) ->
      List.iteri
        (fun seq who ->
          let p = Payload.make { Payload.origin; boot; seq } "x" in
          let vc = Vclock.empty in
          if who <> 1 then Unordered.add sides.(0).u ~vc p;
          if who <> 0 then Unordered.add sides.(1).u ~vc p)
        held)
    streams;
  let only i held = List.length (List.filter (fun who -> who = i) held) in
  let diff =
    List.fold_left (fun acc (_, _, held) -> acc + only 0 held + only 1 held) 0
      streams
  in
  let bound = ((diff + need_cap - 1) / need_cap) + 1 in
  (* One round: both ticks send a Digest, then every frame is carried
     until none is left (the Needs they draw, the Gossip replies). *)
  let round () =
    Array.iter (fun s -> !(s.tick) ()) sides;
    while not (Queue.is_empty out) do
      let src, dst, m = Queue.pop out in
      (match m with
      | Dissem.Need { ids } when List.length ids > need_cap ->
        QCheck.Test.fail_reportf "a Need of %d ids" (List.length ids)
      | _ -> ());
      Dissem.handle sides.(dst).d ~src m
    done
  in
  let rec go r =
    if ids sides.(0).u = ids sides.(1).u then true
    else if r = bound then
      QCheck.Test.fail_reportf "%d and %d ids after %d rounds"
        (Unordered.count sides.(0).u) (Unordered.count sides.(1).u) bound
    else begin
      round ();
      go (r + 1)
    end
  in
  go 0

let suite =
  ( "dissem",
    [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:200
           ~name:
             "pull: two Unordered sets agree within ceil(diff/128)+1 digest \
              rounds"
           (QCheck.make ~print:print_model model_gen)
           converges);
    ] )
