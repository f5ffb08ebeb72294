module Rng = Abcast_util.Rng

type kind = Crash | Recover

type event = { time : Engine.time; node : int; kind : kind }

type plan = {
  events : event list;
  good : bool array;
  horizon : Engine.time;
}

let down_between eng ~node ~from_ ~until =
  Engine.at eng from_ (fun () -> Engine.crash eng node);
  Engine.at eng until (fun () -> Engine.recover eng node)

(* Alternating up/down episodes for one node over [lo, hi); the node is up
   at [lo]. Returns events whose final state is up iff the last event is a
   recovery or there is no event. *)
let episodes ~rng ~node ~lo ~hi ~mtbf ~mttr =
  let rec go acc t =
    let up_for = 1 + int_of_float (Rng.exponential rng ~mean:(float_of_int mtbf)) in
    let crash_at = t + up_for in
    if crash_at >= hi then List.rev acc
    else begin
      let down_for = 1 + int_of_float (Rng.exponential rng ~mean:(float_of_int mttr)) in
      let recover_at = min (crash_at + down_for) (hi - 1) in
      let acc = { time = recover_at; node; kind = Recover }
                :: { time = crash_at; node; kind = Crash } :: acc in
      go acc (recover_at + 1)
    end
  in
  go [] lo

let plan_random ~rng ~n ?(n_bad = 0) ?mtbf ?mttr ~stability () =
  if n_bad * 2 >= n then invalid_arg "Faults.plan_random: need a good majority";
  let mtbf = match mtbf with Some x -> x | None -> max 1 (stability / 4) in
  let mttr = match mttr with Some x -> x | None -> max 1 (stability / 20) in
  let good = Array.make n true in
  (* Pick the bad set uniformly. *)
  let ids = Array.init n (fun i -> i) in
  Rng.shuffle rng ids;
  for i = 0 to n_bad - 1 do
    good.(ids.(i)) <- false
  done;
  let events = ref [] in
  let horizon = ref stability in
  for node = 0 to n - 1 do
    if good.(node) then
      events := episodes ~rng ~node ~lo:0 ~hi:stability ~mtbf ~mttr @ !events
    else begin
      (* Bad: permanently crashed, or oscillating well past stability. *)
      if Rng.bool rng then begin
        let t = Rng.int rng (max 1 stability) in
        events := { time = t; node; kind = Crash } :: !events
      end
      else begin
        let hi = 4 * stability in
        horizon := max !horizon hi;
        let evs = episodes ~rng ~node ~lo:0 ~hi ~mtbf ~mttr in
        (* Force a final crash so the node does not accidentally end up. *)
        let final = { time = hi; node; kind = Crash } in
        events := (final :: List.rev evs |> List.rev) @ !events
      end
    end
  done;
  let events = List.stable_sort (fun a b -> compare a.time b.time) !events in
  { events; good; horizon = !horizon }

let apply eng plan =
  List.iter
    (fun { time; node; kind } ->
      match kind with
      | Crash -> Engine.at eng time (fun () -> Engine.crash eng node)
      | Recover -> Engine.at eng time (fun () -> Engine.recover eng node))
    plan.events

let good_nodes plan =
  let out = ref [] in
  for i = Array.length plan.good - 1 downto 0 do
    if plan.good.(i) then out := i :: !out
  done;
  !out
