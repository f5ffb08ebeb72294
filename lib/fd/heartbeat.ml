module Engine = Abcast_sim.Engine
module Flight = Abcast_sim.Flight
module Metrics = Abcast_sim.Metrics

type msg = Beat of { epoch : int }

module Wire = Abcast_util.Wire

let write_msg w (Beat { epoch }) = Wire.write_varint w epoch

let read_msg r = Beat { epoch = Wire.read_varint r }

type t = {
  io : msg Engine.io;
  period : int;
  timeout : int;
  last_heard : int array; (* when a frame from the peer last arrived *)
  epochs : int array; (* -1 = never *)
  last_sent : int array; (* when a frame last went to the peer *)
  mutable last_all : int; (* when a multisend last went out *)
  last_beat : int array; (* when we last sent the peer a Beat *)
  was_trusted : bool array; (* trust as last recorded, for flight events *)
  mutable leading : bool; (* the beat tick runs *)
  mutable watched : int; (* the leader a follower watches *)
  mutable timer : Engine.Timer.t;
      (* the current role's timer (beat tick or watch): a role change
         cancels it *)
  h_tx : Metrics.handle; (* Beats sent *)
}

let heard t ~src = t.last_heard.(src) <- t.io.now ()

let trusted_at t ~now i = i = t.io.self || now - t.last_heard.(i) <= t.timeout

let trusted t i = trusted_at t ~now:(t.io.now ()) i

let epoch t i = if i = t.io.self then t.io.incarnation else t.epochs.(i)

let beat t d =
  let now = t.io.now () in
  t.last_beat.(d) <- now;
  t.last_sent.(d) <- now;
  Metrics.hincr t.h_tx;
  t.io.send d (Beat { epoch = t.io.incarnation })

(* Ω's choice. A peer not heard from yet ranks as a first incarnation
   (epoch 0), not below every known one: in a fresh cluster each node
   would otherwise name some unheard peer until the first Beats land,
   and the nodes would disagree on the leader. *)
let best t ~now =
  let best = ref t.io.self in
  for i = 0 to t.io.n - 1 do
    if trusted_at t ~now i then begin
      let e = max 0 (epoch t i) and eb = max 0 (epoch t !best) in
      if e < eb || (e = eb && i < !best) then best := i
    end
  done;
  !best

let note t d tr =
  if tr <> t.was_trusted.(d) then begin
    t.was_trusted.(d) <- tr;
    Flight.record t.io.flight ~time:(t.io.now ()) ~node:t.io.self
      ~group:t.io.group ~boot:t.io.incarnation
      ~stage:(if tr then Flight.trust else Flight.suspect)
      ~trace:0 ~a:d ~b:(epoch t d)
  end

let after t delay f = t.timer <- t.io.after delay f

(* Act on Ω's output: a node that names itself runs the beat tick, any
   other watches the node it names. A follower that finds its leader
   silent records the suspicion, whoever asked. *)
let rec elect t =
  let now = t.io.now () in
  let w = t.watched in
  if (not t.leading) && not (trusted_at t ~now w) then note t w false;
  let l = best t ~now in
  if l = t.io.self then begin
    if not t.leading then begin
      Engine.Timer.cancel t.timer;
      t.leading <- true;
      tick t
    end
  end
  else if t.leading || l <> t.watched then begin
    Engine.Timer.cancel t.timer;
    t.leading <- false;
    t.watched <- l;
    note t l true;
    watch_timer t
  end;
  l

(* The leader's tick, every period: a peer gets a Beat if no frame went
   to it for half a period, so no link from the leader is silent for
   more than about 1.5 periods. *)
and tick t =
  if elect t = t.io.self then begin
    let now = t.io.now () in
    for d = 0 to t.io.n - 1 do
      if d <> t.io.self && now - max t.last_sent.(d) t.last_all >= t.period / 2
      then beat t d
    done;
    after t t.period (fun () -> tick t)
  end

(* A follower's one-shot timer: it fires just after the watched leader
   would time out, and either re-arms (the leader was heard since) or
   moves on. *)
and watch_timer t =
  let w = t.watched in
  let at = t.last_heard.(w) + t.timeout + 1 in
  after t (max 0 (at - t.io.now ())) (fun () ->
      if elect t = w then watch_timer t)

(* Only a recovered node beats whatever its role: a Beat is the only
   frame that carries the epoch, and a lost boot Beat must not leave a
   peer ranking us by the old one. *)
let rec epoch_tick t =
  let now = t.io.now () in
  for d = 0 to t.io.n - 1 do
    if d <> t.io.self && now - t.last_beat.(d) >= t.timeout / 2 then beat t d
  done;
  ignore (t.io.after (t.timeout / 2) (fun () -> epoch_tick t))

let create ?(period = 2_000) ?timeout io =
  let timeout = match timeout with Some x -> x | None -> 5 * period in
  let now = io.Engine.now () in
  let t =
    {
      io;
      period;
      timeout;
      (* A fresh incarnation trusts everyone: last_heard = now. *)
      last_heard = Array.make io.n now;
      epochs = Array.make io.n (-1);
      last_sent = Array.make io.n (now - period);
      last_all = now - period;
      last_beat = Array.make io.n now;
      was_trusted = Array.make io.n true;
      leading = false;
      watched = io.self;
      timer = Engine.Timer.none;
      h_tx = Metrics.handle io.metrics ~node:io.self "tx.fd";
    }
  in
  t.epochs.(io.self) <- io.incarnation;
  (* The boot Beat announces the new epoch to every peer. *)
  for d = 0 to io.n - 1 do
    if d <> io.self then beat t d
  done;
  if io.incarnation > 0 then
    ignore (io.after (timeout / 2) (fun () -> epoch_tick t));
  ignore (elect t);
  t

let watch t (io : 'm Engine.io) =
  {
    io with
    send =
      (fun dst m ->
        t.last_sent.(dst) <- io.now ();
        io.send dst m);
    multisend =
      (fun m ->
        t.last_all <- io.now ();
        io.multisend m);
  }

let handle t ~src (Beat { epoch }) =
  heard t ~src;
  if epoch > t.epochs.(src) then t.epochs.(src) <- epoch

let suspects t =
  let out = ref [] in
  for i = t.io.n - 1 downto 0 do
    if not (trusted t i) then out := i :: !out
  done;
  !out

let leader = elect
