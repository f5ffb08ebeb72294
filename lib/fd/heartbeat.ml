module Engine = Abcast_sim.Engine
module Flight = Abcast_sim.Flight

type msg = Beat of { epoch : int }

module Wire = Abcast_util.Wire

let write_msg w (Beat { epoch }) = Wire.write_varint w epoch

let read_msg r = Beat { epoch = Wire.read_varint r }

type t = {
  io : msg Engine.io;
  period : int;
  timeout : int;
  last_heard : int array; (* -1 = never *)
  epochs : int array; (* -1 = never *)
  last_sent : int array; (* when a frame last went to the peer *)
  mutable last_all : int; (* when a multisend last went out *)
  last_beat : int array; (* when we last sent the peer a Beat *)
  was_trusted : bool array; (* trust at the last tick, for flight events *)
}

let heard t ~src = t.last_heard.(src) <- t.io.now ()

let trusted t i =
  i = t.io.self
  || (t.last_heard.(i) >= 0 && t.io.now () - t.last_heard.(i) <= t.timeout)

let epoch t i = if i = t.io.self then t.io.incarnation else t.epochs.(i)

(* One beat tick: a peer gets a Beat only if no frame went to it for
   half a period — so a link is never silent for more than about 1.5
   periods — or if its last Beat, the only frame that carries our epoch,
   is timeout/2 old. Trust flips since the last tick become flight
   events. *)
let rec tick t =
  let now = t.io.now () in
  let beat = Beat { epoch = t.io.incarnation } in
  for d = 0 to t.io.n - 1 do
    if d <> t.io.self then begin
      if
        now - max t.last_sent.(d) t.last_all >= t.period / 2
        || now - t.last_beat.(d) >= t.timeout / 2
      then begin
        t.last_beat.(d) <- now;
        t.last_sent.(d) <- now;
        t.io.send d beat
      end;
      let tr = trusted t d in
      if tr <> t.was_trusted.(d) then begin
        t.was_trusted.(d) <- tr;
        Flight.record t.io.flight ~time:now ~node:t.io.self ~group:t.io.group
          ~boot:t.io.incarnation
          ~stage:(if tr then Flight.trust else Flight.suspect)
          ~trace:0 ~a:d ~b:(epoch t d)
      end
    end
  done;
  t.io.after t.period (fun () -> tick t)

let create ?(period = 2_000) ?timeout io =
  let timeout = match timeout with Some x -> x | None -> 5 * period in
  let t =
    {
      io;
      period;
      timeout;
      (* A fresh incarnation trusts everyone: last_heard = now. *)
      last_heard = Array.make io.n (io.now ());
      epochs = Array.make io.n (-1);
      last_sent = Array.make io.n (io.now () - period);
      last_all = io.now () - period;
      last_beat = Array.make io.n (io.now ());
      was_trusted = Array.make io.n true;
    }
  in
  t.epochs.(io.self) <- io.incarnation;
  (* Nothing has been sent yet, so the first tick beats every peer: the
     new epoch goes out at boot. *)
  tick t;
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

(* A peer not heard from yet ranks as a first incarnation (epoch 0), not
   below every known one: in a fresh cluster each node would otherwise
   name some unheard peer until the first Beats land, and the nodes
   would disagree on the leader. *)
let leader t =
  let best = ref t.io.self in
  let key i = (max 0 (epoch t i), i) in
  for i = 0 to t.io.n - 1 do
    if trusted t i && compare (key i) (key !best) < 0 then best := i
  done;
  !best
