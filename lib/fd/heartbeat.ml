module Engine = Abcast_sim.Engine

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
}

let rec beat_loop t =
  t.io.multisend (Beat { epoch = t.io.incarnation });
  t.io.after t.period (fun () -> beat_loop t)

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
    }
  in
  t.epochs.(io.self) <- io.incarnation;
  beat_loop t;
  t

let handle t ~src (Beat { epoch }) =
  t.last_heard.(src) <- t.io.now ();
  if epoch > t.epochs.(src) then t.epochs.(src) <- epoch

let trusted t i =
  i = t.io.self
  || (t.last_heard.(i) >= 0 && t.io.now () - t.last_heard.(i) <= t.timeout)

let suspects t =
  let out = ref [] in
  for i = t.io.n - 1 downto 0 do
    if not (trusted t i) then out := i :: !out
  done;
  !out

let epoch t i = if i = t.io.self then t.io.incarnation else t.epochs.(i)

let leader t =
  let best = ref t.io.self in
  let key i = (epoch t i, i) in
  for i = 0 to t.io.n - 1 do
    if trusted t i && compare (key i) (key !best) < 0 then best := i
  done;
  !best
