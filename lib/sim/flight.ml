(* Crash flight recorder: a fixed-capacity ring of structured events.

   Eight parallel int arrays hold the last [cap] lifecycle events of one
   node; recording is a handful of array stores with no allocation, so
   the recorder is safe on the zero-alloc live frame path. When the ring
   wraps, the oldest event is overwritten and [dropped] grows — a crash
   leaves the newest [cap] events, which is what a post-mortem wants.

   The dump format ("ABFL" v1) is a Wire-encoded snapshot written
   atomically (tmp + rename + fsync) next to the WAL, so a SIGKILL'd
   node's black box survives alongside its log and `abcast-sim doctor`
   can merge it with the other nodes' dumps offline. *)

module Wire = Abcast_util.Wire
module Durable = Abcast_store.Durable

(* Stage codes. Dense small ints so they varint-encode in one byte and
   index straight into [names]. Append-only: dumps persist these. *)
let submit = 0
let bcast = 1
let rx_ring = 2
let rx_gossip = 3
let propose = 4
let decide = 5
let apply = 6
let wal_append = 7
let wal_fsync = 8
let ack = 9
let lease = 10
let stjump = 11
let boot = 12
let chain = 13
let audit = 14
let replay = 15
let replay_done = 16
let caught_up = 17
let suspect = 18
let trust = 19
let loop_died = 20

let names =
  [|
    "submit"; "bcast"; "rx_ring"; "rx_gossip"; "propose"; "decide"; "apply";
    "wal_append"; "wal_fsync"; "ack"; "lease"; "stjump"; "boot"; "chain";
    "audit"; "replay"; "replay_done"; "caught_up"; "suspect"; "trust"; "loop_died";
  |]

let stage_name s =
  if s >= 0 && s < Array.length names then names.(s)
  else Printf.sprintf "stage%d" s

type t = {
  cap : int;
  time : int array;
  node : int array;
  group : int array;
  boot_ : int array;
  stage : int array;
  trace : int array;
  a : int array;
  b : int array;
  mutable next : int; (* write cursor *)
  mutable total : int; (* events ever recorded *)
}

let create ~cap () =
  if cap < 0 then invalid_arg "Flight.create: negative cap";
  let arr () = Array.make (max cap 1) 0 in
  {
    cap;
    time = arr ();
    node = arr ();
    group = arr ();
    boot_ = arr ();
    stage = arr ();
    trace = arr ();
    a = arr ();
    b = arr ();
    next = 0;
    total = 0;
  }

(* Shared no-op instance: [record] never touches the arrays when
   [cap = 0], so one disabled recorder can be safely shared. *)
let disabled = create ~cap:0 ()

let enabled t = t.cap > 0
let capacity t = t.cap
let total t = t.total
let stored t = if t.total < t.cap then t.total else t.cap
let dropped t = if t.total > t.cap then t.total - t.cap else 0

let clear t =
  t.next <- 0;
  t.total <- 0

let record t ~time ~node ~group ~boot ~stage ~trace ~a ~b =
  if t.cap > 0 then begin
    let i = t.next in
    Array.unsafe_set t.time i time;
    Array.unsafe_set t.node i node;
    Array.unsafe_set t.group i group;
    Array.unsafe_set t.boot_ i boot;
    Array.unsafe_set t.stage i stage;
    Array.unsafe_set t.trace i trace;
    Array.unsafe_set t.a i a;
    Array.unsafe_set t.b i b;
    t.next <- (if i + 1 = t.cap then 0 else i + 1);
    t.total <- t.total + 1
  end

type event = {
  e_time : int;
  e_node : int;
  e_group : int;
  e_boot : int;
  e_stage : int;
  e_trace : int;
  e_a : int;
  e_b : int;
}

let event_at t i =
  (* [i]-th stored event in chronological order *)
  let base = if t.total <= t.cap then 0 else t.next in
  let j = (base + i) mod t.cap in
  {
    e_time = t.time.(j);
    e_node = t.node.(j);
    e_group = t.group.(j);
    e_boot = t.boot_.(j);
    e_stage = t.stage.(j);
    e_trace = t.trace.(j);
    e_a = t.a.(j);
    e_b = t.b.(j);
  }

let events t = List.init (stored t) (event_at t)

let pp_event ppf e =
  Format.fprintf ppf "%10d us  p%d boot %d g%d  %-11s a=%d b=%d" e.e_time
    e.e_node e.e_boot e.e_group (stage_name e.e_stage) e.e_a e.e_b;
  if e.e_trace <> 0 then Format.fprintf ppf " trace=%d" e.e_trace

(* ---- dump / load ---- *)

type dump = { d_dropped : int; d_events : event list }

let magic = "ABFL"
let version = 1

let write_event w (e : event) =
  Wire.write_varint w e.e_time;
  Wire.write_varint w e.e_node;
  Wire.write_varint w e.e_group;
  Wire.write_varint w e.e_boot;
  Wire.write_varint w e.e_stage;
  Wire.write_varint w e.e_trace;
  Wire.write_varint w e.e_a;
  Wire.write_varint w e.e_b

let read_event r =
  let e_time = Wire.read_varint r in
  let e_node = Wire.read_varint r in
  let e_group = Wire.read_varint r in
  let e_boot = Wire.read_varint r in
  let e_stage = Wire.read_varint r in
  let e_trace = Wire.read_varint r in
  let e_a = Wire.read_varint r in
  let e_b = Wire.read_varint r in
  { e_time; e_node; e_group; e_boot; e_stage; e_trace; e_a; e_b }

let dump_string t =
  let m = stored t in
  let w = Wire.writer ~cap:(32 + (m * 16)) () in
  let buf = Wire.unsafe_reserve w 4 in
  Bytes.blit_string magic 0 buf (Wire.length w) 4;
  Wire.unsafe_advance w 4;
  Wire.write_uvarint w version;
  Wire.write_uvarint w (dropped t);
  Wire.write_uvarint w m;
  for i = 0 to m - 1 do
    write_event w (event_at t i)
  done;
  Wire.contents w

let read_dump r =
  if Wire.remaining r < 4 then Wire.error "flight: short magic";
  let pos = Wire.unsafe_pos r in
  let got = String.sub (Wire.unsafe_buf r) pos 4 in
  if got <> magic then Wire.error "flight: bad magic %S" got;
  Wire.unsafe_seek r (pos + 4);
  let v = Wire.read_uvarint r in
  if v <> version then Wire.error "flight: unsupported version %d" v;
  let d_dropped = Wire.read_uvarint r in
  let m = Wire.read_uvarint r in
  (* hostile-count guard: each event is at least 8 bytes *)
  if m < 0 || m > Wire.remaining r then
    Wire.error "flight: event count %d exceeds buffer" m;
  let acc = ref [] in
  for _ = 1 to m do
    acc := read_event r :: !acc
  done;
  { d_dropped; d_events = List.rev !acc }

let load_string s = Wire.of_string_result read_dump s

let dump_to_file t path = Durable.write_file ~fsync:true path (dump_string t)

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> load_string s
