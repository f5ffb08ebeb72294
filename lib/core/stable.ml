module Storage = Abcast_sim.Storage
module Wire = Abcast_util.Wire

let layer = "abcast"
let checkpoint_key = "ab/checkpoint"
let unordered_key = "ab/unordered"
let item_prefix = "ab/u/"

(* Built by concatenation, not [sprintf]: one of these is materialized
   per logged payload, and the format interpreter showed up in
   profiles. *)
let item_key ~origin ~boot seq =
  let digits = string_of_int seq in
  String.concat ""
    [
      item_prefix; string_of_int origin; "."; string_of_int boot; ".";
      String.make (max 0 (12 - String.length digits)) '0'; digits;
    ]

type app = { checkpoint : unit -> string; install : string -> unit }

let encode_checkpoint =
  Wire.to_string (fun w ((k, repr) : int * Agreed.repr) ->
      Wire.write_varint w k;
      Agreed.write_repr w repr)

let decode_checkpoint =
  Wire.of_string_opt (fun r ->
      let k = Wire.read_varint r in
      (k, Agreed.read_repr r))

(* [logged] is the size of the set the full-set record holds. *)
type log = No_log | Per_item | Full_set of { mutable logged : int }

type t = {
  store : Storage.t;
  self : int;
  boot : int;
  app : app option;
  mutable ck_k : int; (* commit cursor at the last checkpoint, -1 if none *)
  mutable ck_len : int; (* delivery length at the last checkpoint *)
  log : log;
}

let create store ~self ~boot ~app ~early_return ~incremental =
  let log =
    if not early_return then No_log
    else if incremental then Per_item
    else Full_set { logged = 0 }
  in
  { store; self; boot; app; ck_k = -1; ck_len = -1; log }

(* --- The Unordered log (§5.4/§5.5) ----------------------------------- *)

let write_set t unordered =
  Storage.write t.store ~layer ~key:unordered_key
    (Wire.to_string (Wire.write_list Payload.write) (Unordered.to_list unordered))

let log_add t unordered (p : Payload.t) =
  match t.log with
  | No_log -> ()
  | Per_item ->
    Storage.write t.store ~layer
      ~key:(item_key ~origin:p.id.origin ~boot:p.id.boot p.id.seq)
      (Wire.to_string Payload.write p)
  | Full_set f ->
    write_set t unordered;
    f.logged <- f.logged + 1

(* Only our own payloads are logged, and each stream is delivered in
   seq order: what a checkpoint can drop is each own stream's delivered
   prefix, one key range (a range with no key left costs no record). *)
let retire t agreed unordered =
  match t.log with
  | No_log -> ()
  | Per_item ->
    let vc = Agreed.vc agreed and origin = t.self in
    for boot = 0 to t.boot do
      let upto = Vclock.next_seq vc ~origin ~boot in
      if upto > 0 then
        Storage.delete_range t.store ~layer
          ~lo:(item_key ~origin ~boot 0)
          ~hi:(item_key ~origin ~boot upto)
    done
  | Full_set f ->
    if f.logged > Unordered.count unordered then begin
      write_set t unordered;
      f.logged <- Unordered.count unordered
    end

let restore t agreed unordered =
  (* a corrupt record is skipped, not fatal *)
  let read key decode = Option.bind (Storage.read t.store key) decode in
  let add (p : Payload.t) =
    if not (Agreed.contains agreed p.id) then
      Unordered.add unordered ~vc:(Agreed.vc agreed) p
  in
  match t.log with
  | No_log -> ()
  | Per_item ->
    List.iter
      (fun key -> Option.iter add (read key (Wire.of_string_opt Payload.read)))
      (Storage.keys_with_prefix t.store item_prefix)
  | Full_set f ->
    Option.iter
      (fun ps ->
        f.logged <- List.length ps;
        List.iter add ps)
      (read unordered_key (Wire.of_string_opt Payload.read_list))

(* --- The (k, Agreed) checkpoint (§5.1/§5.2) -------------------------- *)

let write_record t ~k agreed =
  Storage.write t.store ~layer ~key:checkpoint_key
    (encode_checkpoint (k, Agreed.snapshot agreed))

(* A checkpoint of a quiescent node would rewrite the same bytes (and
   wake the WAL's fsync pacer and compaction for nothing). *)
let checkpoint t ~k agreed unordered ~truncate =
  let len = Agreed.total_len agreed in
  if k <> t.ck_k || len <> t.ck_len then begin
    t.ck_k <- k;
    t.ck_len <- len;
    Option.iter
      (fun app -> Agreed.compact agreed ~app_blob:(app.checkpoint ()))
      t.app;
    write_record t ~k agreed;
    truncate k;
    retire t agreed unordered
  end

let persist_jump = write_record

let last_checkpoint t =
  Option.map
    (fun (k, (repr : Agreed.repr)) ->
      (match (t.app, repr.base_app) with
      | Some app, Some blob -> app.install blob
      | _ -> ());
      (k, Agreed.restore repr))
    (Option.bind (Storage.read t.store checkpoint_key) decode_checkpoint)

(* --- State transfer (§5.3) ------------------------------------------- *)

let snapshot_for agreed ~for_len =
  match Option.bind for_len (fun len -> Agreed.suffix_snapshot agreed ~from_len:len) with
  | Some trimmed -> trimmed
  | None -> Agreed.snapshot agreed

let adoptable ~delta ~committed agreed ~k ~floor (repr : Agreed.repr) =
  match delta with
  | Some delta ->
    committed < k
    && (committed < k - delta || committed < floor)
    && (repr.base_app <> None || Agreed.total_len agreed >= repr.base_len)
  | None -> false

let adopt t agreed repr =
  match Agreed.adopt agreed repr with
  | `Deliver ps -> ps
  | `Install (blob, ps) ->
    (match (t.app, blob) with
    | Some app, Some b -> app.install b
    | _, None -> assert (repr.base_len = 0)
    | None, Some _ ->
      invalid_arg "state transfer: checkpointed donor but no app hook");
    ps
