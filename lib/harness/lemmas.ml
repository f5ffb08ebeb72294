module Keys = Abcast_consensus.Consensus_intf.Keys

type t = {
  cluster : Cluster.t;
  period : int;
  (* last seen immutable values: (node, instance) -> value *)
  proposals : (int * int, string) Hashtbl.t;
  decisions : (int * int, string) Hashtbl.t;
  (* per-instance agreed decision across nodes *)
  agreed_decisions : (int, string) Hashtbl.t;
  (* highest checkpoint k logged per node *)
  logged_k : (int, int) Hashtbl.t;
  mutable violations : string list; (* newest first *)
}

let violation t fmt =
  Format.kasprintf (fun s -> t.violations <- s :: t.violations) fmt

(* The checkpoint slot stores a wire-encoded (k, Agreed.repr); decode
   just the round. *)
let checkpoint_k cluster node =
  match Cluster.read_storage cluster node Abcast_core.Stable.checkpoint_key with
  | None -> None
  | Some blob -> (
    match Abcast_core.Stable.decode_checkpoint blob with
    | Some (k, _) -> Some k
    | None -> None)

let audit_immutable t ~what table ~node ~instance value =
  match Hashtbl.find_opt table (node, instance) with
  | None -> Hashtbl.add table (node, instance) value
  | Some old when String.equal old value -> ()
  | Some _ ->
    violation t "%s of instance %d changed at p%d after being logged" what
      instance node

let sample_now t =
  let n = Cluster.n t.cluster in
  for node = 0 to n - 1 do
    (* P1/P2: logged checkpoint round is non-decreasing. *)
    (match checkpoint_k t.cluster node with
    | None -> ()
    | Some k -> (
      match Hashtbl.find_opt t.logged_k node with
      | Some prev when k < prev ->
        violation t "logged round went backwards at p%d: %d after %d" node k
          prev
      | _ -> Hashtbl.replace t.logged_k node k));
    (* P4/P5 and uniform agreement, from the consensus log. *)
    List.iter
      (fun key ->
        match (Keys.instance_of_key key, Keys.field_of_key key) with
        | Some instance, Some "proposal" -> (
          match Cluster.read_storage t.cluster node key with
          | Some v ->
            audit_immutable t ~what:"proposal" t.proposals ~node ~instance v
          | None -> ())
        | Some instance, Some "decision" -> (
          match Cluster.read_storage t.cluster node key with
          | Some v -> (
            audit_immutable t ~what:"decision" t.decisions ~node ~instance v;
            match Hashtbl.find_opt t.agreed_decisions instance with
            | None -> Hashtbl.add t.agreed_decisions instance v
            | Some other when String.equal other v -> ()
            | Some _ ->
              violation t
                "uniform agreement broken: instance %d decided differently \
                 at p%d"
                instance node)
          | None -> ())
        | _ -> ())
      (Cluster.storage_keys t.cluster node Keys.prefix)
  done

let attach cluster ?(period = 5_000) () =
  let t =
    {
      cluster;
      period;
      proposals = Hashtbl.create 64;
      decisions = Hashtbl.create 64;
      agreed_decisions = Hashtbl.create 64;
      logged_k = Hashtbl.create 8;
      violations = [];
    }
  in
  let rec loop () =
    sample_now t;
    Cluster.after cluster t.period loop
  in
  Cluster.after cluster t.period loop;
  t

let violations t = List.rev t.violations

let report t =
  match violations t with [] -> Ok () | v :: _ -> Error v

let check_converged t ~good =
  sample_now t;
  match report t with
  | Error _ as e -> e
  | Ok () -> (
    match good with
    | [] -> Ok ()
    | first :: rest ->
      let k0 = Cluster.round t.cluster first in
      let rec go = function
        | [] -> Ok ()
        | i :: tl ->
          let k = Cluster.round t.cluster i in
          if k <> k0 then
            Error
              (Printf.sprintf
                 "P3: good processes in different rounds at quiescence (p%d \
                  at %d, p%d at %d)"
                 first k0 i k)
          else go tl
      in
      go rest)
