(* One node's read-lease state for one broadcast group.

   Safety: two nodes never serve at once. Say A serves on its own marker
   m_A and B on m_B, later in the order. B's current incarnation covered
   m_A's position before applying m_B: either it applied m_A, or it
   installed a checkpoint that folds m_A in. Both happened after A
   stamped m_A's lease start t0, so B's [foreign_until] exceeds
   t0 + lease, where A's lease ends.

   A serving node also leads in its own view: only a granted own marker
   sets the lease, an applied rival Claim voids it, and an install
   pushes [foreign_until] past every lease started before it. *)

type t = {
  self : int;
  lease_s : float;
  pending : (int, float) Hashtbl.t;  (* own stamp -> wall time pre-send *)
  mutable lease_until : float;  (* 0. = no lease *)
  mutable foreign_until : float;  (* serve only from here on *)
}

(* Zero skew on one host's shared clock; covers gettimeofday granularity. *)
let epsilon = 0.005

let create ~self ~lease_s =
  {
    self;
    lease_s;
    pending = Hashtbl.create 8;
    lease_until = 0.;
    foreign_until = 0.;
  }

(* Stamps whose marker evidently got lost go, bounding the table; a grant
   arriving after this is ignored (conservative: we only ever fail to
   take a lease we could have taken). *)
let sent v ~now ~stamp =
  Hashtbl.filter_map_inplace
    (fun _ t0 -> if now -. t0 > 10. *. v.lease_s then None else Some t0)
    v.pending;
  Hashtbl.replace v.pending stamp now

let push_foreign v ~now =
  v.foreign_until <- Float.max v.foreign_until (now +. v.lease_s +. epsilon)

let on_marker v ~now ~kind ~node ~stamp ~granted =
  if node = v.self then begin
    (match Hashtbl.find_opt v.pending stamp with
    | Some t0 when granted -> v.lease_until <- t0 +. v.lease_s
    | _ -> ());
    Hashtbl.remove v.pending stamp
  end
  else if granted then begin
    push_foreign v ~now;
    if kind = `Claim then v.lease_until <- 0.
  end

let on_install v ~now ~leader = if leader >= 0 then push_foreign v ~now

let serves v ~now = now < v.lease_until && now >= v.foreign_until
