module type MACHINE = sig
  type state

  val name : string

  val initial : state

  val apply : state -> string -> state
end

module Make (M : MACHINE) = struct
  type t = { mutable state : M.state; mutable applied : int }

  let create () = { state = M.initial; applied = 0 }

  let state t = t.state

  let applied t = t.applied

  let deliver t (p : Abcast_core.Payload.t) =
    t.state <- M.apply t.state p.data;
    t.applied <- t.applied + 1

  let hooks t =
    {
      Abcast_core.Protocol.checkpoint =
        (fun () -> Abcast_sim.Storage.encode (t.state, t.applied));
      install =
        (fun blob ->
          let (st, n) : M.state * int = Abcast_sim.Storage.decode blob in
          t.state <- st;
          t.applied <- n);
    }

  let factory register ~node ~group:_ =
    let t = create () in
    register node t;
    (hooks t, deliver t)
end
