type policy = Always | Every of { ops : int; ms : int } | Never

let policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Every { ops; ms } -> Printf.sprintf "every:%d:%d" ops ms

let policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
    match String.split_on_char ':' s with
    | [ "every"; ops; ms ] -> (
      match (int_of_string_opt ops, int_of_string_opt ms) with
      | Some ops, Some ms when ops > 0 && ms > 0 -> Ok (Every { ops; ms })
      | _ -> Error "fsync policy: every:<ops>:<ms> needs positive integers")
    | _ ->
      Error
        (Printf.sprintf
           "fsync policy %S: expected always | never | every:<ops>:<ms>" s))

let fsync_fd fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
    fsync_fd fd;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let fsync_dir = fsync_path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_all fd buf off len =
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    let n = Unix.write fd buf !pos (stop - !pos) in
    if n <= 0 then raise (Sys_error "Durable.write_all: short write");
    pos := !pos + n
  done

let write_file ?(fsync = false) path contents =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_all fd (Bytes.unsafe_of_string contents) 0 (String.length contents);
  if fsync then fsync_fd fd;
  Unix.close fd;
  Sys.rename tmp path;
  if fsync then fsync_dir (Filename.dirname path)

type pacer = {
  pol : policy;
  mutable unsynced : int;
  mutable last_sync : float;
}

let pacer pol = { pol; unsynced = 0; last_sync = Unix.gettimeofday () }

let policy p = p.pol

let note_op p =
  match p.pol with
  | Always ->
    p.unsynced <- p.unsynced + 1;
    true
  | Never -> false
  | Every { ops; ms } ->
    p.unsynced <- p.unsynced + 1;
    p.unsynced >= ops
    || (Unix.gettimeofday () -. p.last_sync) *. 1000.0 >= float_of_int ms

let note_sync p =
  p.unsynced <- 0;
  p.last_sync <- Unix.gettimeofday ()

let pending p = p.unsynced > 0
