(* The server under test as a separate process: launch `hercules serve`,
   wait until it answers, read its /proc figures, stop it. *)

open Ddf

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

type server = {
  pid : int;
  socket : string;
  db : string;
}

(* Every process started and not yet reaped, killed on any exit path. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  Hashtbl.remove live pid

let kill_all () =
  Hashtbl.iter
    (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    live;
  List.iter reap (List.of_seq (Hashtbl.to_seq_keys live))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Bytes of regular files under [path]. *)
let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc f -> acc + du (Filename.concat path f))
      0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let rec copy_tree src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
    Unix.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  | Unix.S_REG ->
    let ic = open_in_bin src and oc = open_out_bin dst in
    let buf = Bytes.create 65536 in
    let rec go () =
      let n = input ic buf 0 (Bytes.length buf) in
      if n > 0 then begin
        output oc buf 0 n;
        go ()
      end
    in
    go ();
    close_in ic;
    close_out oc
  | _ -> ()

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    Hashtbl.remove live pid;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* The flags every server runs with: the server's defaults, spelled out
   so that the record states what ran. *)
let server_flags = [ "--sync-mode"; "group"; "--read-domains"; "0"; "--compact-every"; "512" ]

(* Launch `hercules serve --db DB --socket SOCKET [server_flags] [extra]`.
   Returns once the socket accepts a connection. *)
let start ~hercules ~db ~socket ?(extra = []) ~log () =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv =
    Array.of_list ([ hercules; "serve"; "--db"; db; "--socket"; socket ] @ server_flags @ extra)
  in
  let pid = Unix.create_process hercules argv Unix.stdin out out in
  Unix.close out;
  Hashtbl.replace live pid ();
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    if exited pid then fail "server on %s exited during start-up (see %s)" db log
    else if Unix.gettimeofday () > deadline then fail "server on %s did not start" db
    else
      match Client.connect ~user:"perfbench-probe" ~socket () with
      | c ->
        Client.close c;
        { pid; socket; db }
      | exception _ ->
        Unix.sleepf 0.002;
        wait ()
  in
  wait ()

(* Graceful shutdown through the wire, then reap; SIGKILL after 30 s. *)
let stop s =
  (try Client.with_client ~user:"perfbench-admin" ~socket:s.socket Client.shutdown
   with _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    if not (exited s.pid) then
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap s.pid
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* Peak resident set (VmHWM) in KiB. *)
let vm_hwm_kb pid =
  let text = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' text)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id

(* utime + stime of a process, in seconds (USER_HZ = 100 on Linux). *)
let cpu_s pid =
  let text = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest =
    let i = String.rindex text ')' in
    String.sub text (i + 2) (String.length text - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string (f.(11)) /. 100. +. float_of_string (f.(12)) /. 100.

(* The filesystem type of the mount holding [path] (longest matching
   mount point in /proc/mounts). *)
let fs_type path =
  let path =
    if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path
  in
  let best = ref ("", "unknown") in
  (try
     List.iter
       (fun l ->
         match String.split_on_char ' ' l with
         | _ :: mnt :: ty :: _ ->
           let n = String.length mnt in
           let under =
             mnt = "/"
             || (String.length path >= n && String.sub path 0 n = mnt
                && (String.length path = n || path.[n] = '/'))
           in
           if under && n >= String.length (fst !best) then best := (mnt, ty)
         | _ -> ())
       (String.split_on_char '\n' (read_file "/proc/mounts"))
   with Sys_error _ -> ());
  snd !best
