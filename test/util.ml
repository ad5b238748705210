(* Shared helpers for the test suites. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* Run [f] and expect it to raise an exception satisfying [pred]. *)
let expect_exn name pred f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | _ -> Alcotest.fail "expected an exception"
      | exception e ->
        if not (pred e) then
          Alcotest.failf "unexpected exception %s" (Printexc.to_string e))

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Replace the first occurrence of [needle] in [hay]. *)
let replace_first hay needle replacement =
  let n = String.length needle and h = String.length hay in
  let rec at i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else at (i + 1)
  in
  match at 0 with
  | None -> hay
  | Some i ->
    String.sub hay 0 i ^ replacement
    ^ String.sub hay (i + n) (h - i - n)

(* Dial [socket] and announce protocol [version] in a hello frame;
   the server's answer, or [None] when it hung up instead. *)
let hello_as ~socket version =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Ddf.Wire.send_request fd (Ddf.Wire.Hello { user = "raw"; version });
      Option.map fst (Ddf.Wire.recv_response fd))

let copy_file src dst =
  let ic = open_in_bin src in
  let data =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)
