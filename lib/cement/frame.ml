(* The J1 frame (see frame.mli): a length and an md5 make each frame
   self-delimiting and a torn or damaged one detectable. *)

exception Torn of int

let header payload =
  Printf.sprintf "J1 %d %s\n" (String.length payload)
    (Digest.to_hex (Digest.string payload))

let output oc payload =
  output_string oc (header payload);
  output_string oc payload;
  output_char oc '\n'

let to_string payload = header payload ^ payload ^ "\n"

let input ic =
  let start = pos_in ic in
  match input_line ic with
  | exception End_of_file -> None
  | header -> (
    match String.split_on_char ' ' header with
    | [ "J1"; len; digest ] ->
      let len =
        match int_of_string_opt len with
        | Some n when n >= 0 -> n
        | Some _ | None -> raise (Torn start)
      in
      let payload =
        try really_input_string ic len with End_of_file -> raise (Torn start)
      in
      (match input_char ic with
      | '\n' -> ()
      | _ | (exception End_of_file) -> raise (Torn start));
      if Digest.to_hex (Digest.string payload) <> digest then raise (Torn start);
      Some payload
    | _ -> raise (Torn start))
