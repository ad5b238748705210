(* Tiered cold storage: cemented journal history in append-only,
   checksummed, index-backed segment files.

   Layout of a cement directory (conventionally <db>/cemented):

     segment-<first>-<last>.ddf    C1 <first> <last>\n  + J1 frames
     segment-<first>-<last>.idx    I1 <first> <last> <count>\n
                                   + one 32-byte line per entry:
                                     %016x %c %012d\n
                                     offset kind  id

   The frames are the wal's, through the same codec ([Frame]: J1 <len>
   <md5> header, payload, newline), so cementing is a copy, not a
   re-encoding, and every read re-verifies the md5.  The index line
   records the frame's byte offset (hex, fixed width), its entry kind
   (p/n/r/c/v for put/note/record/conflict/resolve) and the id the
   entry installs (the iid for puts and notes, 0 otherwise) — enough
   for O(1) seqno lookup and for the store's cold-load path to find
   the put frame of an evicted payload without replaying anything.

   The index is derived data: if it is missing, or its header
   disagrees with the segment, it is rebuilt by one sequential scan.
   Open reads every segment whole and checks every frame's md5 (the
   open-time integrity scan).  Only the newest segment may have a torn
   tail (older ones were complete when the next was created): it is
   truncated back to the last good frame, while a short or damaged
   older segment is a typed error. *)

module Metrics = Ddf_obs.Metrics
module Obs = Ddf_obs.Obs

let cement_errorf ?(code = `Internal) fmt = Ddf_core.Error.errorf code fmt

let g_segments = Metrics.gauge "cement.segments"
let g_bytes = Metrics.gauge "cement.bytes"
let m_reads = Metrics.counter "cement.reads"
let m_folds = Metrics.counter "cement.folds"
let h_fold = Metrics.histogram "cement.fold_seconds"

(* ------------------------------------------------------------------ *)
(* Entry classification (for the index)                                *)
(* ------------------------------------------------------------------ *)

(* Frames are our own codec's output: "(put (iid N) ...)", "(note (iid
   N) ...)", "(record ...)", "(conflict ...)", "(resolve ...)".  The
   kind is the first atom; the id is the integer after the first
   "(iid" (puts and notes only).  A scan, not a full parse — the frame
   checksum already vouches for the bytes. *)
let classify payload =
  let n = String.length payload in
  let rec skip_ws i = if i < n && (payload.[i] = ' ' || payload.[i] = '\n') then skip_ws (i + 1) else i in
  let kind =
    let i = skip_ws (if n > 0 && payload.[0] = '(' then 1 else 0) in
    let rec word j = if j < n && payload.[j] >= 'a' && payload.[j] <= 'z' then word (j + 1) else j in
    match String.sub payload i (word i - i) with
    | "put" -> 'p'
    | "note" -> 'n'
    | "record" -> 'r'
    | "conflict" -> 'c'
    | "resolve" -> 'v'
    | _ | (exception Invalid_argument _) -> '?'
  in
  let id =
    if kind <> 'p' && kind <> 'n' then 0
    else
      let rec find i =
        if i + 4 > n then 0
        else if String.sub payload i 4 = "(iid" then
          let i = skip_ws (i + 4) in
          let rec digits j acc =
            if j < n && payload.[j] >= '0' && payload.[j] <= '9' then
              digits (j + 1) ((acc * 10) + Char.code payload.[j] - 48)
            else acc
          in
          digits i 0
        else find (i + 1)
      in
      find 0
  in
  (kind, id)

(* ------------------------------------------------------------------ *)
(* Segments                                                            *)
(* ------------------------------------------------------------------ *)

type segment = {
  s_first : int;
  s_last : int;
  s_path : string;                    (* .ddf *)
  s_idx : string;                     (* .idx *)
  s_bytes : int;
  s_idx_base : int;                   (* byte length of the idx header *)
  s_min_put : int;                    (* smallest/largest put iid, 0/0 if none *)
  s_max_put : int;
  mutable s_ic : in_channel option;           (* cached .ddf channel *)
  mutable s_idx_fd : Unix.file_descr option;  (* cached .idx descriptor *)
}

type t = {
  c_dir : string;
  c_m : Mutex.t;
  mutable c_segments : segment array;  (* ascending, contiguous *)
  c_truncated : int;
}

let idx_line_len = 32

let seg_name first last = Printf.sprintf "segment-%012d-%012d" first last
let seg_path dir first last = Filename.concat dir (seg_name first last ^ ".ddf")
let idx_path dir first last = Filename.concat dir (seg_name first last ^ ".idx")

let parse_seg_name name =
  match Scanf.sscanf name "segment-%012d-%012d.ddf%!" (fun a b -> (a, b)) with
  | pair -> Some pair
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let idx_header first last count = Printf.sprintf "I1 %d %d %d\n" first last count
let idx_entry off kind id = Printf.sprintf "%016x %c %012d\n" off kind id

let parse_idx_entry line =
  if String.length line <> idx_line_len - 1 then
    cement_errorf "cement index: malformed entry %S" line
  else
    let off = int_of_string ("0x" ^ String.sub line 0 16) in
    let kind = line.[17] in
    let id = int_of_string (String.sub line 19 12) in
    (off, kind, id)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Scan a segment's frames: returns (offsets-and-payloads in order,
   end-of-good-prefix).  [offsets] are absolute file offsets. *)
let scan_segment path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let header = try input_line ic with End_of_file -> "" in
  match String.split_on_char ' ' header with
  | [ "C1"; first; last ] -> (
    match (int_of_string_opt first, int_of_string_opt last) with
    | Some first, Some last ->
      let frames = ref [] in
      let rec go () =
        let off = pos_in ic in
        match Frame.input ic with
        | None -> off
        | exception Frame.Torn at -> at
        | Some payload ->
          frames := (off, payload) :: !frames;
          go ()
      in
      let good_end = go () in
      `Seg (first, last, List.rev !frames, good_end, in_channel_length ic)
    | _ -> `Bad_header)
  | _ -> `Bad_header

(* Build (or rebuild) the idx file for a scanned segment; returns the
   idx header length. *)
let write_idx ~dir ~first ~last frames =
  let path = idx_path dir first last in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let header = idx_header first last (List.length frames) in
  (try
     output_string oc header;
     List.iter
       (fun (off, payload) ->
         let kind, id = classify payload in
         output_string oc (idx_entry off kind id))
       frames;
     fsync_oc oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  String.length header

let put_bounds frames =
  List.fold_left
    (fun (mn, mx) (_, payload) ->
      match classify payload with
      | 'p', id when id > 0 ->
        ((if mn = 0 then id else min mn id), max mx id)
      | _ -> (mn, mx))
    (0, 0) frames

(* Validate the idx against the segment scan; rebuild when stale.
   Returns (idx_base, min_put, max_put). *)
let ensure_idx ~dir ~first ~last frames =
  let path = idx_path dir first last in
  let count = List.length frames in
  let expect = idx_header first last count in
  let stale =
    if not (Sys.file_exists path) then true
    else begin
      let ic = open_in_bin path in
      let header = (try input_line ic with End_of_file -> "") ^ "\n" in
      let len = in_channel_length ic in
      close_in ic;
      header <> expect
      || len <> String.length expect + (count * idx_line_len)
    end
  in
  let base =
    if stale then write_idx ~dir ~first ~last frames
    else String.length expect
  in
  let mn, mx = put_bounds frames in
  (base, mn, mx)

(* ------------------------------------------------------------------ *)
(* Open                                                                *)
(* ------------------------------------------------------------------ *)

let refresh_gauges t =
  Metrics.set g_segments (float_of_int (Array.length t.c_segments));
  Metrics.set g_bytes
    (float_of_int
       (Array.fold_left (fun acc s -> acc + s.s_bytes) 0 t.c_segments))

let open_ ~dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    cement_errorf "%s is not a directory" dir;
  let names =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map parse_seg_name
    |> List.sort compare
  in
  let truncated = ref 0 in
  (* leftover temp files from a crashed fold are garbage *)
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".tmp" then
        try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (Sys.readdir dir);
  let n_names = List.length names in
  let segments =
    List.mapi
      (fun i (first, last) ->
        let path = seg_path dir first last in
        let newest = i = n_names - 1 in
        match scan_segment path with
        | `Bad_header ->
          if newest then begin
            (* a damaged newest segment cannot be trusted at all *)
            truncated := !truncated + (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0);
            (try Sys.remove path with Sys_error _ -> ());
            (try Sys.remove (idx_path dir first last) with Sys_error _ -> ());
            None
          end
          else cement_errorf "cement segment %s: bad header" path
        | `Seg (hfirst, hlast, frames, good_end, size) ->
          if hfirst <> first || hlast <> last then
            cement_errorf "cement segment %s: header names %d-%d" path hfirst
              hlast;
          let have = List.length frames in
          let want = last - first + 1 in
          if have > want then
            cement_errorf "cement segment %s: %d frames for window %d-%d" path
              have first last;
          if have < want && not newest then
            cement_errorf "cement segment %s: torn mid-store (%d/%d frames)"
              path have want;
          if have = 0 then begin
            (* nothing survived: drop the segment *)
            truncated := !truncated + size;
            (try Sys.remove path with Sys_error _ -> ());
            (try Sys.remove (idx_path dir first last) with Sys_error _ -> ());
            None
          end
          else begin
            let last, path, size =
              if have = want then (last, path, size)
              else begin
                (* torn tail on the newest segment: truncate to the
                   good prefix and rename to the window that survived *)
                truncated := !truncated + (size - good_end);
                let last' = first + have - 1 in
                let path' = seg_path dir first last' in
                let ic = open_in_bin path in
                let good = really_input_string ic good_end in
                close_in ic;
                (* rewrite with the corrected header, atomically *)
                let body =
                  let nl = String.index good '\n' in
                  String.sub good (nl + 1) (String.length good - nl - 1)
                in
                let tmp = path' ^ ".tmp" in
                let oc = open_out_bin tmp in
                let hdr = Printf.sprintf "C1 %d %d\n" first last' in
                output_string oc hdr;
                output_string oc body;
                fsync_oc oc;
                close_out oc;
                Sys.rename tmp path';
                if path' <> path then
                  (try Sys.remove path with Sys_error _ -> ());
                (try Sys.remove (idx_path dir first last) with Sys_error _ -> ());
                (* offsets shift by the header-length delta *)
                (last', path', String.length hdr + String.length body)
              end
            in
            (* re-scan offsets if we rewrote; cheap relative to open *)
            let frames =
              if last = hlast then frames
              else
                match scan_segment path with
                | `Seg (_, _, frames, _, _) -> frames
                | `Bad_header -> cement_errorf "cement segment %s: rewrite failed" path
            in
            let idx_base, mn, mx = ensure_idx ~dir ~first ~last frames in
            Some
              { s_first = first; s_last = last; s_path = path;
                s_idx = idx_path dir first last; s_bytes = size;
                s_idx_base = idx_base; s_min_put = mn; s_max_put = mx;
                s_ic = None; s_idx_fd = None }
          end)
      names
    |> List.filter_map Fun.id
  in
  if !truncated > 0 then fsync_dir dir;
  (* surviving segments must be contiguous *)
  let rec check = function
    | a :: (b :: _ as rest) ->
      if b.s_first <> a.s_last + 1 then
        cement_errorf "cement store %s: gap between %d and %d" dir a.s_last
          b.s_first;
      check rest
    | _ -> ()
  in
  check segments;
  let t =
    { c_dir = dir; c_m = Mutex.create ();
      c_segments = Array.of_list segments; c_truncated = !truncated }
  in
  refresh_gauges t;
  t

let dir t = t.c_dir
let truncated_on_open t = t.c_truncated

let locked t f =
  Mutex.lock t.c_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.c_m) f

let first_seq t =
  locked t @@ fun () ->
  if Array.length t.c_segments = 0 then 0 else t.c_segments.(0).s_first

let last_seq t =
  locked t @@ fun () ->
  let n = Array.length t.c_segments in
  if n = 0 then 0 else t.c_segments.(n - 1).s_last

let segment_count t = locked t @@ fun () -> Array.length t.c_segments

let total_bytes t =
  locked t @@ fun () ->
  Array.fold_left (fun acc s -> acc + s.s_bytes) 0 t.c_segments

(* ------------------------------------------------------------------ *)
(* Fold (cementing)                                                    *)
(* ------------------------------------------------------------------ *)

let fold t ~first frames =
  let t0 = Unix.gettimeofday () in
  locked t
    (fun () ->
      let n = Array.length t.c_segments in
      let last_cemented = if n = 0 then 0 else t.c_segments.(n - 1).s_last in
      (* idempotence across the compact crash window: skip what is
         already cemented *)
      let frames =
        List.filteri (fun i _ -> first + i > last_cemented) frames
      in
      let first = max first (last_cemented + 1) in
      match frames with
      | [] -> ()
      | frames ->
        if n > 0 && first <> last_cemented + 1 then
          cement_errorf ~code:`Conflict
            "cement fold gap: have through %d, offered from %d" last_cemented
            first;
        (* contiguity within the batch is the caller's contract; the
           index assumes seqno = first + position *)
        let last = first + List.length frames - 1 in
        let path = seg_path t.c_dir first last in
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        let offsets = ref [] in
        (try
           let hdr = Printf.sprintf "C1 %d %d\n" first last in
           output_string oc hdr;
           List.iter
             (fun (_, payload) ->
               offsets := (pos_out oc, payload) :: !offsets;
               Frame.output oc payload)
             frames;
           fsync_oc oc;
           close_out oc
         with e ->
           close_out_noerr oc;
           (try Sys.remove tmp with Sys_error _ -> ());
           raise e);
        Sys.rename tmp path;
        let offsets = List.rev !offsets in
        let idx_base = write_idx ~dir:t.c_dir ~first ~last offsets in
        fsync_dir t.c_dir;
        let mn, mx = put_bounds offsets in
        let size = (Unix.stat path).Unix.st_size in
        let seg =
          { s_first = first; s_last = last; s_path = path;
            s_idx = idx_path t.c_dir first last; s_bytes = size;
            s_idx_base = idx_base; s_min_put = mn; s_max_put = mx;
            s_ic = None; s_idx_fd = None }
        in
        t.c_segments <- Array.append t.c_segments [| seg |];
        Metrics.incr m_folds;
        refresh_gauges t);
  let dt = Unix.gettimeofday () -. t0 in
  Metrics.observe h_fold dt;
  if Obs.enabled () then
    Obs.complete ~cat:"cement" ~dur_us:(dt *. 1e6)
      ~attrs:[ ("frames", Obs.Int (List.length frames)) ]
      "cement.fold"

(* ------------------------------------------------------------------ *)
(* Reads (positioned, index-backed)                                    *)
(* ------------------------------------------------------------------ *)

(* Positioned reads on cached handles.  Callers hold [t.c_m], so a
   seek and the read after it are atomic with respect to other
   readers. *)
let seg_ic seg =
  match seg.s_ic with
  | Some ic -> ic
  | None ->
    let ic = open_in_bin seg.s_path in
    seg.s_ic <- Some ic;
    ic

let seg_idx_fd seg =
  match seg.s_idx_fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.openfile seg.s_idx [ Unix.O_RDONLY ] 0 in
    seg.s_idx_fd <- Some fd;
    fd

let pread fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET : int);
  let buf = Bytes.create len in
  let rec go o =
    if o >= len then o
    else
      match Unix.read fd buf o (len - o) with 0 -> o | k -> go (o + k)
  in
  let n = go 0 in
  Bytes.sub_string buf 0 n

let find_segment t seq =
  let segs = t.c_segments in
  let rec bisect lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let s = segs.(mid) in
      if seq < s.s_first then bisect lo (mid - 1)
      else if seq > s.s_last then bisect (mid + 1) hi
      else Some s
  in
  bisect 0 (Array.length segs - 1)

(* The indexed offset of [seq] within its segment. *)
let entry_offset seg seq =
  let k = seq - seg.s_first in
  let line =
    pread (seg_idx_fd seg) ~off:(seg.s_idx_base + (k * idx_line_len))
      ~len:idx_line_len
  in
  if String.length line <> idx_line_len then
    cement_errorf "cement index %s: short read at entry %d" seg.s_idx k;
  let off, kind, id = parse_idx_entry (String.sub line 0 (idx_line_len - 1)) in
  (off, kind, id)

(* Read and verify the frame at [off]. *)
let frame_at seg off =
  let ic = seg_ic seg in
  seek_in ic off;
  match Frame.input ic with
  | Some payload -> payload
  | None -> cement_errorf "cement segment %s: no frame at %d" seg.s_path off
  | exception Frame.Torn _ ->
    cement_errorf "cement segment %s: damaged frame at %d" seg.s_path off

let read t seq =
  locked t @@ fun () ->
  match find_segment t seq with
  | None -> None
  | Some seg ->
    let off, _, _ = entry_offset seg seq in
    Metrics.incr m_reads;
    Some (frame_at seg off)

let iter_range t ~from ~upto f =
  (* collect under the lock, deliver outside it, segment by segment —
     [f] may be arbitrary user code *)
  let batch from upto =
    locked t @@ fun () ->
    match find_segment t from with
    | None -> None
    | Some seg ->
      let hi = min upto seg.s_last in
      let off, _, _ = entry_offset seg from in
      let out = ref [ (from, frame_at seg off) ] in
      for seq = from + 1 to hi do
        match Frame.input (seg_ic seg) with
        | Some payload -> out := (seq, payload) :: !out
        | None | (exception Frame.Torn _) ->
          cement_errorf "cement segment %s: truncated mid-window" seg.s_path
      done;
      Metrics.incr m_reads;
      Some (List.rev !out, hi)
  in
  let rec go from =
    if from <= upto then
      match batch from upto with
      | None -> ()
      | Some (frames, hi) ->
        List.iter (fun (seq, payload) -> f seq payload) frames;
        go (hi + 1)
  in
  let lo = max from (first_seq t) in
  if lo > 0 then go lo

(* Scan one segment's index sequentially, newest first, for the put
   frame of [iid]. *)
let find_put t ~iid =
  locked t @@ fun () ->
  let segs = t.c_segments in
  let rec search i =
    if i < 0 then None
    else
      let seg = segs.(i) in
      if seg.s_min_put = 0 || iid < seg.s_min_put || iid > seg.s_max_put then
        search (i - 1)
      else begin
        let count = seg.s_last - seg.s_first + 1 in
        let fd = seg_idx_fd seg in
        let body = pread fd ~off:seg.s_idx_base ~len:(count * idx_line_len) in
        let rec scan k =
          if k >= count then None
          else
            let line = String.sub body (k * idx_line_len) (idx_line_len - 1) in
            let off, kind, id = parse_idx_entry line in
            if kind = 'p' && id = iid then begin
              Metrics.incr m_reads;
              Some (frame_at seg off)
            end
            else scan (k + 1)
        in
        match scan 0 with Some p -> Some p | None -> search (i - 1)
      end
  in
  search (Array.length segs - 1)

let iter_puts t f =
  let ids =
    locked t @@ fun () ->
    let out = ref [] in
    Array.iter
      (fun seg ->
        if seg.s_min_put > 0 then begin
          let count = seg.s_last - seg.s_first + 1 in
          let body =
            pread (seg_idx_fd seg) ~off:seg.s_idx_base
              ~len:(count * idx_line_len)
          in
          for k = 0 to count - 1 do
            let line = String.sub body (k * idx_line_len) (idx_line_len - 1) in
            let _, kind, id = parse_idx_entry line in
            if kind = 'p' then out := id :: !out
          done
        end)
      t.c_segments;
    List.rev !out
  in
  List.iter f ids

let clear t =
  locked t @@ fun () ->
  Array.iter
    (fun seg ->
      Option.iter close_in_noerr seg.s_ic;
      (match seg.s_idx_fd with
      | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      (try Sys.remove seg.s_path with Sys_error _ -> ());
      try Sys.remove seg.s_idx with Sys_error _ -> ())
    t.c_segments;
  t.c_segments <- [||];
  fsync_dir t.c_dir;
  refresh_gauges t

let close t =
  locked t @@ fun () ->
  Array.iter
    (fun seg ->
      Option.iter close_in_noerr seg.s_ic;
      seg.s_ic <- None;
      match seg.s_idx_fd with
      | Some fd ->
        seg.s_idx_fd <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    t.c_segments
