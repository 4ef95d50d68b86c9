(* Append-only sweep checkpoint log.

   One header line, then one record per completed block of design
   points.  Every line is protected by its own CRC-32, so a torn tail
   write (process killed mid-append) invalidates only the last line:
   [open_] stops at the first corrupt line, truncates it away, and the
   sweep re-evaluates that block.

   Line format:    <crc32-hex8> <payload>
   Header payload: header 4 <identity>
   Record payload: <start> <count> <item>*
   Item:           ok <k> <k raw-IEEE-754 floats>
                   err <Fault.to_line, hex-encoded>

   Floats are stored as their raw IEEE-754 bit pattern, 16 hex digits:
   bit-exact by construction (including NaN payloads, which printf-style
   float formats lose), and an order of magnitude cheaper to serialize
   than printf [%h] — checkpointing sits on the sweep's critical path.
   Fault lines are hex-encoded so that an item never holds a space of
   its own.

   Versions 1-3 (a per-point log with a 6- or 12-float payload and a
   per-block log of streaming summaries) are refused: their records do
   not carry the evaluation inputs their header would need to bind. *)

type t = { fd : Unix.file_descr; path : string; mutable last_sync : float }

type record = {
  r_start : int;
  r_count : int;
  r_items : (float array, Fault.t) result list;
}

let version = 4
let header_prefix = Printf.sprintf "header %d " version
let bad path ?line msg = Fault.bad_input ~context:("checkpoint " ^ path) ?line msg

let unframe line =
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    match Crc32.of_hex (String.sub line 0 8) with
    | None -> None
    | Some crc ->
      let payload = String.sub line 9 (String.length line - 9) in
      if Crc32.string payload = crc then Some payload else None

let framed payload = Crc32.to_hex (Crc32.string payload) ^ " " ^ payload ^ "\n"

let hex_digits = "0123456789abcdef"

let add_float_bits buf f =
  let v = Int64.bits_of_float f in
  for i = 15 downto 0 do
    let nibble = Int64.to_int (Int64.shift_right_logical v (4 * i)) land 0xf in
    Buffer.add_char buf hex_digits.[nibble]
  done

let float_of_bits_hex s =
  if String.length s <> 16 then None
  else Option.map Int64.float_of_bits (Int64.of_string_opt ("0x" ^ s))

let add_hex_string buf s =
  String.iter
    (fun c ->
      Buffer.add_char buf hex_digits.[Char.code c lsr 4];
      Buffer.add_char buf hex_digits.[Char.code c land 0xf])
    s

let string_of_hex s =
  let n = String.length s in
  if n = 0 || n mod 2 <> 0 then None
  else
    try
      Some
        (String.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with Failure _ -> None

let fault_of_line s =
  match String.index_opt s ' ' with
  | None -> None
  | Some i ->
    Fault.of_line ~tag:(String.sub s 0 i)
      (String.sub s (i + 1) (String.length s - i - 1))

let add_record buf r =
  Buffer.add_string buf (string_of_int r.r_start);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int r.r_count);
  List.iter
    (function
      | Ok v ->
        Buffer.add_string buf " ok ";
        Buffer.add_string buf (string_of_int (Array.length v));
        Array.iter
          (fun f ->
            Buffer.add_char buf ' ';
            add_float_bits buf f)
          v
      | Error ft ->
        Buffer.add_string buf " err ";
        add_hex_string buf (Fault.to_line ft))
    r.r_items

let parse_record payload =
  let tok = Array.of_list (String.split_on_char ' ' payload) in
  let n = Array.length tok in
  let int k = if k < n then int_of_string_opt tok.(k) else None in
  let rec items k acc =
    if k = n then Some (List.rev acc)
    else
      match tok.(k) with
      | "ok" -> (
        match int (k + 1) with
        | Some w when w >= 0 && k + 2 + w <= n ->
          let v = Array.make w 0.0 in
          let valid = ref true in
          for j = 0 to w - 1 do
            match float_of_bits_hex tok.(k + 2 + j) with
            | Some f -> v.(j) <- f
            | None -> valid := false
          done;
          if !valid then items (k + 2 + w) (Ok v :: acc) else None
        | _ -> None)
      | "err" when k + 1 < n -> (
        match Option.bind (string_of_hex tok.(k + 1)) fault_of_line with
        | Some ft -> items (k + 2) (Error ft :: acc)
        | None -> None)
      | _ -> None
  in
  match (int 0, int 1) with
  | Some r_start, Some r_count when r_start >= 0 && r_count >= 1 ->
    Option.map (fun r_items -> { r_start; r_count; r_items }) (items 2 [])
  | _ -> None

(* Group commit.  A completed [write] already survives the death of this
   process (the page cache persists it), so per-batch fsync buys nothing
   against kills — it only narrows the power-failure window, and at
   ~0.5 ms apiece it would dominate a fast analytical sweep.  So records
   are written per group and fsync'd at most once per [sync_interval_s]:
   a power failure loses at most the last second of progress, and the
   per-line CRC catches any torn tail it leaves, truncated away on the
   next open. *)
let sync_interval_s = 1.0

(* Transient syscall failures (EINTR from an operator signal landing
   mid-append, EAGAIN from a momentarily saturated device) retry on the
   bounded deterministic schedule instead of killing the sweep — a
   checkpoint write is exactly the work we must not lose to a signal. *)
let write_all fd s =
  let bytes = Bytes.of_string s in
  Retry.write_all fd bytes 0 (Bytes.length bytes)

let maybe_sync t =
  let now = Unix.gettimeofday () in
  if now -. t.last_sync >= sync_interval_s then begin
    Retry.fsync t.fd;
    t.last_sync <- now
  end

(* ---- Signal-driven flushing ----

   Long sweeps field SIGTERM/SIGINT; the handler must be able to push
   every open checkpoint to disk before exiting, without knowing which
   logs the run has open.  [open_] registers its handle here; [close]
   unregisters it.  [sync_all] is best-effort by design: it runs from a
   signal handler racing normal operation, so a handle closed (EBADF) or
   mid-append under its feet must not turn a clean shutdown into a
   crash — the per-line CRCs already make a torn tail harmless. *)

let active : t list ref = ref []
let active_mutex = Mutex.create ()

let register t =
  Mutex.protect active_mutex (fun () -> active := t :: !active)

let unregister t =
  Mutex.protect active_mutex (fun () ->
      active := List.filter (fun u -> u != t) !active)

let sync t =
  Retry.fsync t.fd;
  t.last_sync <- Unix.gettimeofday ()

let sync_all () =
  let snapshot = Mutex.protect active_mutex (fun () -> !active) in
  List.iter (fun t -> try sync t with _ -> ()) snapshot

(* The file's complete lines, and what follows the last newline: a line
   without its newline is a torn write, never trusted, even if its CRC
   happens to check out. *)
let read_lines path =
  let lines =
    List.rev
      (String.split_on_char '\n'
         (In_channel.with_open_bin path In_channel.input_all))
  in
  (List.rev (List.tl lines), List.hd lines)

(* Check the header, then decode as many records as the file holds,
   stopping at the first line that does not check out (torn tail or
   corruption: everything after it is untrusted).  Also reports the byte
   length of the trusted prefix, so [open_] can truncate the torn tail
   away before appending. *)
let decode ~path ~header = function
  | [] -> Error (bad path ~line:1 "bad or corrupt header line")
  | header_line :: rest -> (
    match unframe header_line with
    | Some payload when payload = header_prefix ^ header ->
      let records = ref [] in
      let valid_bytes = ref (String.length header_line + 1) in
      (try
         List.iter
           (fun l ->
             match Option.bind (unframe l) parse_record with
             | Some r ->
               records := r :: !records;
               valid_bytes := !valid_bytes + String.length l + 1
             | None -> raise Exit)
           rest
       with Exit -> ());
      Ok (List.rev !records, !valid_bytes)
    | Some payload when String.starts_with ~prefix:header_prefix payload ->
      let stored =
        String.sub payload (String.length header_prefix)
          (String.length payload - String.length header_prefix)
      in
      Error
        (bad path ~line:1
           (Printf.sprintf
              "header mismatch: the log is for [%s], this run is [%s]" stored
              header))
    | Some payload when String.starts_with ~prefix:"header " payload ->
      Error
        (bad path ~line:1
           (Printf.sprintf
              "unsupported log format %S (this build reads version %d); \
               remove the file to start over"
              (String.concat " "
                 (List.filteri (fun i _ -> i < 2)
                    (String.split_on_char ' ' payload)))
              version))
    | _ -> Error (bad path ~line:1 "bad or corrupt header line"))

let open_ path ~header =
  let header = String.map (function '\n' | '\r' -> ' ' | c -> c) header in
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  with
  | exception Unix.Unix_error (err, _, _) ->
    Error (bad path (Unix.error_message err))
  | fd -> (
    let opened records =
      let t = { fd; path; last_sync = Unix.gettimeofday () } in
      register t;
      Ok (t, records)
    in
    let first_line = framed (header_prefix ^ header) in
    match read_lines path with
    | exception Sys_error msg ->
      Unix.close fd;
      Error (bad path msg)
    | [], torn when String.starts_with ~prefix:torn first_line ->
      (* An empty file — just created, or touched in advance — is a fresh
         log, and so is one holding a torn write of this very header. *)
      Unix.ftruncate fd 0;
      write_all fd first_line;
      opened []
    | lines, _ -> (
      match decode ~path ~header lines with
      | Error ft ->
        Unix.close fd;
        Error ft
      | Ok (records, valid_bytes) ->
        if (Unix.fstat fd).st_size > valid_bytes then
          Unix.ftruncate fd valid_bytes;
        opened records))

(* One write per group, two buffers total: the scratch holds each payload
   long enough to CRC it, the group buffer accumulates the framed lines. *)
let append t records =
  let scratch = Buffer.create 1024 in
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.clear scratch;
      add_record scratch r;
      let payload = Buffer.contents scratch in
      Buffer.add_string buf (Crc32.to_hex (Crc32.string payload));
      Buffer.add_char buf ' ';
      Buffer.add_string buf payload;
      Buffer.add_char buf '\n')
    records;
  if Buffer.length buf > 0 then begin
    write_all t.fd (Buffer.contents buf);
    maybe_sync t
  end

let close t =
  unregister t;
  maybe_sync t;
  Unix.close t.fd
