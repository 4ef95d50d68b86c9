(* Kill simulation for checkpoint logs, shared by the sweep tests.

   A process killed mid-append leaves a log whose last line is torn:
   [after_records path k] keeps the header and the first [k] records of
   a real log, then the first half of the next line without its newline
   (or a garbage partial line when the log holds no more records).
   [at_fraction path f] cuts the file at byte [f * size], anywhere,
   mid-line or not. *)

let lines path =
  String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  |> List.filter (( <> ) "")

let after_records path k =
  let all = lines path in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri (fun i l -> if i <= k then output_string oc (l ^ "\n")) all;
      output_string oc
        (match List.nth_opt all (k + 1) with
        | Some l -> String.sub l 0 (String.length l / 2)
        | None -> "0bad0bad 0 1 ok 1 3ff"))

let at_fraction path f =
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (int_of_float (float_of_int len *. f));
  Unix.close fd

let n_records path = List.length (lines path) - 1
