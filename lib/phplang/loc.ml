(** Lines-of-code accounting, used for the corpus size report (§V.E: "the
    2012 version of the plugins had 266 files analyzed with a total of
    89,560 LOC") and the seconds-per-kLOC responsiveness metric. *)

(** Physical lines in [src]. *)
let physical_lines src =
  if String.length src = 0 then 0
  else
    let n = ref 1 in
    String.iter (fun c -> if c = '\n' then incr n) src;
    (* trailing newline does not start a new line *)
    if src.[String.length src - 1] = '\n' then !n - 1 else !n

(** Non-blank lines in [src] — the LOC measure we report.  A line is blank
    when it holds only spaces, tabs and carriage returns; one pass, no
    allocation. *)
let count src =
  let n = ref 0 and blank = ref true in
  for i = 0 to String.length src - 1 do
    match src.[i] with
    | '\n' ->
        if not !blank then incr n;
        blank := true
    | ' ' | '\t' | '\r' -> ()
    | _ -> blank := false
  done;
  if !blank then !n else !n + 1
