let swap_percentages log ~windows_ms =
  let total = float_of_int (Io_log.accesses log) in
  List.map
    (fun w_ms ->
      let swaps = Runs.swaps (Runs.of_log ~window:(w_ms /. 1000.) log) in
      let pct = if total = 0. then 0. else 100. *. float_of_int swaps /. total in
      (w_ms, pct))
    windows_ms

let knee points =
  match points with
  | [] -> 0.
  | _ ->
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) points in
      let rec find = function
        | (w1, p1) :: ((_, p2) :: _ as rest) ->
            if p1 > 0. && (p2 -. p1) /. Float.max p1 1e-9 < 0.05 then w1 else find rest
        | [ (w, _) ] -> w
        | [] -> 0.
      in
      (* Skip the zero-window origin when present. *)
      (match sorted with (0., _) :: rest -> find rest | _ -> find sorted)

let out_of_order_fraction log =
  let pairs = ref 0 and backwards = ref 0 in
  Io_log.iter_files log (fun _ accesses ->
      for i = 1 to Array.length accesses - 1 do
        incr pairs;
        if accesses.(i).offset < accesses.(i - 1).offset + accesses.(i - 1).count
           && accesses.(i).offset < accesses.(i - 1).offset
        then incr backwards
      done);
  if !pairs = 0 then 0. else float_of_int !backwards /. float_of_int !pairs
