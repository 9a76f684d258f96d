type t = int

let v a b c d =
  assert (a land 0xFF = a && b land 0xFF = b && c land 0xFF = c && d land 0xFF = d);
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
[@@nt.raise_ok
  "every caller range-checks or masks the four bytes first (of_string guards 0..255, wire \
   decoders read single bytes)"]

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xFF) ((t lsr 16) land 0xFF)
    ((t lsr 8) land 0xFF) (t land 0xFF)

(* Four dotted octets of decimal digits, each 0..255; no sign, prefix
   or underscore. *)
let of_slice s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then None
  else begin
    let stop = pos + len in
    let i = ref pos and addr = ref 0 and ok = ref true in
    for octet = 0 to 3 do
      let start = !i and v = ref 0 in
      while !ok && !i < stop && s.[!i] >= '0' && s.[!i] <= '9' do
        v := (!v * 10) + Char.code s.[!i] - 48;
        if !v > 255 then ok := false;
        incr i
      done;
      if !i = start then ok := false;
      addr := (!addr lsl 8) lor !v;
      if octet < 3 then if !i < stop && s.[!i] = '.' then incr i else ok := false
    done;
    if !ok && !i = stop then Some !addr else None
  end

let of_string s = of_slice s ~pos:0 ~len:(String.length s)

let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
