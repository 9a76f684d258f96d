type t = string

let magic = "NFH1"
let v2_size = 32

let of_raw s =
  assert (String.length s <= 64);
  s
[@@nt.raise_ok
  "every wire decoder bounds the handle first: v2 reads a fixed 32 bytes, v3 and the tbin \
   codec reject anything past NFS3_FHSIZE before constructing"]

let to_raw t = t

let make ~fsid ~fileid =
  let b = Bytes.make v2_size '\000' in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int fsid);
  Bytes.set_int64_be b 8 (Int64.of_int fileid);
  Bytes.unsafe_to_string b

let fileid t =
  if String.length t >= 16 && String.sub t 0 4 = magic then
    Some (Int64.to_int (String.get_int64_be t 8))
  else None

let fsid t =
  if String.length t >= 16 && String.sub t 0 4 = magic then
    Some (Int32.to_int (String.get_int32_be t 4))
  else None

let hex_digits = "0123456789abcdef"

let hex_of_prefix t n =
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code t.[i] in
    Bytes.set b (2 * i) hex_digits.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digits.[c land 0xF]
  done;
  Bytes.unsafe_to_string b

let to_hex t = hex_of_prefix t (min (String.length t) 16)
let to_hex_full t = hex_of_prefix t (String.length t)

(* Hex digit values by byte; 0xFF marks a non-digit. *)
let hex_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | 'A' .. 'F' -> Char.chr (i - 55)
      | _ -> '\xff')

let hex_digit s i = Char.code (String.unsafe_get hex_values (Char.code (String.unsafe_get s i)))

let of_hex_slice s ~pos ~len =
  if len land 1 <> 0 || len > 128 || pos < 0 || len < 0 || pos > String.length s - len then None
  else begin
    let b = Bytes.create (len / 2) in
    let seen = ref 0 in
    for i = 0 to (len / 2) - 1 do
      let hi = hex_digit s (pos + (2 * i)) and lo = hex_digit s (pos + (2 * i) + 1) in
      seen := !seen lor hi lor lo;
      Bytes.unsafe_set b i (Char.unsafe_chr (((hi lsl 4) lor lo) land 0xFF))
    done;
    if !seen < 16 then Some (Bytes.unsafe_to_string b) else None
  end
[@@nt.alloc_ok "the handle's bytes are the decoded value, copied once out of the text line"]

let of_hex s = of_hex_slice s ~pos:0 ~len:(String.length s)

let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash

let to_v2_raw t =
  let n = String.length t in
  if n = v2_size then t
  else if n > v2_size then String.sub t 0 v2_size
  else t ^ String.make (v2_size - n) '\000'
