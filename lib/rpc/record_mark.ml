let header ~last len =
  let v = if last then len lor 0x80000000 else len in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (v land 0xFF));
  Bytes.to_string b

let frame msg = header ~last:true (String.length msg) ^ msg

let frame_fragmented ~fragment_size msg =
  assert (fragment_size > 0);
  let n = String.length msg in
  let buf = Buffer.create (n + 16) in
  let rec go off =
    let len = min fragment_size (n - off) in
    let last = off + len >= n in
    Buffer.add_string buf (header ~last len);
    Buffer.add_string buf (String.sub msg off len);
    if not last then go (off + len)
  in
  if n = 0 then Buffer.add_string buf (header ~last:true 0) else go 0;
  Buffer.contents buf

(* The stream is parsed as it arrives: [header] gathers the 4 bytes of a
   fragment header (which a segment boundary may split), then [left]
   bytes of fragment body follow. A record that lies whole inside one
   pushed slice is handed out as a range of that slice; only a record
   whose fragments span pushes is gathered into [record]. *)
type reassembler = {
  mutable header : int;  (* header bytes gathered so far, big-endian *)
  mutable header_len : int;  (* 0..3; 4 never persists *)
  mutable in_fragment : bool;
  mutable last : bool;  (* the fragment in progress ends its record *)
  mutable left : int;  (* body bytes of the fragment in progress still to come *)
  mutable record : Bytes.t;
  mutable record_len : int;
}

let create_reassembler () =
  { header = 0; header_len = 0; in_fragment = false; last = false; left = 0;
    record = Bytes.create 4096; record_len = 0 }

let reset t =
  t.header <- 0;
  t.header_len <- 0;
  t.in_fragment <- false;
  t.left <- 0;
  t.record_len <- 0

let pending_bytes t =
  t.header_len + t.record_len + if t.in_fragment then 4 else 0

(* Append [buf.[off .. off+len-1]] to the record being gathered. *)
let gather t buf off len =
  let need = t.record_len + len in
  if need > Bytes.length t.record then begin
    let grown = Bytes.create (max need (2 * Bytes.length t.record)) in
    Bytes.blit t.record 0 grown 0 t.record_len;
    t.record <- grown
  end;
  Bytes.blit_string buf off t.record t.record_len len;
  t.record_len <- need

let push_slice t buf ~off ~len f ctx =
  let stop = off + len in
  let pos = ref off in
  while !pos < stop do
    if not t.in_fragment then begin
      t.header <- (t.header lsl 8) lor Char.code buf.[!pos];
      t.header_len <- t.header_len + 1;
      incr pos;
      if t.header_len = 4 then begin
        let hdr = t.header in
        t.header <- 0;
        t.header_len <- 0;
        let flen = hdr land 0x7FFFFFFF in
        if flen > 0x100000 then
          (* No sane NFS message exceeds 1 MB: we are desynchronised
             (e.g. the capture port dropped a segment mid-record). All
             XDR/RPC boundaries are 4-aligned, so scan forward a word at
             a time until a plausible header reappears. *)
          t.record_len <- 0
        else begin
          t.in_fragment <- true;
          t.last <- hdr land 0x80000000 <> 0;
          t.left <- flen
        end
      end
    end;
    if t.in_fragment then begin
      let avail = stop - !pos in
      if t.last && t.record_len = 0 && avail >= t.left then begin
        (* The whole record is in this slice: no copy. *)
        let body = !pos in
        pos := body + t.left;
        t.in_fragment <- false;
        f ctx buf body t.left
      end
      else begin
        let n = min avail t.left in
        gather t buf !pos n;
        pos := !pos + n;
        t.left <- t.left - n;
        if t.left = 0 then begin
          t.in_fragment <- false;
          if t.last then begin
            let n = t.record_len in
            t.record_len <- 0;
            f ctx (Bytes.unsafe_to_string t.record) 0 n
          end
        end
      end
    end
  done

let push t bytes =
  let records = ref [] in
  push_slice t bytes ~off:0 ~len:(String.length bytes)
    (fun records s off len -> records := String.sub s off len :: !records)
    records;
  List.rev !records
