type t = { mutable buf : Bytes.t; mutable head : int; mutable tail : int; mutable pos : int }

let create n = { buf = Bytes.create n; head = 0; tail = 0; pos = 0 }
let length w = w.tail - w.head
let stream_end w = w.pos + length w

let make_room w n =
  if w.tail + n > Bytes.length w.buf then begin
    let live = length w in
    if live + n > Bytes.length w.buf then begin
      let b = Bytes.create (max (live + n) (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf w.head b 0 live;
      w.buf <- b
    end
    else Bytes.blit w.buf w.head w.buf 0 live;
    w.head <- 0;
    w.tail <- live
  end

let drop w n =
  w.head <- w.head + n;
  w.pos <- w.pos + n

let reset_at w off =
  w.head <- 0;
  w.tail <- 0;
  w.pos <- off

let chunk = 65536

let input w ic =
  make_room w chunk;
  let got = input ic w.buf w.tail chunk in
  w.tail <- w.tail + got;
  got
