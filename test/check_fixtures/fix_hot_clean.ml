(* Clean twin of Fix_hot: the same entry-point shape (seeded observe
   and merge in the hot scope) with nothing allocated per record. *)

type t = { mutable seen : int; mutable total : int }

let create () = { seen = 0; total = 0 }

(* Cold and allocating: no per-record path calls it. *)
let count x = [ x ]

(* [count] here is the parameter, not the function above, so it must
   not pull [count] into the hot set. *)
let bump count x = x + count

let observe t x =
  t.seen <- t.seen + 1;
  t.total <- t.total + bump t.seen x

let merge (a : t) (b : t) =
  if b.seen > a.seen then a.seen <- b.seen;
  a.total <- a.total + b.total;
  a
