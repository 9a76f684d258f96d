(* Hot-path allocation fixtures: this unit is in the configured hot
   scope, so [observe] is an entry-point seed and everything it calls
   (here and in Fix_hotdep) is per-record hot code; [merge] seeds the
   poly-compare rule's merge-hot set. *)

type t = { mutable seen : int; mutable total : int }

let create () = { seen = 0; total = 0 }

(* violation: alloc-hot-list (cons cell built per record) *)
let note x = [ x ]

(* violation: alloc-hot-closure (closure allocated past the spine) *)
let shift base =
  let bump = fun y -> y + base in
  bump base

(* violation: alloc-hot-string inside a nested module: a nested binding
   is a graph node like a top-level one, so [observe] reaching
   [Key.tag] makes it hot and scanned *)
module Key = struct
  let tag (s : string) = s ^ "!"
end

let observe t name =
  t.seen <- t.seen + String.length (Fix_hotdep.slice name) + String.length (Key.tag name);
  t.total <- t.total + List.length (note (shift t.seen))

(* violation: alloc-poly-compare (structural compare at a record type,
   seeded through the merge path) *)
let merge (a : t) (b : t) =
  if compare a b < 0 then a.seen <- b.seen;
  a.total <- a.total + b.total;
  a
