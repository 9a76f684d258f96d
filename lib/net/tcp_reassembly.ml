type flow = { src_ip : Ip_addr.t; src_port : int; dst_ip : Ip_addr.t; dst_port : int }

type event = Data of string | Gap of int

module Flow_key = struct
  type t = flow

  let equal a b =
    a.src_ip = b.src_ip && a.src_port = b.src_port && a.dst_ip = b.dst_ip
    && a.dst_port = b.dst_port

  let hash = Hashtbl.hash
end

module Flow_tbl = Hashtbl.Make (Flow_key)
module Seq_map = Map.Make (Int)

type flow_state = {
  mutable expected : int;
      (* Next expected sequence number, unwrapped onto a monotonic line
         (OCaml ints are 63-bit): [expected land 0xFFFFFFFF] is the wire
         value. Keeping the unwrapped form makes buffered-segment
         ordering correct even when the hold buffer straddles 2^32. *)
  mutable synced : bool;
  mutable buffered : string Seq_map.t;  (* keyed by unwrapped seq *)
  mutable buffered_count : int;
}

type t = {
  table : flow_state Flow_tbl.t;
  max_buffered : int;
  mutable gap_count : int;
}

let create ?(max_buffered_segments = 64) () =
  { table = Flow_tbl.create 64; max_buffered = max_buffered_segments; gap_count = 0 }

let modulus = 0x100000000

(* Signed circular distance from [a] to [b]: positive when b is ahead. *)
let seq_diff a b =
  let d = (b - a) land (modulus - 1) in
  if d >= modulus / 2 then d - modulus else d

let flows t = Flow_tbl.length t.table
let gaps t = t.gap_count

let get_state t flow ~seq =
  match Flow_tbl.find_opt t.table flow with
  | Some st -> st
  | None ->
      let st = { expected = seq; synced = false; buffered = Seq_map.empty; buffered_count = 0 } in
      Flow_tbl.add t.table flow st;
      st

(* Out-of-order segments wait for the hole before them to fill, so they
   must outlive the caller's read buffer. *)
let hold buf ~off ~len = String.sub buf off len
[@@nt.alloc_ok "an out-of-order segment is copied once so it can outlive the read buffer"]

(* Deliver buffered segments that are now contiguous with [expected]. *)
let drain st ~data ctx =
  let continue = ref true in
  while !continue do
    match Seq_map.min_binding_opt st.buffered with
    | None -> continue := false
    | Some (useq, payload) ->
        let d = useq - st.expected in
        if d > 0 then continue := false
        else begin
          st.buffered <- Seq_map.remove useq st.buffered;
          st.buffered_count <- st.buffered_count - 1;
          let fresh = String.length payload + d in
          if fresh > 0 then begin
            (* Overlap with already-delivered bytes: trim the front. *)
            st.expected <- st.expected + fresh;
            data ctx payload (-d) fresh
          end
        end
  done

let force_resync t st ~data ~gap ctx =
  match Seq_map.min_binding_opt st.buffered with
  | None -> ()
  | Some (useq, _) ->
      let lost = useq - st.expected in
      t.gap_count <- t.gap_count + 1;
      st.expected <- useq;
      gap ctx (max lost 0);
      drain st ~data ctx

let push_slice t flow ~seq ~syn buf ~off ~len ~data ~gap ctx =
  let st = get_state t flow ~seq in
  (* Wire seq unwrapped onto the flow's monotonic line. *)
  let d = seq_diff (st.expected land (modulus - 1)) seq in
  let useq = st.expected + d in
  if syn then begin
    st.expected <- useq + 1;
    st.synced <- true;
    st.buffered <- Seq_map.empty;
    st.buffered_count <- 0
  end
  else begin
    if not st.synced then begin
      (* First data segment of a flow we joined mid-stream. *)
      st.expected <- useq;
      st.synced <- true
    end;
    if len > 0 then begin
      let d = useq - st.expected in
      if d <= 0 then begin
        (* In order, possibly overlapping the delivered prefix; a pure
           retransmission of delivered data has nothing fresh. *)
        if d + len > 0 then begin
          st.expected <- st.expected + d + len;
          data ctx buf (off - d) (len + d);
          drain st ~data ctx
        end
      end
      else begin
        (* Out of order: hold until the hole fills, or resync. *)
        if not (Seq_map.mem useq st.buffered) then begin
          st.buffered <- Seq_map.add useq (hold buf ~off ~len) st.buffered;
          st.buffered_count <- st.buffered_count + 1
        end;
        if st.buffered_count > t.max_buffered then force_resync t st ~data ~gap ctx
      end
    end
  end

let push t flow ~seq ~syn payload =
  let events = ref [] in
  push_slice t flow ~seq ~syn payload ~off:0 ~len:(String.length payload)
    ~data:(fun events s off len -> events := Data (String.sub s off len) :: !events)
    ~gap:(fun events n -> events := Gap n :: !events)
    events;
  List.rev !events
