(* The benchmark's reference forwarding model: one hash table per
   prefix length, longest match by probing /32 down to /0. It shares no
   code with the tries, the compiled tables or the repository's own
   oracles, so a bug in any of them cannot hide behind the same bug
   here. O(1) per update, at most 33 probes per lookup. *)

type t = {
  by_len : (int, int) Hashtbl.t array;  (* network bits -> next-hop, per length *)
  default_nh : int;
}

let create ~default_nh =
  { by_len = Array.init 33 (fun _ -> Hashtbl.create 64); default_nh }

let mask len = if len = 0 then 0 else (0xFFFF_FFFF lsl (32 - len)) land 0xFFFF_FFFF

let announce t ~bits ~len nh = Hashtbl.replace t.by_len.(len) (bits land mask len) nh
let withdraw t ~bits ~len = Hashtbl.remove t.by_len.(len) (bits land mask len)

let lookup t addr =
  let rec go len =
    if len < 0 then t.default_nh
    else
      let tbl = t.by_len.(len) in
      if Hashtbl.length tbl = 0 then go (len - 1)
      else
        match Hashtbl.find_opt tbl (addr land mask len) with
        | Some nh -> nh
        | None -> go (len - 1)
  in
  go 32

(* The addresses that pin a prefix's extent: its first and last
   address and their outside neighbours, where a change that leaked
   past (or fell short of) the prefix would show. *)
let boundaries ~bits ~len =
  let first = bits land mask len in
  let last = first lor (lnot (mask len) land 0xFFFF_FFFF) in
  List.filter
    (fun a -> a >= 0 && a <= 0xFFFF_FFFF)
    [ first; last; first - 1; last + 1 ]
