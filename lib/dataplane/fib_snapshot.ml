open Cfca_prefix
open Cfca_trie

module PH = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal

  let hash = Prefix.hash
end)

type stats = {
  epoch : int;
  rebuilds : int;
  invalidations : int;
  fast_hits : int;
  fallbacks : int;
  patches : int;
  full_rebuilds : int;
  patched_cells : int;
}

(* Per-domain hit accounting: one padded cell per lookup domain, so
   concurrent readers of a clean snapshot never contend on a shared
   counter cache line. The pad fields spread adjacent cells across
   lines (a cell is 8 words + header). Only the cells are per-domain —
   the dirty/rebuild machinery below stays single-writer. *)
type cell = {
  mutable c_fast_hits : int;
  mutable c_fallbacks : int;
  mutable c_pad2 : int;
  mutable c_pad3 : int;
  mutable c_pad4 : int;
  mutable c_pad5 : int;
  mutable c_pad6 : int;
  mutable c_pad7 : int;
}

type t = {
  rebuild_after : int;
  patch_budget : int;
  root_bits : int option;
  cells : cell array;  (* one per domain *)
  mutable nodes : Bintrie.node array;  (* payload i of [flat] -> node *)
  mutable node_count : int;  (* used prefix of [nodes] *)
  mutable nodes_baseline : int;  (* [node_count] at the last full compile *)
  mutable flat : Flat_lpm.t;
  mutable dirty : bool;
  mutable dirty_lookups : int;
  delta : unit PH.t;  (* prefixes whose IN_FIB membership flipped *)
  mutable delta_overflow : bool;  (* true -> next refresh must be full *)
  mutable epoch : int;
  mutable rebuilds : int;
  mutable invalidations : int;
  mutable patches : int;
  mutable full_rebuilds : int;
  mutable patched_cells : int;
}

(* Distinct changed prefixes tracked before giving up on patching.
   Cells-per-prefix is what [patch_budget] bounds; this caps the
   tracking table itself so a runaway burst can't grow it without
   bound before the refresh even runs. *)
let delta_cap = 1024

let fresh_cell () =
  {
    c_fast_hits = 0;
    c_fallbacks = 0;
    c_pad2 = 0;
    c_pad3 = 0;
    c_pad4 = 0;
    c_pad5 = 0;
    c_pad6 = 0;
    c_pad7 = 0;
  }

let create ?(rebuild_after = 64) ?(patch_budget = 4096) ?root_bits
    ?(domains = 1) () =
  if rebuild_after < 0 then invalid_arg "Fib_snapshot.create: rebuild_after";
  if patch_budget < 0 then invalid_arg "Fib_snapshot.create: patch_budget";
  (match root_bits with
  | Some rb when rb < 8 || rb > 24 ->
      invalid_arg "Fib_snapshot.create: root_bits"
  | _ -> ());
  if domains < 1 then invalid_arg "Fib_snapshot.create: domains < 1";
  {
    rebuild_after;
    patch_budget;
    root_bits;
    cells = Array.init domains (fun _ -> fresh_cell ());
    nodes = [||];
    node_count = 0;
    nodes_baseline = 0;
    flat = Flat_lpm.build [];
    dirty = true;
    dirty_lookups = 0;
    delta = PH.create 64;
    delta_overflow = true;
    epoch = 0;
    rebuilds = 0;
    invalidations = 0;
    patches = 0;
    full_rebuilds = 0;
    patched_cells = 0;
  }

let domains t = Array.length t.cells

let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    t.dirty_lookups <- 0;
    t.invalidations <- t.invalidations + 1
  end

let invalidate t =
  t.delta_overflow <- true;
  if PH.length t.delta > 0 then PH.reset t.delta;
  mark_dirty t

let invalidate_prefix t p =
  if not t.delta_overflow then begin
    if not (PH.mem t.delta p) then
      if PH.length t.delta >= delta_cap then begin
        t.delta_overflow <- true;
        PH.reset t.delta
      end
      else PH.add t.delta p ()
  end;
  mark_dirty t

let build_flat t prefixes =
  match t.root_bits with
  | None -> Flat_lpm.build prefixes
  | Some root_bits -> Flat_lpm.build ~variant:`Dir ~root_bits prefixes

let full_refresh t tree =
  let acc = ref [] in
  let n = ref 0 in
  Bintrie.iter_in_fib
    (fun node ->
      acc := node :: !acc;
      incr n)
    tree;
  let nodes = Array.make (max 1 !n) (Bintrie.root tree) in
  let i = ref !n in
  (* [acc] is reversed; indices just need to be consistent with the
     prefix list below, not ordered. *)
  let prefixes =
    List.rev_map
      (fun node ->
        decr i;
        nodes.(!i) <- node;
        (Bintrie.Node.prefix tree node, !i))
      !acc
  in
  t.nodes <- nodes;
  t.node_count <- !n;
  t.nodes_baseline <- !n;
  t.flat <- build_flat t prefixes;
  t.full_rebuilds <- t.full_rebuilds + 1

(* Register a node as a flat payload, appending a fresh index. A node
   may end up with several indices (one per patched range that resolves
   to it); lookups stay correct because every index maps back to the
   same node. The single-entry memo collapses the common case — runs of
   consecutive cells covered by one prefix. *)
let append_node t node =
  let cap = Array.length t.nodes in
  if t.node_count >= cap then begin
    let bigger = Array.make (max 8 (2 * cap)) node in
    Array.blit t.nodes 0 bigger 0 cap;
    t.nodes <- bigger
  end;
  t.nodes.(t.node_count) <- node;
  let idx = t.node_count in
  t.node_count <- t.node_count + 1;
  idx

let try_patch t tree =
  let changed = PH.fold (fun p () acc -> p :: acc) t.delta [] in
  let memo = ref Bintrie.nil in
  let memo_idx = ref (-1) in
  let resolve addr =
    let node = Bintrie.lookup_in_fib tree addr in
    if Bintrie.is_nil node then Flat_lpm.miss
    else begin
      if not (Bintrie.Node.equal node !memo) then begin
        memo := node;
        memo_idx := append_node t node
      end;
      Flat_lpm.encode ~value:!memo_idx
        ~length:(Bintrie.Node.depth tree node)
    end
  in
  Flat_lpm.patch t.flat ~budget:t.patch_budget ~resolve changed

let refresh t tree =
  let patched =
    t.epoch > 0 && t.patch_budget > 0
    && (not t.delta_overflow)
    && PH.length t.delta > 0
    && Flat_lpm.variant t.flat = Flat_lpm.Dir
    (* patches append duplicate payload indices; recompile (compacting
       the payload table) once they have doubled it *)
    && t.node_count <= (2 * t.nodes_baseline) + 1024
    &&
    match try_patch t tree with
    | Ok cells ->
        t.patches <- t.patches + 1;
        t.patched_cells <- t.patched_cells + cells;
        true
    | Error _ -> false
  in
  if not patched then full_refresh t tree;
  PH.reset t.delta;
  t.delta_overflow <- false;
  t.dirty <- false;
  t.dirty_lookups <- 0;
  t.epoch <- t.epoch + 1

(* One right-to-left walk consing onto the result: the list comes out
   in [Bintrie.iter_in_fib]'s left-to-right order with no reversal. *)
let cover tree =
  let rec go node acc =
    if Bintrie.Node.status tree node = Bintrie.In_fib then
      (Bintrie.Node.prefix tree node, Bintrie.Node.installed_nh tree node)
      :: acc
    else
      let r = Bintrie.child tree node true in
      let acc = if Bintrie.is_nil r then acc else go r acc in
      let l = Bintrie.child tree node false in
      if Bintrie.is_nil l then acc else go l acc
  in
  go (Bintrie.root tree) []

(* The authoritative walk, equivalent to [Bintrie.lookup_in_fib] but
   raising on a coverage lapse instead of returning a sentinel. *)
let rec walk_in_fib tree node addr =
  match Bintrie.Node.status tree node with
  | Bintrie.In_fib -> node
  | Bintrie.Non_fib ->
      let c =
        Bintrie.child tree node (Ipv4.bit addr (Bintrie.Node.depth tree node))
      in
      if Bintrie.is_nil c then raise Not_found else walk_in_fib tree c addr

let lookup_domain t ~domain tree addr =
  let cell = t.cells.(domain) in
  if t.dirty then begin
    t.dirty_lookups <- t.dirty_lookups + 1;
    if t.dirty_lookups > t.rebuild_after then begin
      refresh t tree;
      t.rebuilds <- t.rebuilds + 1
    end
  end;
  if t.dirty then begin
    cell.c_fallbacks <- cell.c_fallbacks + 1;
    walk_in_fib tree (Bintrie.root tree) addr
  end
  else
    let r = Flat_lpm.lookup t.flat addr in
    if r >= 0 then begin
      cell.c_fast_hits <- cell.c_fast_hits + 1;
      Array.unsafe_get t.nodes (r lsr 6)
    end
    else begin
      (* no IN_FIB coverage compiled for this address: defer to the
         authoritative tree (it will raise if coverage truly lapsed) *)
      cell.c_fallbacks <- cell.c_fallbacks + 1;
      walk_in_fib tree (Bintrie.root tree) addr
    end

let lookup t tree addr = lookup_domain t ~domain:0 tree addr

let stats t =
  let fast_hits = ref 0 and fallbacks = ref 0 in
  Array.iter
    (fun c ->
      fast_hits := !fast_hits + c.c_fast_hits;
      fallbacks := !fallbacks + c.c_fallbacks)
    t.cells;
  {
    epoch = t.epoch;
    rebuilds = t.rebuilds;
    invalidations = t.invalidations;
    fast_hits = !fast_hits;
    fallbacks = !fallbacks;
    patches = t.patches;
    full_rebuilds = t.full_rebuilds;
    patched_cells = t.patched_cells;
  }
