open Cfca_prefix

(* -- result encoding ------------------------------------------------ *)

let miss = -1

let encode ~value ~length = (value lsl 6) lor length

let result_value r = r lsr 6

let result_length r = r land 0x3F

(* Array slots hold [encoded + 1] so that 0 means "no covering prefix";
   negative slots are pointers: [-(index + 1)] into the next level. *)

type variant = Dir | Poptrie

(* The DIR root is paged: cell [i] lives at
   [d_chunks.(i lsr chunk_bits).(i land chunk_mask)]. A table built
   with a root stride under [chunk_bits] has one chunk of [2^root_bits]
   cells, which the same constant shift and mask address. Generations
   produced by [copy] share chunks, and so do the slots of one table
   whose chunks are wholly uniform; [d_owned] records which slots this
   table may write in place, and [patch] copies any other slot's chunk
   on its first write (path copying over a two-level array). *)
let chunk_bits = 12

let chunk_mask = (1 lsl chunk_bits) - 1

(* Spill blocks are paged the same way: block [b] starts at word
   [((b land seg_mask) lsl 8)] of segment [b lsr seg_bits]. Every
   segment but the last holds exactly [2^seg_bits] blocks and the last
   holds exactly the blocks in use, so there is no slack. Segments are
   never written after creation: growth copies the partial tail into a
   fresh segment, so a generation that shares the segment directory
   keeps reading its own blocks. *)
let seg_bits = 4

let seg_mask = (1 lsl seg_bits) - 1

let seg_words = 256 lsl seg_bits

type dir = {
  d_root_bits : int;
  d_pad : int;  (* zero-padding bits so 8-bit levels never under-shift *)
  d_chunks : int array array;  (* this table's own directory *)
  d_owned : Bytes.t;
      (* per slot: '\001' when no other table or slot reads its chunk *)
  mutable d_spill : int array array;  (* segments of chained 256-slot blocks *)
  d_spill_base : int;  (* spill words at build time (orphan accounting) *)
  d_entries : int;
}

type pop = {
  p_root_bits : int;
  p_pad : int;
  p_root : int array;
  p_nodes : int array;  (* 4 words per node: vec, leafvec, child base, leaf base *)
  p_leaves : int array;
  p_entries : int;
}

(* No wrapper record around the variant: a lookup reaches the layout's
   arrays in as few dependent loads as possible. *)
type t = Dir_repr of dir | Pop_repr of pop

let variant t = match t with Dir_repr _ -> Dir | Pop_repr _ -> Poptrie

let entries t = match t with Dir_repr d -> d.d_entries | Pop_repr p -> p.p_entries

let spill_words segs =
  match Array.length segs with
  | 0 -> 0
  | n -> ((n - 1) * seg_words) + Array.length segs.(n - 1)

let memory_words t =
  match t with
  | Dir_repr d ->
      Array.length d.d_chunks + (1 lsl d.d_root_bits) + spill_words d.d_spill
  | Pop_repr p ->
      Array.length p.p_root + Array.length p.p_nodes + Array.length p.p_leaves

(* popcount for values of at most 32 bits (the poptrie bitmaps) *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  (x * 0x0101_0101) lsr 24 land 0xFF

(* -- growable int buffer (build-time only) -------------------------- *)

module Gbuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max 16 n) 0; len = 0 }

  (* Append [n] zeroed slots; returns the offset of the first. The
     underlying array may move, so all access goes through [set]/[get]. *)
  let reserve t n =
    let need = t.len + n in
    if need > Array.length t.a then begin
      let cap = ref (Array.length t.a) in
      while !cap < need do
        cap := !cap * 2
      done;
      let a' = Array.make !cap 0 in
      Array.blit t.a 0 a' 0 t.len;
      t.a <- a'
    end;
    let off = t.len in
    t.len <- need;
    off

  let set t i v = t.a.(i) <- v

  let length t = t.len

  let contents t = Array.sub t.a 0 t.len
end

(* The spill segments [segs] extended by the blocks in [gb]. Full
   segments are shared; only a partial tail segment is copied, into a
   fresh segment sized exactly to the blocks it then holds. *)
let spill_append segs gb =
  let old_words = spill_words segs in
  let words = old_words + Gbuf.length gb in
  let first = old_words / seg_words in
  Array.init
    ((words + seg_words - 1) / seg_words)
    (fun s ->
      if s < first then segs.(s)
      else begin
        let lo = s * seg_words in
        let seg = Array.make (min seg_words (words - lo)) 0 in
        let from_old = max 0 (old_words - lo) in
        if from_old > 0 then Array.blit segs.(s) 0 seg 0 from_old;
        Array.blit gb.Gbuf.a (lo + from_old - old_words) seg from_old
          (Array.length seg - from_old);
        seg
      end)

(* -- build-time binary trie ----------------------------------------- *)

type bnode = {
  mutable res : int;  (* encoded result, -1 when the prefix is unbound *)
  mutable zero : bnode option;
  mutable one : bnode option;
}

let fresh () = { res = -1; zero = None; one = None }

let build_trie prefixes =
  let root = fresh () in
  let count = ref 0 in
  List.iter
    (fun (p, v) ->
      if v < 0 then invalid_arg "Flat_lpm.build: negative payload";
      let len = Prefix.length p in
      let rec go n depth =
        if depth = len then begin
          if n.res < 0 then incr count;
          n.res <- encode ~value:v ~length:len
        end
        else begin
          let right = Prefix.bit p depth in
          let c =
            match (if right then n.one else n.zero) with
            | Some c -> c
            | None ->
                let c = fresh () in
                if right then n.one <- Some c else n.zero <- Some c;
                c
          in
          go c (depth + 1)
        end
      in
      go root 0)
    prefixes;
  (root, !count)

let is_bleaf n = n.zero == None && n.one == None

(* Compile the direct-indexed root, [2^k0] cells paged into chunks of
   [2^cb] (cb <= k0), from the trie [node], leaf-pushing the encoded
   result of the longest enclosing bound prefix (-1 if none) into
   uncovered ranges. Stride boundaries that still have deeper prefixes
   get whatever pointer [on_subtree] compiles them into. Each chunk is
   allocated as the walk reaches it, except that every chunk lying
   wholly under one leaf shares one array per value: unrouted space and
   short prefixes cost no memory per chunk. Returns the chunks and the
   ownership bytes ('\000' for the shared ones, see [dir]). *)
let fill_root ~k0 ~cb node on_subtree =
  let chunks = Array.make (1 lsl (k0 - cb)) [||] in
  let owned = Bytes.make (Array.length chunks) '\001' in
  let uniform = Hashtbl.create 16 in
  let rec fill_in c off k n inherited =
    let inherited = if n.res >= 0 then n.res else inherited in
    if k = 0 then
      if is_bleaf n then c.(off) <- inherited + 1
      else c.(off) <- on_subtree n inherited
    else begin
      let half = 1 lsl (k - 1) in
      (match n.zero with
      | Some z -> fill_in c off (k - 1) z inherited
      | None -> Array.fill c off half (inherited + 1));
      match n.one with
      | Some o -> fill_in c (off + half) (k - 1) o inherited
      | None -> Array.fill c (off + half) half (inherited + 1)
    end
  in
  (* [off] counts chunks here; [k] bits remain above the chunk level *)
  let rec fill off k n inherited =
    if k = 0 then begin
      let c = Array.make (1 lsl cb) 0 in
      chunks.(off) <- c;
      fill_in c 0 cb n inherited
    end
    else begin
      let inherited = if n.res >= 0 then n.res else inherited in
      let half = 1 lsl (k - 1) in
      let leaf off =
        let v = inherited + 1 in
        let c =
          match Hashtbl.find_opt uniform v with
          | Some c -> c
          | None ->
              let c = Array.make (1 lsl cb) v in
              Hashtbl.add uniform v c;
              c
        in
        Array.fill chunks off half c;
        Bytes.fill owned off half '\000'
      in
      (match n.zero with
      | Some z -> fill off (k - 1) z inherited
      | None -> leaf off);
      match n.one with
      | Some o -> fill (off + half) (k - 1) o inherited
      | None -> leaf (off + half)
    end
  in
  fill 0 (k0 - cb) node (-1);
  (chunks, owned)

(* -- DIR-24-8 compilation ------------------------------------------- *)

let rec fill_spill spill off k n inherited =
  let inherited = if n.res >= 0 then n.res else inherited in
  if k = 0 then begin
    if is_bleaf n then Gbuf.set spill off (inherited + 1)
    else begin
      let b = Gbuf.reserve spill 256 lsr 8 in
      Gbuf.set spill off (-(b + 1));
      fill_spill spill (b lsl 8) 8 n inherited
    end
  end
  else begin
    let half = 1 lsl (k - 1) in
    (match n.zero with
    | Some c -> fill_spill spill off (k - 1) c inherited
    | None ->
        for i = off to off + half - 1 do
          Gbuf.set spill i (inherited + 1)
        done);
    match n.one with
    | Some c -> fill_spill spill (off + half) (k - 1) c inherited
    | None ->
        for i = off + half to off + (2 * half) - 1 do
          Gbuf.set spill i (inherited + 1)
        done
  end

let build_dir ~root_bits ~count node =
  let levels = (32 - root_bits + 7) / 8 in
  let pad = root_bits + (8 * levels) - 32 in
  let spill = Gbuf.create 1024 in
  let chunks, owned =
    fill_root ~k0:root_bits ~cb:(min root_bits chunk_bits) node
      (fun n inherited ->
        let b = Gbuf.reserve spill 256 lsr 8 in
        fill_spill spill (b lsl 8) 8 n inherited;
        -(b + 1))
  in
  {
    d_root_bits = root_bits;
    d_pad = pad;
    d_chunks = chunks;
    d_owned = owned;
    d_spill = spill_append [||] spill;
    d_spill_base = Gbuf.length spill;
    d_entries = count;
  }

let rec dir_find spill a e shift =
  if e >= 0 then e - 1
  else
    let b = (-e) - 1 in
    dir_find spill a
      (Array.unsafe_get
         (Array.unsafe_get spill (b lsr seg_bits))
         (((b land seg_mask) lsl 8) + ((a lsr shift) land 0xFF)))
      (shift - 8)

(* The one extra dependent load of the paged root: the directory entry
   (2^(root_bits - chunk_bits) words, 32 KB at /24, so L1/L2-resident)
   before the cell itself. *)
let[@inline] root_cell d i =
  Array.unsafe_get (Array.unsafe_get d.d_chunks (i lsr chunk_bits)) (i land chunk_mask)

let lookup_dir d addr =
  let a = addr lsl d.d_pad in
  let e = root_cell d (a lsr (32 + d.d_pad - d.d_root_bits)) in
  if e >= 0 then e - 1
  else dir_find d.d_spill a e (32 + d.d_pad - d.d_root_bits - 8)

(* -- poptrie compilation -------------------------------------------- *)

let pop_stride = 5

let pop_slots = 1 lsl pop_stride (* 32: bitmaps fit a native int *)

(* Compile the subtree [n] into the (already reserved) node slot [idx]:
   expand it to 32 five-bit chunks, pack leaf runs (deduplicated against
   their left neighbour, poptrie's leafvec trick) and recurse into the
   chunks that still hold deeper prefixes. Children are reserved
   contiguously before recursing so a popcount over [vec] locates
   them. *)
let rec build_pop_node nodes leaves idx n inherited =
  let inherited = if n.res >= 0 then n.res else inherited in
  let child = Array.make pop_slots None in
  let child_inh = Array.make pop_slots (-1) in
  let leaf_res = Array.make pop_slots (-1) in
  for v = 0 to pop_slots - 1 do
    let rec step n res i =
      let res = if n.res >= 0 then n.res else res in
      if i = pop_stride then if is_bleaf n then (None, res) else (Some n, res)
      else
        let bit = (v lsr (pop_stride - 1 - i)) land 1 = 1 in
        match (if bit then n.one else n.zero) with
        | Some c -> step c res (i + 1)
        | None -> (None, res)
    in
    let c, res = step n inherited 0 in
    match c with
    | Some _ ->
        child.(v) <- c;
        child_inh.(v) <- res
    | None -> leaf_res.(v) <- res
  done;
  let vec = ref 0 and leafvec = ref 0 in
  let run_values = ref [] and n_runs = ref 0 in
  let prev_leaf = ref false and prev_val = ref min_int in
  for v = 0 to pop_slots - 1 do
    match child.(v) with
    | Some _ ->
        vec := !vec lor (1 lsl v);
        prev_leaf := false
    | None ->
        let r = leaf_res.(v) in
        if (not !prev_leaf) || r <> !prev_val then begin
          leafvec := !leafvec lor (1 lsl v);
          run_values := r :: !run_values;
          incr n_runs
        end;
        prev_leaf := true;
        prev_val := r
  done;
  let base0 = Gbuf.reserve leaves !n_runs in
  List.iteri
    (fun i r -> Gbuf.set leaves (base0 + !n_runs - 1 - i) (r + 1))
    !run_values;
  let n_children = popcount !vec in
  let base1 = Gbuf.reserve nodes (4 * n_children) lsr 2 in
  Gbuf.set nodes (4 * idx) !vec;
  Gbuf.set nodes ((4 * idx) + 1) !leafvec;
  Gbuf.set nodes ((4 * idx) + 2) base1;
  Gbuf.set nodes ((4 * idx) + 3) base0;
  let ci = ref base1 in
  for v = 0 to pop_slots - 1 do
    match child.(v) with
    | Some c ->
        build_pop_node nodes leaves !ci c child_inh.(v);
        incr ci
    | None -> ()
  done

let build_pop ~root_bits ~count node =
  let levels = (32 - root_bits + pop_stride - 1) / pop_stride in
  let pad = root_bits + (pop_stride * levels) - 32 in
  let nodes = Gbuf.create 256 in
  let leaves = Gbuf.create 256 in
  let root =
    (fst
       (fill_root ~k0:root_bits ~cb:root_bits node (fun n inherited ->
            let idx = Gbuf.reserve nodes 4 lsr 2 in
            build_pop_node nodes leaves idx n inherited;
            -(idx + 1)))).(0)
  in
  {
    p_root_bits = root_bits;
    p_pad = pad;
    p_root = root;
    p_nodes = Gbuf.contents nodes;
    p_leaves = Gbuf.contents leaves;
    p_entries = count;
  }

let rec pop_find nodes leaves a idx shift =
  let v = (a lsr shift) land (pop_slots - 1) in
  let base = idx lsl 2 in
  let vec = Array.unsafe_get nodes base in
  let below = (1 lsl (v + 1)) - 1 in
  if vec land (1 lsl v) <> 0 then
    pop_find nodes leaves a
      (Array.unsafe_get nodes (base + 2) + popcount (vec land below) - 1)
      (shift - pop_stride)
  else
    let lv = Array.unsafe_get nodes (base + 1) in
    Array.unsafe_get leaves
      (Array.unsafe_get nodes (base + 3) + popcount (lv land below) - 1)
    - 1

let lookup_pop p addr =
  let a = addr lsl p.p_pad in
  let e = Array.unsafe_get p.p_root (a lsr (32 + p.p_pad - p.p_root_bits)) in
  if e >= 0 then e - 1
  else
    pop_find p.p_nodes p.p_leaves a
      ((-e) - 1)
      (32 + p.p_pad - p.p_root_bits - pop_stride)

(* -- public interface ----------------------------------------------- *)

let build ?(variant = `Auto) ?(root_bits = 16) prefixes =
  if root_bits < 8 || root_bits > 24 then
    invalid_arg "Flat_lpm.build: root_bits outside [8, 24]";
  let node, count = build_trie prefixes in
  match variant with
  | `Dir -> Dir_repr (build_dir ~root_bits ~count node)
  | `Poptrie -> Pop_repr (build_pop ~root_bits ~count node)
  | `Auto ->
      (* A flat root pays off when slots are reasonably utilised;
         sparse tables get the bitmap-compressed layout with a
         smaller direct-point root. *)
      if 1 lsl root_bits <= 64 * max 256 count then
        Dir_repr (build_dir ~root_bits ~count node)
      else Pop_repr (build_pop ~root_bits:(min root_bits 13) ~count node)

(* [Ipv4.t] is a private int: the coercion costs nothing, where a call
   to [Ipv4.to_int] across the module boundary is not always inlined. *)
let lookup t (addr : Ipv4.t) =
  match t with
  | Dir_repr d -> lookup_dir d (addr :> int)
  | Pop_repr p -> lookup_pop p (addr :> int)

(* -- in-place patching (DIR root cells only) ------------------------ *)

let copy ?entries:n t =
  let entries = match n with Some n -> n | None -> entries t in
  match t with
  | Dir_repr d ->
      (* Only the directory is duplicated. Every chunk is now read by
         two tables, so neither may write one in place any more: the
         source loses ownership too, or an in-place [patch] of it would
         write into cells the copy still reads. The spill segments are
         shared as they are, since [patch] never rewrites a segment. *)
      let n = Array.length d.d_chunks in
      Bytes.fill d.d_owned 0 n '\000';
      Dir_repr
        {
          d with
          d_chunks = Array.copy d.d_chunks;
          d_owned = Bytes.make n '\000';
          d_entries = entries;
        }
  | Pop_repr p -> Pop_repr { p with p_entries = entries }

(* Write root cell [i], first copying its chunk if another table may
   still read it. *)
let set_root_cell d i e =
  let j = i lsr chunk_bits in
  if Bytes.unsafe_get d.d_owned j = '\000' then begin
    d.d_chunks.(j) <- Array.copy d.d_chunks.(j);
    Bytes.unsafe_set d.d_owned j '\001'
  end;
  Array.unsafe_set (Array.unsafe_get d.d_chunks j) (i land chunk_mask) e

let patch t ~budget ~resolve changed =
  match t with
  | Pop_repr _ -> Error "poptrie layout is never patched"
  | Dir_repr d -> (
      let rb = d.d_root_bits in
      let shift = 32 - rb in
      let exception Refuse of string in
      try
        (* Cells re-pushed away from their old spill blocks orphan
           them (blocks are append-only so shared generations stay
           valid); once the orphans have doubled the build-time spill,
           force a recompile to compact it. *)
        if spill_words d.d_spill > (2 * d.d_spill_base) + 65_536 then
          raise (Refuse "orphaned spill blocks need a recompile");
        (* Each changed prefix covers an aligned run of independently
           writable root cells — a single cell when it is longer than
           the root stride. Merge the runs (nested deltas overlap)
           before budgeting. *)
        let ranges =
          List.map
            (fun p ->
              let len = Prefix.length p in
              ( Ipv4.to_int (Prefix.network p) lsr shift,
                if len >= rb then 1 else 1 lsl (rb - len) ))
            changed
        in
        let ranges = List.sort compare ranges in
        let merged =
          List.fold_left
            (fun acc (lo, n) ->
              match acc with
              | (plo, pn) :: rest when lo <= plo + pn ->
                  (plo, max pn (lo + n - plo)) :: rest
              | _ -> (lo, n) :: acc)
            [] ranges
        in
        let cells = List.fold_left (fun acc (_, n) -> acc + n) 0 merged in
        if cells > budget then raise (Refuse "patch budget exceeded");
        (* Re-leaf-push each cell from the authoritative resolver,
           compiling fresh spill chains for cells that still hold
           prefixes longer than the root stride. The resolver's encoded
           match length lets uniform ranges be recognised from a single
           probe (the common, leaf-only case), so a cell costs one
           probe per leaf run under it. *)
        let pad = d.d_pad in
        let cell_bits = 32 + pad - rb in
        let base_blocks = spill_words d.d_spill lsr 8 in
        let gb = Gbuf.create 256 in
        (* probe at padded address [pa]: the result holds for the rest
           of the matched prefix's aligned run (one address on miss) *)
        let probe pa =
          let r = resolve (Ipv4.of_int (pa lsr pad)) in
          let s = if r < 0 then pad else 32 + pad - result_length r in
          (r, ((pa lsr s) + 1) lsl s)
        in
        let rec fill pa bits =
          let r0, run0 = probe pa in
          if run0 >= pa + (1 lsl bits) then r0 + 1
          else begin
            let b = Gbuf.reserve gb 256 lsr 8 in
            let sub = bits - 8 in
            for v = 0 to 255 do
              Gbuf.set gb ((b lsl 8) + v) (fill (pa + (v lsl sub)) sub)
            done;
            -(base_blocks + b + 1)
          end
        in
        (* compile every cell before touching the table, then install
           the extended spill before the root pointers into it *)
        let writes =
          List.concat_map
            (fun (lo, n) ->
              List.init n (fun k ->
                  let i = lo + k in
                  (i, fill (i lsl cell_bits) cell_bits)))
            merged
        in
        if Gbuf.length gb > 0 then d.d_spill <- spill_append d.d_spill gb;
        List.iter (fun (i, e) -> set_root_cell d i e) writes;
        Ok cells
      with Refuse msg -> Error msg)

let find_value t addr =
  let r = lookup t addr in
  if r < 0 then -1 else r lsr 6
