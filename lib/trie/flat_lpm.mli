(** Compiled, cache-friendly longest-prefix-match structures.

    {!Lpm} is the mutable, authoritative view: a pointer-chasing binary
    trie whose per-lookup cost is one dependent load per prefix bit —
    exactly the access pattern that defeats CPU caches on real
    forwarding tables. [Flat_lpm] is the compiled counterpart: an
    immutable snapshot built from a prefix set that answers lookups
    with a handful of flat array probes and {e zero allocation}.

    Two layouts are provided behind one lookup interface:

    - {b DIR-24-8 style} ([Dir]): a direct-indexed root of
      [2^root_bits] slots (16 or 24 bits of stride) whose entries are
      either a sentinel-encoded result or a pointer into chained
      256-slot spill blocks covering 8 further bits each. The root is
      paged into fixed chunks of [2^12] slots behind a chunk directory
      ([2^(root_bits - 12)] words, 32 KB at /24), so generations can
      share unchanged chunks (see {!copy}), and chunks that lie wholly
      under one prefix share one array per result. Lookup cost: one directory
      read (L1/L2-resident) and one root read for prefixes no longer
      than the root stride, plus one read per extra 8-bit level.
    - {b poptrie style} ([Poptrie]): the same direct-indexed root, but
      spill levels are bitmap-compressed multibit nodes with a 5-bit
      stride (32-bit bitmaps fit OCaml's 63-bit native int), children
      and deduplicated leaf runs packed contiguously and located with
      popcounts — far denser when the covered ranges are sparse.

    Results are sentinel-encoded ints so the hot path never allocates:
    [(payload lsl 6) lor matched_length], or {!miss} ([-1]) when no
    prefix covers the address. Payloads are caller-chosen non-negative
    ints (a next-hop, or an index into a node array — see
    {!Cfca_dataplane.Fib_snapshot}).

    The structure is a compiled snapshot, not an updatable table — but
    the [Dir] root cells are independently writable, so small deltas
    can be {!patch}ed in place (re-leaf-pushing only the covered root
    range of each changed prefix) instead of paying a full rebuild, and
    a patched generation can be derived from a published one by
    {!copy} at the cost of the chunk directory plus the chunks the
    patch touches.
    Writers keep mutating the authoritative {!Lpm}/{!Bintrie} view and
    either patch or rebuild the snapshot when the dirty set warrants it
    (the epoch protocol of [Fib_snapshot]); deltas that touch spill
    blocks, exceed the patch budget, or land on a poptrie layout fall
    back to a full rebuild. *)

open Cfca_prefix

type t

type variant = Dir | Poptrie

val build :
  ?variant:[ `Auto | `Dir | `Poptrie ] ->
  ?root_bits:int ->
  (Prefix.t * int) list ->
  t
(** Compile a prefix set. Later bindings of a repeated prefix win,
    matching {!Lpm.add}; nested (overlapping) prefixes are handled by
    leaf-pushing, so any prefix set is accepted — non-overlapping
    covers (the FIB snapshot case) are simply the fastest to build.

    [root_bits] (default 16, accepted range 8–24) is the direct-index
    stride of the root array. [`Auto] (default) picks [`Dir] when the
    table is dense enough to pay for the flat root
    ([2^root_bits <= 64 * max 256 n]) and a poptrie with a smaller
    root otherwise.

    @raise Invalid_argument on a negative payload or [root_bits]
    outside [8, 24]. *)

val lookup : t -> Ipv4.t -> int
(** Longest-prefix match. Returns {!miss} ([-1]) when no prefix covers
    the address, otherwise [(payload lsl 6) lor matched_length].
    Allocation-free. *)

val find_value : t -> Ipv4.t -> int
(** The payload alone: [-1] on miss. Allocation-free. *)

val miss : int
(** [-1], the lookup sentinel. *)

val result_value : int -> int
(** Decode the payload of a non-miss {!lookup} result. *)

val result_length : int -> int
(** Decode the matched prefix length of a non-miss {!lookup} result. *)

val encode : value:int -> length:int -> int
(** The encoding used by {!lookup} results (exposed for tests). *)

val copy : ?entries:int -> t -> t
(** A patchable duplicate that costs [O(2^(root_bits - 12))]: only the
    [Dir] chunk directory is copied, and every root chunk, spill
    segment and poptrie array is shared. Every chunk is then marked
    shared in {e both} tables, so a later {!patch} of either one copies
    a chunk on its first write to it and never writes a cell the other
    table reads. Spill segments are never rewritten: {!patch} appends
    fresh blocks by copying only the partial tail segment. [entries]
    overrides the {!entries} count of the duplicate (pass the new cover
    size when the delta installs or removes prefixes). Patching the
    copy never disturbs the source, so published generations stay
    immutable, and patching the source never disturbs the copy. *)

val patch :
  t ->
  budget:int ->
  resolve:(Ipv4.t -> int) ->
  Prefix.t list ->
  (int, string) result
(** [patch t ~budget ~resolve changed] re-leaf-pushes, in place, every
    root cell covered by a changed prefix — a prefix longer than the
    root stride covers exactly its one enclosing cell. [resolve] is the
    authoritative longest-prefix match (typically a walk of the live
    trie) returning the {!encode}d result for an address, or {!miss}
    when nothing covers it; the encoded match length lets the patcher
    recognise uniform ranges from a single probe, so a cell costs one
    probe per leaf run under it. Cells that still hold prefixes longer
    than the root stride are compiled into fresh spill chains appended
    past the live spill blocks (never rewriting existing ones — see
    {!copy}); re-pushing a previously spilled cell orphans its old
    chain until the next full {!build} compacts the table. A chunk
    shared with another table is copied once, on its first write;
    appending spill costs the new blocks plus one partial segment.

    Returns [Ok cells] (the number of root cells rewritten, after
    merging nested deltas). Returns [Error reason] — the caller must
    fall back to a full {!build} — when the layout is poptrie, the
    merged delta exceeds [budget] cells, or orphaned chains have grown
    the spill past twice its build-time size (the signal to recompile
    and compact). Refusals are all detected before the first write, so
    on [Error] the table is untouched; if [resolve] raises mid-patch
    the table must be treated as unspecified and rebuilt. *)

val variant : t -> variant

val entries : t -> int
(** Number of (deduplicated) prefixes the snapshot was built from. *)

val memory_words : t -> int
(** Total words of flat-array payload (chunk directory + root +
    spill/node/leaf arrays) — the footprint the variant heuristic
    trades off. Every root slot counts, including those in chunks shared
    between slots or with other generations. *)
