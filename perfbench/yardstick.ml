(* A fixed workload of the benchmark's own, timed once per cycle of a
   run, that converts the system's times into yardstick time.

   On a shared host the machine's speed moves by up to half in phases
   that last from seconds to minutes (neighbours contending for memory
   bandwidth, the last-level cache and the cores), longer than a run.
   The yardstick slows down with the machine: it does the memory work
   the system's paths are made of, random reads from an 8 MB range (the
   lookups into the hot part of the tables, which the last-level cache
   holds while the host is quiet and loses to neighbours when it is
   busy) and one large sequential copy (the publication of a
   generation). A time measured beside a probe that took [p] ns is
   worth [t * nominal_ns / p] yardstick ns. The
   probe never touches the system under test and never allocates on the
   OCaml heap, so the program cannot move it: a change to the program
   moves the converted times as it moves the plain ones.

   On a 2-vCPU VM, over 10-s windows of a long run, the paths' times
   follow the reads' with a correlation of about 0.9 and slow down
   about 1.15 times as much; reads from a 256 MB range, or dependent
   reads, follow the host less closely, which is why the range is the
   cached one. *)

open Bigarray

type t = {
  table : (int, int_elt, c_layout) Array1.t;
  src : (int, int_elt, c_layout) Array1.t;
  dst : (int, int_elt, c_layout) Array1.t;
  mutable state : int;  (* random walk position, folded with the results *)
}

let table_words = 1 lsl 20  (* 8 MB, outside the OCaml heap *)
let reads = 400_000
let copy_words = 1 lsl 21  (* 16 MB *)

(* What one probe takes on a 2-vCPU VM of a shared Xeon host at a
   typical moment, so that a yardstick second is close to a second
   there. Only ratios of converted times mean anything. *)
let nominal_ns = 9_000_000

let create () =
  let table = Array1.create int c_layout table_words in
  for i = 0 to table_words - 1 do
    Array1.unsafe_set table i i
  done;
  let src = Array1.create int c_layout copy_words
  and dst = Array1.create int c_layout copy_words in
  Array1.fill src 1;
  Array1.fill dst 0;
  { table; src; dst; state = 1 }

(* One probe; returns its time in ns. The reads are independent, as the
   lookups of a batch are. *)
let probe t =
  let t0 = Spans.now_ns () in
  let x = ref t.state and acc = ref 0 in
  for _ = 1 to reads do
    x := ((!x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    acc := !acc + Array1.unsafe_get t.table ((!x lsr 17) land (table_words - 1))
  done;
  Array1.blit t.src t.dst;
  let t1 = Spans.now_ns () in
  t.state <- (!x lxor !acc) land 0xFFFF_FFFF_FFFF lor 1;
  t1 - t0
