(* Timing for the benchmark: a nanosecond monotonic clock, an
   in-memory span recorder for the traced run, and a GC pause collector
   fed by OCaml runtime events. Spans are recorded only from the
   benchmark's own code, one around each call into a layer; nothing
   here touches the program under test. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Layers, by the module whose call a span wraps. [Burst] and [Batch]
   are the roots: one per write-path burst and one per read-path packet
   batch; every other span is a descendant of exactly one root. [Sink]
   is the benchmark's own sink closure, the wiring between the Route
   Manager and the data plane; [Pipeline_sink] nests inside it. *)
type layer =
  | Burst
  | Batch
  | Coalesce_add
  | Coalesce_flush
  | Rm_apply
  | Sink
  | Pipeline_sink
  | Snapshot_refresh
  | Snapshot_cover
  | Plane_publish
  | Plane_collect
  | Snapshot_lookup
  | Pipeline_process
  | Plane_lookup

(* Every layer once, with the name it has in the span file. *)
let table =
  [| (Burst, "burst"); (Batch, "batch"); (Coalesce_add, "coalesce.add");
     (Coalesce_flush, "coalesce.flush"); (Rm_apply, "rm.apply");
     (Sink, "sink"); (Pipeline_sink, "pipeline.sink");
     (Snapshot_refresh, "snapshot.refresh"); (Snapshot_cover, "snapshot.cover");
     (Plane_publish, "plane.publish_delta"); (Plane_collect, "plane.collect");
     (Snapshot_lookup, "snapshot.lookup"); (Pipeline_process, "pipeline.process");
     (Plane_lookup, "plane.lookup") |]

let n_layers = Array.length table

let layer_index l =
  let rec go i = if fst table.(i) = l then i else go (i + 1) in
  go 0

type t = {
  mutable on : bool;  (* record spans for the current unit *)
  mutable n : int;
  mutable layer : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;  (* span index, -1 for a root *)
  mutable group : int array;  (* burst/batch id shared by a unit's spans *)
  mutable open_ : int list;  (* enclosing spans, innermost first *)
  mutable next_group : int;
}

let create () =
  let a () = Array.make 4096 0 in
  { on = false; n = 0; layer = a (); start = a (); stop = a (); parent = a ();
    group = a (); open_ = []; next_group = 0 }

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.layer <- g t.layer; t.start <- g t.start; t.stop <- g t.stop;
  t.parent <- g t.parent; t.group <- g t.group

let enter t layer =
  if t.n = Array.length t.layer then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.layer.(i) <- layer_index layer;
  (match t.open_ with
   | [] ->
       t.parent.(i) <- -1;
       t.group.(i) <- t.next_group;
       t.next_group <- t.next_group + 1
   | p :: _ ->
       t.parent.(i) <- p;
       t.group.(i) <- t.group.(p));
  t.open_ <- i :: t.open_;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  match t.open_ with _ :: rest -> t.open_ <- rest | [] -> ()

(* [span t layer f] runs [f ()], recording a span around it when the
   recorder is on. Off, it costs one branch. *)
let span t layer f =
  if not t.on then f ()
  else
    let i = enter t layer in
    match f () with
    | v -> leave t i; v
    | exception e -> leave t i; raise e

(* Per-layer totals: [total.(l)] is the summed duration of layer [l]'s
   spans and [self.(l)] the same minus the time their child spans
   cover, both in ns. *)
type summary = { total : int array; self : int array }

let summarise t =
  let total = Array.make n_layers 0 and self = Array.make n_layers 0 in
  let children = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- children.(p) + (t.stop.(i) - t.start.(i))
  done;
  for i = 0 to t.n - 1 do
    let l = t.layer.(i) and d = t.stop.(i) - t.start.(i) in
    total.(l) <- total.(l) + d;
    self.(l) <- self.(l) + d - children.(i)
  done;
  { total; self }

(* One line per span: group, index, parent, layer, start and end in ns
   relative to the first span. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.n = 0 then 0 else t.start.(0) in
  output_string oc "group\tspan\tparent\tlayer\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" t.group.(i) i t.parent.(i)
      (snd table.(t.layer.(i))) (t.start.(i) - t0) (t.stop.(i) - t0)
  done;
  close_out oc

(* GC pauses from the runtime's own event ring. A pause is a maximal
   interval during which this domain is inside a stop-the-world or
   collection phase; nested phases are folded into the outermost one. *)
module Gc_pauses = struct
  type totals = {
    mutable depth : int;
    mutable began : int;
    mutable total_ns : int;
    mutable max_ns : int;
    mutable lost : int;  (* events the ring dropped before [poll] read them *)
  }

  type t = {
    totals : totals;
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
  }

  let pausing : Runtime_events.runtime_phase -> bool = function
    | EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR | EV_STW_LEADER | EV_STW_HANDLER
    | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let start () =
    (* [start] creates the ring once per process; [resume] undoes the
       [pause] of an earlier [stop] *)
    Runtime_events.start ();
    Runtime_events.resume ();
    let s =
      { depth = 0; began = 0; total_ns = 0; max_ns = 0; lost = 0 }
    in
    let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
    let runtime_begin _ time phase =
      if pausing phase then begin
        if s.depth = 0 then s.began <- ts time;
        s.depth <- s.depth + 1
      end
    and runtime_end _ time phase =
      if pausing phase && s.depth > 0 then begin
        s.depth <- s.depth - 1;
        if s.depth = 0 then begin
          let d = ts time - s.began in
          s.total_ns <- s.total_ns + d;
          if d > s.max_ns then s.max_ns <- d
        end
      end
    and lost_events _ n = s.lost <- s.lost + n in
    {
      totals = s;
      cursor = Runtime_events.create_cursor None;
      callbacks =
        Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
          ~lost_events ();
    }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  (* Forget what was seen so far, so the totals cover only what follows. *)
  let reset t =
    poll t;
    let s = t.totals in
    s.total_ns <- 0; s.max_ns <- 0; s.lost <- 0

  (* Stop reading events. Fails when the ring dropped any since [reset],
     because the pause totals would then be short by an unknown amount. *)
  let stop t =
    poll t;
    Runtime_events.free_cursor t.cursor;
    Runtime_events.pause ();
    if t.totals.lost > 0 then
      failwith
        (Printf.sprintf
           "runtime events: the ring dropped %d events, GC pause totals are \
            incomplete"
           t.totals.lost)
end
