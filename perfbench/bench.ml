(* The benchmark proper: set the system up from its public calls,
   replay pre-generated packets and update bursts through it, audit it
   against the shadow model and compute the metrics.

   The wiring is that of [Cfca_sim.Replay]: the Route Manager's sink
   forwards every FIB op to [Fib_snapshot.invalidate_prefix] (IN_FIB
   flips only) and to [Pipeline.sink], and [Plane.publish_delta] gets
   the burst's changed prefixes and the trie-backed [resolve]. Every
   setting of the system comes from [Replay.full_config]; the benchmark
   has none of its own besides how much input it generates and how it
   slices it into batches. *)

open Cfca_prefix
module Rib = Cfca_rib.Rib
module Rib_gen = Cfca_rib.Rib_gen
module Flow_gen = Cfca_traffic.Flow_gen
module Update_gen = Cfca_traffic.Update_gen
module Bgp_update = Cfca_bgp.Bgp_update
module Coalesce = Cfca_core.Coalesce
module Fib_op = Cfca_core.Fib_op
module Rm = Cfca_core.Route_manager
module Bintrie = Cfca_trie.Bintrie
module Flat_lpm = Cfca_trie.Flat_lpm
module Snap = Cfca_dataplane.Fib_snapshot
module Pipeline = Cfca_dataplane.Pipeline
module Plane = Cfca_mt.Plane
module Tcam = Cfca_tcam.Tcam
module Replay = Cfca_sim.Replay

(* A workload is the Zipf exponent of the destination popularity. Both
   run the same cycles (see [run]); the flatter popularity widens the
   set of destinations the L1/L2 caches must hold. *)
type workload = { zipf_exponent : float }

let workloads =
  [ ("zipf1.0", { zipf_exponent = 1.0 }); ("zipf0.8", { zipf_exponent = 0.8 }) ]

type params = {
  workload : workload;
  seed : int;
  seconds : float;
      (** length of the timed cycles; a run never does less than its
          minimum work, so [0.] runs exactly the minimum *)
  trace : bool;
  routes : int;  (** table size; [Replay.full_config.routes] by default *)
  setups : int;  (** set-ups timed for [setup_s]; the last one is run *)
}

let default_params workload =
  { workload; seed = 1; seconds = 30.0; trace = false;
    routes = Replay.full_config.routes; setups = 3 }

(* How the benchmark slices its inputs. *)
let read_batch = 65_536  (* packets per batch *)
let batches_per_burst = 4  (* batches in a cycle, after its burst *)
let update_pool_factor = 2  (* pre-generated updates, x full_config.updates *)
let audit_sample = 16  (* random addresses per audit *)

(* ---- inputs, all generated before any timer starts ---------------- *)

type inputs = {
  cfg : Replay.config;
  rib : Rib.t;
  addrs : Ipv4.t array;  (* destination addresses, replayed cyclically *)
  churn : Bgp_update.t array;  (* raw updates, consumed in bursts *)
  default_nh : Nexthop.t;
}

let generate p =
  let cfg = { Replay.full_config with routes = p.routes; seed = p.seed } in
  let rib =
    Rib_gen.generate
      { Rib_gen.size = cfg.routes; peers = cfg.peers; locality = 0.90;
        seed = p.seed }
  in
  let flow =
    Flow_gen.create
      { Flow_gen.default_params with
        seed = p.seed; zipf_exponent = p.workload.zipf_exponent }
      rib
  in
  let churn =
    Update_gen.generate
      { Update_gen.default_params with
        count = update_pool_factor * cfg.updates; seed = p.seed + 1 }
      flow
  in
  let pool = min cfg.packets (max read_batch (20 * cfg.routes)) in
  let addrs = Array.init pool (fun _ -> Flow_gen.next flow) in
  { cfg; rib; addrs; churn;
    default_nh = Nexthop.of_int (min 62 (cfg.peers + 1)) }

(* ---- the system under test ----------------------------------------- *)

type system = {
  rm : Rm.t;
  tree : Bintrie.t;
  snap : Snap.t;
  pipeline : Pipeline.t;
  plane : Plane.t;
  reader : Plane.Reader.t;
  changed_tbl : (Prefix.t, unit) Hashtbl.t;
  mutable changed : Prefix.t list;  (* prefixes whose mapping moved this burst *)
  mutable dirtied : bool;  (* an IN_FIB flip since the last refresh *)
  mutable fib_ops : int;
  sink_minor_words : float array;
      (* words the sink closure allocated while traced, so that they can
         be taken out of [Route_manager.apply]'s allocation; one cell of
         a float array, which unlike a [float ref] updates without
         allocating *)
}

(* Large enough that no burst resizes it: a resize would allocate on
   the major heap, which [sink_minor_words] does not see. *)
let changed_capacity = 4096

(* Build the system; returns it with the nanoseconds its set-up calls
   took. The sink closure is a [Sink] span in [spans], with
   [Pipeline.sink] a [Pipeline_sink] span inside it. *)
let setup inp spans =
  let cfg = inp.cfg in
  let t0 = Spans.now_ns () in
  let rm = Rm.create ~default_nh:inp.default_nh () in
  Bintrie.reserve (Rm.tree rm) (29 * Rib.size inp.rib / 10);
  Rm.load rm (Rib.to_seq inp.rib);
  let tree = Rm.tree rm in
  let snap =
    Snap.create ~patch_budget:cfg.patch_budget ~root_bits:cfg.root_bits ()
  in
  let of_pct pct =
    max 64 (int_of_float (pct /. 100.0 *. float_of_int (Rib.size inp.rib)))
  in
  let pipeline =
    Pipeline.create ~seed:cfg.seed
      (Cfca_dataplane.Config.make ~l1_capacity:(of_pct cfg.l1_pct)
         ~l2_capacity:(of_pct cfg.l2_pct) ())
  in
  let sys_ref = ref None in
  let sink s tr op =
    s.fib_ops <- s.fib_ops + 1;
    let nd, structural =
      match op with
      | Fib_op.Install (nd, _) | Fib_op.Remove (nd, _) -> (nd, true)
      | Fib_op.Update (nd, _, _) -> (nd, false)
    in
    let p = Bintrie.Node.prefix tr nd in
    if structural then begin
      Snap.invalidate_prefix snap p;
      s.dirtied <- true
    end;
    if not (Hashtbl.mem s.changed_tbl p) then begin
      Hashtbl.add s.changed_tbl p ();
      s.changed <- p :: s.changed
    end;
    Spans.span spans Spans.Pipeline_sink (fun () -> Pipeline.sink pipeline tr op)
  in
  Rm.set_sink rm (fun tr op ->
      let s = Option.get !sys_ref in
      if not spans.on then sink s tr op
      else begin
        (* read outside the span, so that the span's own allocation is
           the sink's, not [Route_manager.apply]'s *)
        let w0 = Gc.minor_words () in
        Spans.span spans Spans.Sink (fun () -> sink s tr op);
        s.sink_minor_words.(0) <-
          s.sink_minor_words.(0) +. (Gc.minor_words () -. w0)
      end);
  Snap.refresh snap tree;
  let plane =
    Plane.create ~patch_budget:cfg.patch_budget ~root_bits:cfg.root_bits
      ~readers:1 ~default_nh:inp.default_nh (Snap.cover tree)
  in
  let t1 = Spans.now_ns () in
  let sys =
    { rm; tree; snap; pipeline; plane; reader = Plane.Reader.make plane 0;
      changed_tbl = Hashtbl.create changed_capacity; changed = [];
      dirtied = false; fib_ops = 0; sink_minor_words = [| 0.0 |] }
  in
  sys_ref := Some sys;
  (sys, t1 - t0)

let resolve tree addr =
  let nd = Bintrie.lookup_in_fib tree addr in
  if Bintrie.is_nil nd then Flat_lpm.miss
  else
    Flat_lpm.encode
      ~value:(Nexthop.to_int (Bintrie.Node.installed_nh tree nd))
      ~length:(Bintrie.Node.depth tree nd)

(* ---- one run --------------------------------------------------------- *)

type run = {
  inp : inputs;
  sys : system;
  spans : Spans.t;
  co : Coalesce.t;
  shadow : Shadow.t;
  audit_rng : Random.State.t;
  nodes : Bintrie.node array;
  mutable sim_time : float;
  mutable cursor : int;  (* next address in the pool *)
  mutable next_update : int;  (* next raw update in the pool *)
  mutable sink : int;  (* folds plane answers so the loop is not dead code *)
  yardstick : Yardstick.t;
  (* the current cycle: plain ns, converted once its probe is taken *)
  mutable cyc_fwd_ns : int;
  mutable cyc_plane_ns : int;
  mutable cyc_burst_ns : int;
  mutable cyc_pkts : int;
  (* end-to-end accumulators, over the timed cycles; [*_y] in yardstick
     ns *)
  mutable fwd_pkts : int;  (* every packet, the cold first pass too *)
  mutable timed_pkts : int;
  mutable fwd_ns : int;
  mutable plane_ns : int;
  mutable fwd_y : float;
  mutable plane_y : float;
  mutable write_ns : int;
  mutable write_y : float;
  mutable raw_updates : int;
  mutable applied : int;
  mutable latencies_y : float list;  (* per burst *)
  mutable probes_ns : int list;  (* per cycle *)
  mutable heap_samples : int list;
      (* heap words after each burst: the heap's high-water mark moves by
         whole 128 MB generations with the phase of the major GC, a high
         percentile of the samples does not *)
  (* layer accumulators *)
  mutable fast_hits : int;
  mutable fallbacks : int;
  mutable pins : int;
  mutable freed : int;
  mutable publishes : int;
  mutable patched_publishes : int;
  mutable rm_alloc : float;
  mutable publish_alloc : float;
  mutable read_minor_words : float;
  mutable write_major_words : float;
  (* traced and untraced unit time, per kind (0 burst, 1 batch) *)
  unit_ns : int array;  (* index kind*2 + traced *)
  unit_count : int array;
  (* audit *)
  mutable probes : int;
  mutable divergences : int;
}

(* Minor words come from [Gc.minor_words]: on OCaml 5.1 the minor figure
   of [Gc.counters] counts the part of the minor heap in use since the
   last minor collection at an eighth of its size. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Reading [allocated_words] allocates too; this is what one reading
   adds to the difference of two, taken out of every such difference. *)
let alloc_probe =
  let w0 = allocated_words () in
  allocated_words () -. w0

let major_words () = let _, _, major = Gc.counters () in major

let note_unit r ~kind ns =
  let i = (kind * 2) + if r.spans.Spans.on then 1 else 0 in
  r.unit_ns.(i) <- r.unit_ns.(i) + ns;
  r.unit_count.(i) <- r.unit_count.(i) + 1

(* Packets [n] from the pool through snapshot + pipeline, then the same
   addresses through one pinned plane generation. Spans cover the whole
   batch per layer: the snapshot answers land in [r.nodes] first, which
   gives the same pipeline result as interleaving per packet because
   pipeline state never changes a lookup answer. *)
let batch r n =
  let s = r.sys and spans = r.spans in
  if r.cursor + n > Array.length r.inp.addrs then r.cursor <- 0;
  let off = r.cursor in
  r.cursor <- off + n;
  let addrs = r.inp.addrs and nodes = r.nodes in
  let st0 = Snap.stats s.snap in
  let mw0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  let root = if spans.on then Spans.enter spans Spans.Batch else -1 in
  Spans.span spans Spans.Snapshot_lookup (fun () ->
      for i = 0 to n - 1 do
        Array.unsafe_set nodes i (Snap.lookup s.snap s.tree addrs.(off + i))
      done);
  Spans.span spans Spans.Pipeline_process (fun () ->
      let now = r.sim_time in
      for i = 0 to n - 1 do
        ignore
          (Pipeline.process s.pipeline s.tree (Array.unsafe_get nodes i)
             ~now:(now +. (float_of_int i *. 1e-6)))
      done;
      r.sim_time <- now +. (float_of_int n *. 1e-6));
  let t1 = Spans.now_ns () in
  Spans.span spans Spans.Plane_lookup (fun () ->
      let gen = Plane.Reader.pin s.reader in
      let acc = ref r.sink in
      for i = 0 to n - 1 do
        acc := !acc lxor Plane.Reader.lookup s.reader gen addrs.(off + i)
      done;
      Plane.Reader.unpin s.reader;
      r.sink <- !acc);
  if root >= 0 then Spans.leave spans root;
  let t2 = Spans.now_ns () in
  r.read_minor_words <- r.read_minor_words +. (Gc.minor_words () -. mw0);
  let st1 = Snap.stats s.snap in
  r.fast_hits <- r.fast_hits + st1.fast_hits - st0.fast_hits;
  r.fallbacks <- r.fallbacks + st1.fallbacks - st0.fallbacks;
  r.pins <- r.pins + 1;
  r.fwd_pkts <- r.fwd_pkts + n;
  r.cyc_pkts <- r.cyc_pkts + n;
  r.cyc_fwd_ns <- r.cyc_fwd_ns + (t1 - t0);
  r.cyc_plane_ns <- r.cyc_plane_ns + (t2 - t1);
  note_unit r ~kind:1 (t2 - t0)

let flag r fmt =
  Printf.ksprintf
    (fun msg ->
      r.divergences <- r.divergences + 1;
      if r.divergences <= 5 then prerr_endline ("DIVERGENCE " ^ msg))
    fmt

(* Check [addrs] plus a seeded random sample on both lookup paths
   against the shadow model. Untimed. *)
let audit r addrs =
  let s = r.sys in
  let sample = List.init audit_sample (fun _ -> Ipv4.random r.audit_rng) in
  let gen = Plane.Reader.pin s.reader in
  List.iter
    (fun a ->
      r.probes <- r.probes + 1;
      let expect = Shadow.lookup r.shadow (Ipv4.to_int a) in
      let via_snap =
        Nexthop.to_int
          (Bintrie.Node.installed_nh s.tree (Snap.lookup s.snap s.tree a))
      in
      if via_snap <> expect then
        flag r "snapshot %s: shadow %d, snapshot %d" (Ipv4.to_string a) expect
          via_snap;
      let via_plane = Plane.Reader.lookup s.reader gen a in
      if via_plane <> expect then
        flag r "plane %s: shadow %d, plane %d" (Ipv4.to_string a) expect
          via_plane)
    (List.rev_append addrs sample);
  Plane.Reader.unpin s.reader

let boundary_addrs prefixes =
  List.concat_map
    (fun p ->
      List.map Ipv4.of_int
        (Shadow.boundaries
           ~bits:(Ipv4.to_int (Prefix.network p))
           ~len:(Prefix.length p)))
    prefixes

(* One burst of raw updates through the whole write path, timed from
   the first update handed to the coalescer until the plane generation
   is published and collected. The shadow model follows and the burst
   is audited afterwards, untimed. *)
let burst r =
  let s = r.sys and spans = r.spans in
  let first = r.next_update in
  let stop = min (Array.length r.inp.churn) (first + r.inp.cfg.burst) in
  r.next_update <- stop;
  let traced = spans.on in
  let mj0 = major_words () in
  let t0 = Spans.now_ns () in
  let root = if traced then Spans.enter spans Spans.Burst else -1 in
  for i = first to stop - 1 do
    Spans.span spans Spans.Coalesce_add (fun () ->
        Coalesce.add r.co r.inp.churn.(i))
  done;
  let net = Spans.span spans Spans.Coalesce_flush (fun () -> Coalesce.flush r.co) in
  s.changed <- [];
  Hashtbl.reset s.changed_tbl;
  List.iter
    (fun u ->
      Spans.span spans Spans.Rm_apply (fun () ->
          if traced then begin
            let w0 = allocated_words () and sink0 = s.sink_minor_words.(0) in
            Rm.apply s.rm u;
            r.rm_alloc <-
              r.rm_alloc +. (allocated_words () -. w0 -. alloc_probe)
              -. (s.sink_minor_words.(0) -. sink0)
          end
          else Rm.apply s.rm u))
    net;
  if s.dirtied then begin
    Spans.span spans Spans.Snapshot_refresh (fun () -> Snap.refresh s.snap s.tree);
    s.dirtied <- false
  end;
  if s.changed <> [] then begin
    let cover = Spans.span spans Spans.Snapshot_cover (fun () -> Snap.cover s.tree) in
    let patched0 = Plane.patched_publishes s.plane in
    Spans.span spans Spans.Plane_publish (fun () ->
        let w0 = if traced then allocated_words () else 0.0 in
        ignore
          (Plane.publish_delta s.plane ~changed:s.changed ~resolve:(resolve s.tree)
             cover);
        if traced then
          r.publish_alloc <-
            r.publish_alloc +. (allocated_words () -. w0 -. alloc_probe));
    r.publishes <- r.publishes + 1;
    r.patched_publishes <-
      r.patched_publishes + Plane.patched_publishes s.plane - patched0;
    Spans.span spans Spans.Plane_collect (fun () ->
        r.freed <- r.freed + Plane.collect s.plane)
  end;
  let t1 = Spans.now_ns () in
  if root >= 0 then Spans.leave spans root;
  r.write_major_words <- r.write_major_words +. (major_words () -. mj0);
  r.cyc_burst_ns <- t1 - t0;
  r.raw_updates <- r.raw_updates + (stop - first);
  r.applied <- r.applied + List.length net;
  note_unit r ~kind:0 (t1 - t0);
  r.heap_samples <- (Gc.quick_stat ()).heap_words :: r.heap_samples;
  (* untimed: follow in the shadow model, then audit the burst *)
  List.iter
    (fun (u : Bgp_update.t) ->
      let bits = Ipv4.to_int (Prefix.network u.prefix)
      and len = Prefix.length u.prefix in
      match u.action with
      | Bgp_update.Announce nh -> Shadow.announce r.shadow ~bits ~len (Nexthop.to_int nh)
      | Bgp_update.Withdraw -> Shadow.withdraw r.shadow ~bits ~len)
    net;
  audit r
    (boundary_addrs
       (List.rev_append s.changed (List.map (fun (u : Bgp_update.t) -> u.prefix) net)))

(* Close a timed cycle: probe the yardstick and add the cycle's times,
   plain and converted with that probe, to the run's. *)
let close_cycle r =
  let p = Yardstick.probe r.yardstick in
  let y ns = float_of_int ns *. float_of_int Yardstick.nominal_ns /. float_of_int p in
  r.probes_ns <- p :: r.probes_ns;
  r.timed_pkts <- r.timed_pkts + r.cyc_pkts;
  r.fwd_ns <- r.fwd_ns + r.cyc_fwd_ns;
  r.plane_ns <- r.plane_ns + r.cyc_plane_ns;
  r.write_ns <- r.write_ns + r.cyc_burst_ns;
  r.fwd_y <- r.fwd_y +. y r.cyc_fwd_ns;
  r.plane_y <- r.plane_y +. y r.cyc_plane_ns;
  r.write_y <- r.write_y +. y r.cyc_burst_ns;
  r.latencies_y <- y r.cyc_burst_ns :: r.latencies_y;
  r.cyc_pkts <- 0;
  r.cyc_fwd_ns <- 0;
  r.cyc_plane_ns <- 0;
  r.cyc_burst_ns <- 0

(* ---- workloads and metrics -------------------------------------------- *)

type result = {
  e2e : (string * float * string) list;  (** name, value, unit *)
  plain : (string * float * string) list;
      (** the yardstick-time end-to-end metrics in plain time *)
  layers : (string * float * string) list;
  probes : int;
  divergences : int;
  verify : (unit, string) Result.t;
  spans : Spans.t;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let phase name t0 =
  Printf.eprintf "[perfbench] %-10s %.2f s\n%!" name
    (float_of_int (Spans.now_ns () - t0) /. 1e9);
  Spans.now_ns ()

(* A run is a cold first pass over the packet pool, then timed cycles
   until the seconds are spent. A cycle is one burst through the write
   path, then [batches_per_burst] packet batches through both lookup
   paths, then one yardstick probe. Each timer covers one path only, so
   the write metrics hold no packet time and the read metrics no burst
   time; the paths still share the machine's phases, the heap and the
   caches, as in [bench replay]. A run does at least [min_bursts] cycles,
   so a run with [seconds = 0.] is exactly that work and fully
   deterministic. *)
let run ?(min_bursts = 100) p =
  let t = Spans.now_ns () in
  let inp = generate p in
  let yardstick = Yardstick.create () in
  let t = phase "generate" t in
  let spans = Spans.create () in
  let setup_s = Array.make p.setups 0.0 in
  let sys = ref None in
  for i = 0 to p.setups - 1 do
    sys := None;
    Gc.full_major ();
    let s, ns = setup inp spans in
    setup_s.(i) <- float_of_int ns /. 1e9;
    sys := Some s
  done;
  let sys = Option.get !sys in
  let t = phase "setups" t in
  let shadow = Shadow.create ~default_nh:(Nexthop.to_int inp.default_nh) in
  Seq.iter
    (fun (pfx, nh) ->
      Shadow.announce shadow
        ~bits:(Ipv4.to_int (Prefix.network pfx))
        ~len:(Prefix.length pfx) (Nexthop.to_int nh))
    (Rib.to_seq inp.rib);
  let r =
    { inp; sys; spans;
      co = Coalesce.create ~expect:inp.cfg.burst ();
      shadow; audit_rng = Random.State.make [| p.seed; 0xA0D1 |];
      nodes = Array.make read_batch Bintrie.nil; sim_time = 0.0; cursor = 0;
      next_update = 0; sink = 0; yardstick; cyc_fwd_ns = 0; cyc_plane_ns = 0;
      cyc_burst_ns = 0; cyc_pkts = 0; fwd_pkts = 0; timed_pkts = 0; fwd_ns = 0;
      plane_ns = 0; fwd_y = 0.0; plane_y = 0.0; write_ns = 0; write_y = 0.0;
      raw_updates = 0; applied = 0; latencies_y = []; probes_ns = [];
      heap_samples = []; fast_hits = 0; fallbacks = 0; pins = 0; freed = 0;
      publishes = 0; patched_publishes = 0; rm_alloc = 0.0;
      publish_alloc = 0.0; read_minor_words = 0.0; write_major_words = 0.0;
      unit_ns = Array.make 4 0; unit_count = Array.make 4 0; probes = 0;
      divergences = 0 }
  in
  Gc.full_major ();
  let pauses = if p.trace then Some (Spans.Gc_pauses.start ()) else None in
  Option.iter Spans.Gc_pauses.reset pauses;
  let snap0 = Snap.stats sys.snap in
  let gc0 = Gc.quick_stat () in
  let fib_ops0 = sys.fib_ops in
  (* A traced run traces a seeded coin-flip half of its units: the
     others give the untraced time that [trace.overhead_ratio] compares
     against, under the same machine phases. A coin rather than parity,
     so that GC cycles a whole number of bursts long cannot line up with
     one side. *)
  let coin = Random.State.make [| p.seed; 0x7ACE |] in
  let unit f =
    spans.on <- p.trace && Random.State.bool coin;
    f ();
    spans.on <- false;
    Option.iter Spans.Gc_pauses.poll pauses
  in
  let pool = Array.length inp.addrs in
  for _ = 1 to pool / read_batch do
    unit (fun () -> batch r read_batch)
  done;
  (* The end-to-end cache metrics cover this first pass over the pool
     only: a fixed trace from cold caches, as in [Replay.run]. Later
     passes replay the same addresses, on which the caches converge
     (Zipf 1.0 then needs no more TCAM writes at all), and the bursts
     between them make [Pipeline.sink] write the TCAM as well, once per
     FIB op that touches L1; over the cycles the metrics would depend on
     how many of them a run of fixed length gets through. *)
  let first = Pipeline.stats sys.pipeline in
  let first_writes = (Tcam.stats (Pipeline.l1_tcam sys.pipeline)).slot_writes in
  r.cyc_pkts <- 0;
  r.cyc_fwd_ns <- 0;
  r.cyc_plane_ns <- 0;
  assert (min_bursts * inp.cfg.burst <= Array.length inp.churn);
  let deadline = Spans.now_ns () + int_of_float (p.seconds *. 1e9) in
  let cycles = ref 0 in
  while
    !cycles < min_bursts
    || (r.next_update < Array.length inp.churn && Spans.now_ns () < deadline)
  do
    unit (fun () -> burst r);
    for _ = 1 to batches_per_burst do
      unit (fun () -> batch r read_batch)
    done;
    close_cycle r;
    incr cycles
  done;
  let pst = Pipeline.stats sys.pipeline in
  let gc1 = Gc.quick_stat () in
  let t = phase "workload" t in
  (* end-of-run audit: a spread sample of the replayed addresses *)
  audit r (List.init 4096 (fun i -> inp.addrs.(i * pool / 4096)));
  let verify = Rm.verify sys.rm in
  Option.iter Spans.Gc_pauses.stop pauses;
  ignore (phase "audit" t);
  (* ---- metrics ---- *)
  let f = float_of_int in
  let ratio a b = if b = 0 then 0.0 else f a /. f b in
  let fratio a b = if b = 0.0 then 0.0 else a /. b in
  let sorted l = let a = Array.of_list l in Array.sort compare a; a in
  let lat = sorted (List.map (fun ns -> ns /. 1e6) r.latencies_y) in
  let snap1 = Snap.stats sys.snap in
  let word_mb w = w *. f (Sys.word_size / 8) /. 1e6 in
  let heap = sorted (List.map f r.heap_samples) in
  (* Rates and latencies in yardstick time (see [Yardstick]); the same
     in plain time are printed beside them. *)
  let e2e =
    [ ("setup_s", median setup_s, "s");
      ("fwd_pkts_per_ys", fratio (f r.timed_pkts) (r.fwd_y /. 1e9), "1/ys");
      ("plane_lookups_per_ys", fratio (f r.timed_pkts) (r.plane_y /. 1e9), "1/ys");
      ("updates_per_ys", fratio (f r.raw_updates) (r.write_y /. 1e9), "1/ys");
      ("update_visible_yms_p50", percentile lat 0.5, "yms");
      ("update_visible_yms_p90", percentile lat 0.9, "yms");
      ("l1_hit_ratio", 1.0 -. ratio first.l1_misses first.packets, "ratio");
      ("tcam_writes_per_kpkt", 1000.0 *. ratio first_writes first.packets, "ratio");
      ("fib_entries_per_route", ratio (Rm.fib_size sys.rm) (Rm.route_count sys.rm), "ratio");
      ("heap_p90_mb", word_mb (percentile heap 0.9), "MB") ]
  in
  let per_s n ns = if ns = 0 then 0.0 else f n /. (f ns /. 1e9) in
  let plain =
    [ ("fwd_pkts_per_s", per_s r.timed_pkts r.fwd_ns, "1/s");
      ("plane_lookups_per_s", per_s r.timed_pkts r.plane_ns, "1/s");
      ("updates_per_s", per_s r.raw_updates r.write_ns, "1/s") ]
  in
  let sum = Spans.summarise spans in
  let ms l = f sum.self.(Spans.layer_index l) /. 1e6 in
  let burst_ms = f sum.total.(Spans.layer_index Spans.Burst) /. 1e6 in
  let traced_ns kind = r.unit_ns.((kind * 2) + 1)
  and traced_n kind = r.unit_count.((kind * 2) + 1)
  and plain_ns kind = r.unit_ns.(kind * 2)
  and plain_n kind = r.unit_count.(kind * 2) in
  let overhead =
    (* traced time over the untraced time of as many units, per kind *)
    let expected, seen = (ref 0.0, ref 0.0) in
    for kind = 0 to 1 do
      if traced_n kind > 0 && plain_n kind > 0 then begin
        seen := !seen +. f (traced_ns kind);
        expected :=
          !expected +. (f (plain_ns kind) /. f (plain_n kind) *. f (traced_n kind))
      end
    done;
    fratio !seen !expected -. 1.0
  in
  let refreshes = snap1.patches + snap1.full_rebuilds - snap0.patches - snap0.full_rebuilds in
  let pauses_ms g = match pauses with Some t -> g t.Spans.Gc_pauses.totals | None -> 0.0 in
  let layers =
    [ ("coalesce.busy_ms", ms Spans.Coalesce_add +. ms Spans.Coalesce_flush, "ms");
      ("coalesce.calls", f (r.raw_updates + List.length r.latencies_y), "count");
      ("coalesce.absorbed_ratio", 1.0 -. ratio r.applied r.raw_updates, "ratio");
      ("rm.apply_busy_ms", ms Spans.Rm_apply, "ms");
      ("rm.apply_calls", f r.applied, "count");
      ("rm.fib_ops", f (sys.fib_ops - fib_ops0), "count");
      ("rm.fib_ops_per_update", ratio (sys.fib_ops - fib_ops0) r.applied, "ratio");
      ("rm.alloc_words", r.rm_alloc, "words");
      ("snapshot.refresh_busy_ms", ms Spans.Snapshot_refresh, "ms");
      ("snapshot.refresh_calls", f refreshes, "count");
      ("snapshot.patched_ratio", ratio (snap1.patches - snap0.patches) refreshes, "ratio");
      ("snapshot.patched_cells", f (snap1.patched_cells - snap0.patched_cells), "count");
      ("snapshot.cover_busy_ms", ms Spans.Snapshot_cover, "ms");
      ("snapshot.lookup_busy_ms", ms Spans.Snapshot_lookup, "ms");
      ("snapshot.fastpath_ratio", ratio r.fast_hits (r.fast_hits + r.fallbacks), "ratio");
      ("pipeline.process_busy_ms", ms Spans.Pipeline_process, "ms");
      ("pipeline.l2_hit_ratio", ratio (pst.l1_misses - pst.l2_misses) pst.l1_misses, "ratio");
      ("pipeline.l1_installs", f pst.l1_installs, "count");
      ("pipeline.l1_evictions", f pst.l1_evictions, "count");
      ("pipeline.lthd_victim_ratio",
       ratio pst.victims_lthd (pst.victims_lthd + pst.victims_fallback), "ratio");
      ("pipeline.sink_busy_ms", ms Spans.Pipeline_sink, "ms");
      ("sink.wiring_busy_ms", ms Spans.Sink, "ms");
      ("pipeline.bgp_l1", f (Pipeline.stats sys.pipeline).bgp_l1, "count");
      ("plane.publish_busy_ms", ms Spans.Plane_publish, "ms");
      ("plane.publish_share", fratio (ms Spans.Plane_publish) burst_ms, "ratio");
      ("plane.publish_calls", f r.publishes, "count");
      ("plane.patched_ratio", ratio r.patched_publishes r.publishes, "ratio");
      ("plane.publish_alloc_words", r.publish_alloc, "words");
      ("plane.gen_words", f (Flat_lpm.memory_words (Plane.current sys.plane).g_flat), "words");
      ("plane.collect_busy_ms", ms Spans.Plane_collect, "ms");
      ("plane.freed", f r.freed, "count");
      ("plane.lookup_busy_ms", ms Spans.Plane_lookup, "ms");
      ("plane.pins", f r.pins, "count");
      ("gc.minor_words_per_pkt", fratio r.read_minor_words (f r.fwd_pkts), "words");
      ("gc.major_words_per_update", fratio r.write_major_words (f r.raw_updates), "words");
      ("gc.major_collections", f (gc1.major_collections - gc0.major_collections), "count");
      ("gc.pause_ms_total", pauses_ms (fun s -> f s.total_ns /. 1e6), "ms");
      ("gc.pause_ms_max", pauses_ms (fun s -> f s.max_ns /. 1e6), "ms");
      ("unattributed_ms", ms Spans.Burst +. ms Spans.Batch, "ms");
      ("trace.overhead_ratio", overhead, "ratio");
      ("yardstick.probe_ms", median (Array.of_list (List.map f r.probes_ns)) /. 1e6, "ms") ]
  in
  { e2e; plain; layers; probes = r.probes; divergences = r.divergences; verify; spans }
