(* Per-layer instrumentation for the traced run, all of it in the
   benchmark's own code: kernel behaviours wrapped at graph-build time,
   the GC's own event ring, and in-memory spans written out as a Chrome
   trace when the run ends. Nothing here is linked into an untraced
   request. *)

open Block_parallel

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns *. 1e-9

(* {1 Kernel counters}

   One record per domain, so the suite's worker domains never share a
   counter. A behaviour captures its domain's record when it is made,
   and every call it serves runs on that domain. [in_sim] tells the
   schedule pass's untimed recorder (compile time) from [Plan.run_plan]:
   the recorder never instantiates sinks, the simulator always does, so
   the first sink instantiation of a request marks the switch. *)

type counters = {
  mutable in_sim : bool;
  mutable attempts : int;
  mutable fires : int;
  mutable starved_calls : int;
  mutable sim_ns : int;
  mutable compile_ns : int;
}

let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let c =
        {
          in_sim = false;
          attempts = 0;
          fires = 0;
          starved_calls = 0;
          sim_ns = 0;
          compile_ns = 0;
        }
      in
      Mutex.protect registry_lock (fun () -> registry := c :: !registry);
      c)

let counters () = Domain.DLS.get key

(* Marks the start of a request on the calling domain: kernel time is
   charged to compile until the simulator instantiates a sink. *)
let begin_request () = (counters ()).in_sim <- false

(* Call between requests or sweeps only: no kernel runs then. *)
let take () =
  Mutex.protect registry_lock (fun () ->
      List.fold_left
        (fun (a, f, s, sim, comp) c ->
          let r =
            ( a + c.attempts,
              f + c.fires,
              s + c.starved_calls,
              sim + c.sim_ns,
              comp + c.compile_ns )
          in
          c.attempts <- 0;
          c.fires <- 0;
          c.starved_calls <- 0;
          c.sim_ns <- 0;
          c.compile_ns <- 0;
          c.in_sim <- false;
          r)
        (0, 0, 0, 0, 0) !registry)

let charge c t0 =
  let d = now_ns () - t0 in
  if c.in_sim then c.sim_ns <- c.sim_ns + d
  else c.compile_ns <- c.compile_ns + d

let wrap_behaviour c (b : Behaviour.t) : Behaviour.t =
  let try_step io =
    c.attempts <- c.attempts + 1;
    let t0 = now_ns () in
    let r = b.Behaviour.try_step io in
    charge c t0;
    if Option.is_some r then c.fires <- c.fires + 1;
    r
  in
  let starved =
    Option.map
      (fun s io ->
        c.starved_calls <- c.starved_calls + 1;
        let t0 = now_ns () in
        let r = s io in
        charge c t0;
        r)
      b.Behaviour.starved
  in
  let indexed =
    Option.map
      (fun (ix : Behaviour.indexed) ->
        {
          ix with
          Behaviour.fire_indexed =
            (fun ports op ->
              c.attempts <- c.attempts + 1;
              let t0 = now_ns () in
              let r = ix.Behaviour.fire_indexed ports op in
              charge c t0;
              if Option.is_some r then c.fires <- c.fires + 1;
              r);
        })
      b.Behaviour.indexed
  in
  { Behaviour.try_step; starved; indexed }

let rec wrap_spec (s : Kernel.t) : Kernel.t =
  let make_behaviour () =
    let c = counters () in
    if s.Kernel.role = Kernel.Sink then c.in_sim <- true;
    wrap_behaviour c (s.Kernel.make_behaviour ())
  in
  let parallelization =
    match s.Kernel.parallelization with
    | Kernel.Custom f ->
      Kernel.Custom (fun ~replica ~ways -> wrap_spec (f ~replica ~ways))
    | p -> p
  in
  { s with Kernel.make_behaviour; parallelization }

(* The raw graph rebuilt node for node and channel for channel with every
   user kernel wrapped. Replicas the parallelize pass makes share the
   wrapped spec; kernels the compiler inserts (buffers, splits, joins,
   insets, pads) are not wrapped, so their time counts as [sim.self_s]. *)
let instrument (inst : App.instance) =
  let g = inst.App.graph in
  let pos = Hashtbl.create 64 in
  List.iteri
    (fun i (n : Graph.node) -> Hashtbl.replace pos n.Graph.id i)
    (Graph.topological_order g);
  let cyclic =
    List.exists
      (fun (c : Graph.channel) ->
        Hashtbl.find pos c.Graph.src.Graph.node
        >= Hashtbl.find pos c.Graph.dst.Graph.node)
      (Graph.channels g)
  in
  let g' = Graph.create ~allow_cycles:cyclic () in
  List.iter
    (fun (n : Graph.node) ->
      let id =
        Graph.add g' ~name:n.Graph.name ~meta:n.Graph.meta
          (wrap_spec n.Graph.spec)
      in
      if id <> n.Graph.id then failwith "instrument: node ids diverged")
    (Graph.nodes g);
  List.iter
    (fun (c : Graph.channel) ->
      Graph.connect g' ~capacity:c.Graph.capacity
        ~from:(c.Graph.src.Graph.node, c.Graph.src.Graph.port)
        ~into:(c.Graph.dst.Graph.node, c.Graph.dst.Graph.port))
    (Graph.channels g);
  List.iter2
    (fun (a : Graph.channel) (b : Graph.channel) ->
      if a.Graph.chan_id <> b.Graph.chan_id then
        failwith "instrument: channel ids diverged")
    (Graph.channels g) (Graph.channels g');
  List.iter
    (fun (d : Graph.dep) -> Graph.add_dep g' ~src:d.Graph.dep_src ~dst:d.Graph.dep_dst)
    (Graph.deps g);
  { inst with App.graph = g' }

(* {1 GC pauses from the runtime's own event ring} *)

(* The runtime sizes its ring file for every possible domain (128 in
   OCaml 5.1), so run.py picks the per-domain ring size (OCAMLRUNPARAM e)
   from the file-size limit: 2^20 words, a 1 GiB file, where there is no
   limit, down to 2^10. A polling domain empties the rings every
   [poll_period_s] so that a small ring does not wrap between drains;
   words lost anyway are counted and reported. The poller's own ring
   takes part in every stop-the-world collection, so it is left out of
   the totals: it announces its ring index with a user event first. *)
type ring = {
  poll : unit -> unit;  (** Reads the rings into the totals. *)
  lock : Mutex.t;  (** Guards the cursor and everything below. *)
  total_ns : int ref;
  lost : (int, int) Hashtbl.t;  (** Words lost, per ring index. *)
  poller_ring : int ref;  (** -1 until its announcement is read. *)
  stop : bool Atomic.t;
  poller : unit Domain.t;
}

type Runtime_events.User.tag += Gc_poller

let poller_announcement =
  Runtime_events.User.register "bpbench.gc_poller" Gc_poller
    Runtime_events.Type.unit

let gc_ring = ref None
let poll_period_s = 0.0005

(* Stops and joins the polling domain; idempotent. *)
let stop_gc_ring () =
  match !gc_ring with
  | Some r when not (Atomic.exchange r.stop true) ->
    Domain.join r.poller;
    r.poll ()
  | _ -> ()

let start_gc_ring () =
  Runtime_events.start ();
  let open_at = Hashtbl.create 8 in
  let total_ns = ref 0 and lost = Hashtbl.create 8 and poller_ring = ref (-1) in
  let tracked d = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE ->
      d <> !poller_ring
    | _ -> false
  in
  let runtime_begin d ts phase =
    if tracked d phase then
      Hashtbl.replace open_at (d, phase)
        (Int64.to_int (Runtime_events.Timestamp.to_int64 ts))
  in
  let runtime_end d ts phase =
    match Hashtbl.find_opt open_at (d, phase) with
    | Some t0 when tracked d phase ->
      Hashtbl.remove open_at (d, phase);
      total_ns :=
        !total_ns + (Int64.to_int (Runtime_events.Timestamp.to_int64 ts) - t0)
    | _ -> ()
  in
  let lost_events d n =
    Hashtbl.replace lost d (n + Option.value ~default:0 (Hashtbl.find_opt lost d))
  in
  let announced d _ ev () =
    if Runtime_events.User.tag ev = Gc_poller then poller_ring := d
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events
      ()
    |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit
         announced
  in
  let cursor = Runtime_events.create_cursor None in
  let lock = Mutex.create () and stop = Atomic.make false in
  let poll () =
    Mutex.protect lock (fun () ->
        ignore (Runtime_events.read_poll cursor callbacks None : int))
  in
  let poller =
    Domain.spawn (fun () ->
        Runtime_events.User.write poller_announcement ();
        while not (Atomic.get stop) do
          poll ();
          Unix.sleepf poll_period_s
        done)
  in
  gc_ring := Some { poll; lock; total_ns; lost; poller_ring; stop; poller };
  (* Also on the way out of a run that fails. *)
  at_exit stop_gc_ring

(* GC time recorded since the previous drain, in seconds. *)
let drain_gc () =
  match !gc_ring with
  | None -> 0.
  | Some r ->
    r.poll ();
    Mutex.protect r.lock (fun () ->
        let t = !(r.total_ns) in
        r.total_ns := 0;
        s_of_ns t)

(* Words lost from the rings that count, over the whole run. *)
let gc_events_lost () =
  match !gc_ring with
  | Some r ->
    Mutex.protect r.lock (fun () ->
        Hashtbl.fold
          (fun d n a -> if d = !(r.poller_ring) then a else a + n)
          r.lost 0)
  | None -> 0

(* {1 Spans} *)

type span = {
  name : string;
  request : int;
  id : int;
  parent : int;  (** 0 for a root span. *)
  tid : int;
  t0_ns : int;
  t1_ns : int;
}

let spans = ref []
let counters_track = ref []
let next_span = ref 0

let span ?(parent = 0) ~request ~tid name t0_ns t1_ns =
  incr next_span;
  spans :=
    { name; request; id = !next_span; parent; tid; t0_ns; t1_ns } :: !spans;
  !next_span

(* Kernel firings are aggregated per request into a counter sample, not
   recorded as spans. *)
let counter ~request ts_ns fields =
  counters_track := (request, ts_ns, fields) :: !counters_track

let write_chrome_trace path =
  let origin =
    List.fold_left (fun m s -> min m s.t0_ns) max_int !spans
  in
  let us ns = float_of_int (ns - origin) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc s
  in
  List.iter
    (fun s ->
      emit
        (Printf.sprintf
           "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%d,\"span\":%d,\"parent\":%d}}"
           s.name s.tid (us s.t0_ns)
           (float_of_int (s.t1_ns - s.t0_ns) /. 1e3)
           s.request s.id s.parent))
    (List.rev !spans);
  List.iter
    (fun (request, ts, fields) ->
      emit
        (Printf.sprintf
           "{\"name\":\"kernels\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{%s,\"request\":%d}}"
           (us ts)
           (String.concat ","
              (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) fields))
           request))
    (List.rev !counters_track);
  output_string oc "\n]}\n";
  close_out oc
