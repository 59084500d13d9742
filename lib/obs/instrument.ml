module Graph = Bp_graph.Graph
module Sim = Bp_sim.Sim
module Mapping = Bp_sim.Mapping

type series = {
  mutable rev_samples : (float * int) list;
  mutable n_samples : int;
  mutable dropped : int;
}

type t = {
  m : Metrics.t;
  sample_limit : int;
  channels : (int, series) Hashtbl.t;
  mutable finalized : bool;
}

let kernel_fires name = Printf.sprintf "kernel.%s.fires" name
let kernel_service name = Printf.sprintf "kernel.%s.service_s" name
let kernel_blocks name = Printf.sprintf "kernel.%s.blocks" name
let pe_fires p = Printf.sprintf "pe.%d.fires" p
let pe_busy p = Printf.sprintf "pe.%d.busy_s" p
let pe_idle p = Printf.sprintf "pe.%d.idle_s" p
let pe_util p = Printf.sprintf "pe.%d.util" p
let chan_pushes id = Printf.sprintf "chan.%d.pushes" id
let chan_pops id = Printf.sprintf "chan.%d.pops" id
let chan_blocks id = Printf.sprintf "chan.%d.blocks" id
let chan_max_depth id = Printf.sprintf "chan.%d.max_depth" id
let chan_dropped id = Printf.sprintf "chan.%d.samples_dropped" id

let create ?(sample_limit = 200_000) ~graph () =
  let m = Metrics.create () in
  let channels = Hashtbl.create 32 in
  (* Pre-register every kernel and channel so components that never fire
     still show up — a zero is information, absence is a question. *)
  List.iter
    (fun (n : Graph.node) ->
      if Mapping.is_on_chip n then begin
        Metrics.incr m ~by:0 (kernel_fires n.Graph.name);
        Metrics.incr m ~by:0 (kernel_blocks n.Graph.name)
      end)
    (Graph.nodes graph);
  List.iter
    (fun (c : Graph.channel) ->
      let id = c.Graph.chan_id in
      Metrics.incr m ~by:0 (chan_pushes id);
      Metrics.incr m ~by:0 (chan_pops id);
      Metrics.incr m ~by:0 (chan_blocks id);
      Metrics.set_max m (chan_max_depth id) 0.;
      Hashtbl.replace channels id { rev_samples = []; n_samples = 0; dropped = 0 })
    (Graph.channels graph);
  { m; sample_limit; channels; finalized = false }

let metrics t = t.m

let observer t ~time_s:_ ~proc ~node ~method_name:_ ~service_s =
  Metrics.incr t.m (kernel_fires node.Graph.name);
  Metrics.observe t.m (kernel_service node.Graph.name) service_s;
  Metrics.incr t.m (pe_fires proc);
  Metrics.add t.m (pe_busy proc) service_s

let series_of t chan_id =
  match Hashtbl.find_opt t.channels chan_id with
  | Some s -> s
  | None ->
    let s = { rev_samples = []; n_samples = 0; dropped = 0 } in
    Hashtbl.replace t.channels chan_id s;
    s

let channel_observer t ~time_s ~chan_id ~node ~proc:_ ~event ~depth =
  (match event with
  | Sim.Ch_push -> Metrics.incr t.m (chan_pushes chan_id)
  | Sim.Ch_pop -> Metrics.incr t.m (chan_pops chan_id)
  | Sim.Ch_block ->
    Metrics.incr t.m (chan_blocks chan_id);
    Metrics.incr t.m (kernel_blocks node.Graph.name));
  Metrics.set_max t.m (chan_max_depth chan_id) (float_of_int depth);
  match event with
  | Sim.Ch_block -> ()
  | Sim.Ch_push | Sim.Ch_pop ->
    let s = series_of t chan_id in
    if s.n_samples < t.sample_limit then begin
      s.rev_samples <- (time_s, depth) :: s.rev_samples;
      s.n_samples <- s.n_samples + 1
    end
    else begin
      s.dropped <- s.dropped + 1;
      Metrics.incr t.m (chan_dropped chan_id)
    end

let finalize t ~result =
  if t.finalized then invalid_arg "Instrument.finalize: already finalized";
  t.finalized <- true;
  let duration = result.Sim.duration_s in
  Metrics.set t.m "sim.duration_s" duration;
  Metrics.incr t.m ~by:result.Sim.input_stalls "sim.input_stalls";
  Metrics.incr t.m ~by:result.Sim.late_emissions "sim.late_emissions";
  Metrics.incr t.m ~by:result.Sim.leftover_items "sim.leftover_items";
  Metrics.set t.m "sim.timed_out" (if result.Sim.timed_out then 1. else 0.);
  Metrics.set t.m "sim.static.regions"
    (float_of_int result.Sim.static_regions);
  Metrics.incr t.m ~by:result.Sim.static_fired "sim.static.fired";
  Metrics.incr t.m ~by:result.Sim.static_indexed_fired
    "sim.static.indexed_fired";
  Metrics.incr t.m ~by:result.Sim.static_fallback_events
    "sim.static.fallback_events";
  Metrics.incr t.m ~by:result.Sim.static_elided_events
    "sim.static.elided_events";
  Metrics.incr t.m ~by:result.Sim.pe_visits "sim.dispatch.pe_visits";
  Array.iteri
    (fun p _ ->
      let busy = Option.value ~default:0. (Metrics.gauge t.m (pe_busy p)) in
      Metrics.set t.m (pe_busy p) busy;
      Metrics.set t.m (pe_idle p) (Float.max 0. (duration -. busy));
      Metrics.set t.m (pe_util p)
        (if duration > 0. then busy /. duration else 0.))
    result.Sim.procs;
  (* The simulator's own high-water marks are authoritative; observed
     marks can only agree or undershoot (they equal, by construction). *)
  List.iter
    (fun (id, depth) ->
      Metrics.set_max t.m (chan_max_depth id) (float_of_int depth))
    result.Sim.channel_depths

let channel_series t =
  Hashtbl.fold
    (fun id s acc -> (id, List.rev s.rev_samples) :: acc)
    t.channels []
  |> List.sort compare

let channel_label g id =
  let c = Graph.channel g id in
  Printf.sprintf "%s.%s->%s.%s"
    (Graph.node g c.Graph.src.Graph.node).Graph.name c.Graph.src.Graph.port
    (Graph.node g c.Graph.dst.Graph.node).Graph.name c.Graph.dst.Graph.port

let compose observers ~time_s ~proc ~node ~method_name ~service_s =
  List.iter
    (fun f -> f ~time_s ~proc ~node ~method_name ~service_s)
    observers

(* ---- compile-side metrics --------------------------------------------- *)

let record_compile m (plan : Bp_compiler.Plan.t) =
  let total =
    List.fold_left
      (fun acc (p : Bp_compiler.Pass.timing) ->
        Metrics.set m
          (Printf.sprintf "compile.pass.%s.wall_s" p.Bp_compiler.Pass.pass)
          p.Bp_compiler.Pass.wall_s;
        acc +. p.Bp_compiler.Pass.wall_s)
      0. plan.Bp_compiler.Plan.timings
  in
  Metrics.set m "compile.wall_s" total;
  Metrics.incr m ~by:0 "compile.diag.info";
  Metrics.incr m ~by:0 "compile.diag.warning";
  Metrics.incr m ~by:0 "compile.diag.error";
  List.iter
    (fun (d : Bp_util.Diag.t) ->
      Metrics.incr m
        ("compile.diag." ^ Bp_util.Diag.severity_name d.Bp_util.Diag.severity))
    plan.Bp_compiler.Plan.diagnostics
