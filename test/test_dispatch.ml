(* The dispatch loop on chips larger than the suite's.

   No suite application maps onto more than 30 PEs, so the suite-wide
   differentials never reach a ready set wider than one machine word.
   These tests pin the engine on image-pipeline at 72x54 (49 PEs) and
   96x72 (73 PEs), where sources block and the reference engine's
   retry polling makes it differ from [Sim] by design, so known-answer
   digests of the full result serve as the oracle instead. *)

open Block_parallel

let big_machine =
  let d = Machine.default in
  Machine.v ~max_pes:512 ~target_utilization:d.Machine.target_utilization
    ~multiplex_headroom:d.Machine.multiplex_headroom d.Machine.pe

let compile_pipeline ~w ~h ~n_frames =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v w h) ~rate:(Rate.hz 30.) ~n_frames ()
  in
  Pipeline.compile ~machine:big_machine inst.App.graph

(* Every simulated field of a result, floats printed exactly (hex), in a
   canonical order: the text the known-answer digests are taken of. *)
let signature_text (r : Sim.result) =
  let b = Stdlib.Buffer.create 4096 in
  let f x = Printf.bprintf b "%h;" x and i x = Printf.bprintf b "%d;" x in
  let assoc l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  f r.Sim.duration_s;
  i r.Sim.events_processed;
  Array.iter
    (fun (p : Sim.proc_stats) ->
      f p.Sim.run_s;
      f p.Sim.read_s;
      f p.Sim.write_s;
      i p.Sim.fires)
    r.Sim.procs;
  i r.Sim.input_stalls;
  i r.Sim.late_emissions;
  f r.Sim.max_input_lateness_s;
  List.iter
    (fun (id, ts) ->
      i id;
      List.iter f ts)
    (assoc r.Sim.sink_eofs);
  List.iter
    (fun (id, t) ->
      i id;
      f t)
    (assoc r.Sim.sink_first_data);
  List.iter
    (fun (id, (ns : Sim.node_stats)) ->
      i id;
      i ns.Sim.node_fires;
      f ns.Sim.node_busy_s)
    (assoc r.Sim.node_stats);
  List.iter
    (fun (c, d) ->
      i c;
      i d)
    (List.sort compare r.Sim.channel_depths);
  i r.Sim.leftover_items;
  i (Bool.to_int r.Sim.timed_out);
  Stdlib.Buffer.contents b

let digest r = Digest.to_hex (Digest.string (signature_text r))

(* (frame, policy) -> MD5 of [signature_text], the same with quasi-static
   dispatch on and off. *)
let known_answers =
  [
    ((72, 54), Plan.One_to_one, "d232197cf405f8f9c75ed42f6fd784bd");
    ((72, 54), Plan.Greedy, "2ac6ef8d8094b4e2cca81779908d3093");
    ((96, 72), Plan.One_to_one, "90caad262a991c6337065e3bf3445d5f");
    ((96, 72), Plan.Greedy, "d19c8dc39568e84acd7915fd54d5ae2d");
  ]

let test_known_answers () =
  List.iter
    (fun (w, h) ->
      let plan = compile_pipeline ~w ~h ~n_frames:2 in
      List.iter
        (fun ((w', h'), policy, expected) ->
          if w' = w && h' = h then
            List.iter
              (fun static ->
                let r = Plan.run_plan ~static ~policy plan () in
                let tag =
                  Printf.sprintf "%dx%d/%s/static=%b" w h
                    (Plan.policy_name policy) static
                in
                Alcotest.(check string) (tag ^ ": result digest") expected
                  (digest r))
              [ true; false ])
        known_answers)
    [ (72, 54); (96, 72) ]

(* Once a source blocks, the quasi-static engine elides wakes whose time
   the eager engine still steps its clock to; every record field but the
   static telemetry and the dispatcher's work count must still agree
   exactly, the frame birth times included. *)
let test_static_exact_when_blocking () =
  let plan = compile_pipeline ~w:72 ~h:54 ~n_frames:2 in
  List.iter
    (fun policy ->
      let st = Plan.run_plan ~static:true ~policy plan () in
      let dyn = Plan.run_plan ~static:false ~policy plan () in
      let tag = Plan.policy_name policy in
      Alcotest.(check bool) (tag ^ ": sources block") true
        (st.Sim.input_stalls > 0);
      Alcotest.(check bool) (tag ^ ": wakes were elided") true
        (st.Sim.static_elided_events > 0);
      let strip (r : Sim.result) =
        {
          r with
          Sim.static_regions = 0;
          static_fired = 0;
          static_indexed_fired = 0;
          static_fallback_events = 0;
          static_elided_events = 0;
          pe_visits = 0;
        }
      in
      Alcotest.(check (float 0.)) (tag ^ ": duration") dyn.Sim.duration_s
        st.Sim.duration_s;
      Alcotest.(check bool) (tag ^ ": every other field") true
        (strip st = strip dyn))
    [ Plan.One_to_one; Plan.Greedy ]

(* Engine work per event must not grow with the chip. Over the frame
   ladder 24x18 (11 PEs) -> 48x36 (24) -> 96x72 (73), processor visits
   per event stay within 1.5x of the smallest rung's figure, where a
   sweep over every PE per event grows about 3x. Quasi-static runs are
   normalized by the eager engine's event count too ([events_processed]
   counts the elided wakes): their processors are still visited. *)
let test_pe_visits_per_event_flat () =
  let ratio ~static (w, h) =
    let plan = compile_pipeline ~w ~h ~n_frames:2 in
    let r = Plan.run_plan ~static ~policy:Plan.One_to_one plan () in
    float_of_int r.Sim.pe_visits /. float_of_int r.Sim.events_processed
  in
  List.iter
    (fun static ->
      let base = ratio ~static (24, 18) in
      List.iter
        (fun (w, h) ->
          let r = ratio ~static (w, h) in
          if r > 1.5 *. base then
            Alcotest.failf
              "static=%b: %.2f PE visits per event at %dx%d, %.2f at 24x18"
              static r w h base)
        [ (48, 36); (96, 72) ])
    [ true; false ]

let suite =
  [
    Alcotest.test_case "known answers above 32 and 64 PEs" `Slow
      test_known_answers;
    Alcotest.test_case "quasi-static exact when sources block" `Slow
      test_static_exact_when_blocking;
    Alcotest.test_case "PE visits per event flat across the ladder" `Slow
      test_pe_visits_per_event_flat;
  ]
