(* The correctness gate behind [failed]: every request's simulated
   statistics against the preserved reference engine ([Sim_reference])
   run on the same plan, plus exact golden-image verification. *)

open Block_parallel

(* What a request must reproduce. Where no emitter blocks, the two
   engines agree bit for bit on everything here (the differential tests
   in test/ hold them to it). Once an emitter blocks, the reference
   engine retries on a quarter-period poll, so its input-stall and event
   counts are its own, and its times may differ in the last bits: late
   emissions and the verdict must still match exactly, and times within
   [rel_tol]. *)
type signature = {
  plan : string;  (** Digest of the elaborated graph and the mapping. *)
  duration : float;
  late : int;
  stalls : int;
  eofs : (int * float list) list;  (** Sorted by sink id. *)
  met : bool;
  frames : int;
  mean_interval : float;
  worst_interval : float;
  leftover : int;
  timed_out : bool;
  events : int;
  emitters_blocked : bool;
}

let rel_tol = 1e-9

let plan_digest (plan : Plan.t) ~policy =
  let groups = (Plan.mapped plan ~policy).Plan.groups in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d/%d/%s" (Graph.size plan.Plan.graph)
          (List.length (Graph.channels plan.Plan.graph))
          (String.concat ";"
             (List.map
                (fun g -> String.concat "," (List.map string_of_int g))
                groups))))

let signature (inst : App.instance) (plan : Plan.t) ~policy (r : Sim.result)
    =
  let v =
    Sim.real_time_verdict r ~expected_frames:inst.App.n_frames
      ~period_s:(App.period_s inst) ~allowed_leftover:inst.App.allowed_leftover
      ()
  in
  {
    plan = plan_digest plan ~policy;
    duration = r.Sim.duration_s;
    late = r.Sim.late_emissions;
    stalls = r.Sim.input_stalls;
    eofs = List.sort compare r.Sim.sink_eofs;
    met = v.Sim.met;
    frames = v.Sim.frames_delivered;
    mean_interval = v.Sim.mean_frame_interval_s;
    worst_interval = v.Sim.worst_frame_interval_s;
    leftover = r.Sim.leftover_items;
    timed_out = r.Sim.timed_out;
    events = r.Sim.events_processed;
    emitters_blocked = r.Sim.input_stalls > 0 || r.Sim.late_emissions > 0;
  }

(* [None] when [got] reproduces [want]; otherwise what differs. *)
let compare_signature ~(want : signature) (got : signature) =
  let exact = not want.emitters_blocked in
  let same_time a b =
    if exact then Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    else Float.abs (a -. b) <= rel_tol *. Float.max (Float.abs a) (Float.abs b)
  in
  let same_times a b =
    List.length a = List.length b && List.for_all2 same_time a b
  in
  let checks =
    [
      ("plan", want.plan = got.plan);
      ("duration_s", same_time want.duration got.duration);
      ("late emissions", want.late = got.late);
      ("input stalls", (not exact) || want.stalls = got.stalls);
      ( "sink EOF times",
        List.length want.eofs = List.length got.eofs
        && List.for_all2
             (fun (a, ta) (b, tb) -> a = b && same_times ta tb)
             want.eofs got.eofs );
      ( "real-time verdict",
        want.met = got.met && want.frames = got.frames
        && same_time want.mean_interval got.mean_interval
        && same_time want.worst_interval got.worst_interval );
      ("leftover items", want.leftover = got.leftover);
      ("time-out", want.timed_out = got.timed_out);
      ("events processed", (not exact) || want.events = got.events);
    ]
  in
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> None
  | bad -> Some ("differs from the reference in " ^ String.concat ", " (List.map fst bad))

(* {1 Reference files}

   One line per configuration, tab-separated: label, plan digest, then
   the statistics with floats in hex so they read back bit for bit. *)

let floats l = String.concat "," (List.map (Printf.sprintf "%h") l)

let parse_floats = function
  | "" -> []
  | s -> List.map float_of_string (String.split_on_char ',' s)

let write_reference path entries =
  let oc = open_out path in
  List.iter
    (fun (label, s) ->
      Printf.fprintf oc "%s\t%s\t%h\t%d\t%d\t%s\t%b\t%d\t%h\t%h\t%d\t%b\t%d\t%b\n"
        label s.plan s.duration s.late s.stalls
        (String.concat ";"
           (List.map (fun (id, ts) -> Printf.sprintf "%d:%s" id (floats ts)) s.eofs))
        s.met s.frames s.mean_interval s.worst_interval s.leftover s.timed_out
        s.events s.emitters_blocked)
    entries;
  close_out oc

let read_reference path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line when String.length line = 0 || line.[0] = '#' -> loop acc
    | line -> (
      match String.split_on_char '\t' line with
      | [ label; plan; duration; late; stalls; eofs; met; frames; mean; worst;
          leftover; timed_out; events; blocked ] ->
        let eofs =
          if eofs = "" then []
          else
            List.map
              (fun e ->
                match String.index_opt e ':' with
                | Some i ->
                  ( int_of_string (String.sub e 0 i),
                    parse_floats (String.sub e (i + 1) (String.length e - i - 1)) )
                | None -> failwith (path ^ ": malformed sink EOF list"))
              (String.split_on_char ';' eofs)
        in
        loop
          (( label,
             {
               plan;
               duration = float_of_string duration;
               late = int_of_string late;
               stalls = int_of_string stalls;
               eofs;
               met = bool_of_string met;
               frames = int_of_string frames;
               mean_interval = float_of_string mean;
               worst_interval = float_of_string worst;
               leftover = int_of_string leftover;
               timed_out = bool_of_string timed_out;
               events = int_of_string events;
               emitters_blocked = bool_of_string blocked;
             } )
          :: acc)
      | _ -> failwith (path ^ ": malformed reference line"))
  in
  loop []

(* The reference engine on a freshly built and compiled instance — its
   own behaviour state and sink collectors. *)
let reference_signature ~build ~machine ~policy =
  let inst = build () in
  let plan = Pipeline.compile ~machine inst.App.graph in
  let r =
    Sim_reference.run ~graph:plan.Plan.graph
      ~mapping:(Plan.mapping plan ~policy)
      ~machine ()
  in
  signature inst plan ~policy r

(* {1 Self-tests}

   A failing self-test means the measurement itself cannot be trusted:
   it ends the run without a result. *)

exception Self_test_failed of string

(* [Gc.minor_words ()] must count a fresh block of n fields as exactly
   n + 1 words (the header), once the cost of the reading itself is
   calibrated out. *)
let check_exact_allocation () =
  let delta f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = delta (fun () -> ()) in
  List.iter
    (fun n ->
      let d = delta (fun () -> ignore (Sys.opaque_identity (Array.make n 0))) in
      if d -. base <> float_of_int (n + 1) then
        raise @@ Self_test_failed
          (Printf.sprintf
             "allocation self-test: a %d-field block read as %.0f words" n
             (d -. base)))
    [ 1; 7; 64; 255 ]

(* A result off the reference by one late emission, a lost sink, a time
   beyond tolerance or, where the engines agree exactly, one ulp or one
   event must fail. *)
let check_perturbation_caught ~want inst plan ~policy (r : Sim.result) =
  let perturbed =
    [
      { r with Sim.duration_s = r.Sim.duration_s *. (1. +. 1e-6) };
      { r with Sim.late_emissions = r.Sim.late_emissions + 1 };
      { r with Sim.sink_eofs = [] };
    ]
    @
    if want.emitters_blocked then []
    else
      [
        { r with Sim.duration_s = Float.succ r.Sim.duration_s };
        { r with Sim.events_processed = r.Sim.events_processed + 1 };
      ]
  in
  List.iteri
    (fun i p ->
      if compare_signature ~want (signature inst plan ~policy p) = None then
        raise @@ Self_test_failed
          (Printf.sprintf "gate self-test: perturbation %d was not caught" i))
    perturbed
