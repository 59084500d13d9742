open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Err = Bp_util.Err

let init ?(class_name = "Loop Init") ~window ~initial () =
  List.iter
    (fun img ->
      if not (Size.equal (Image.size img) window.Window.size) then
        Err.invalidf "feedback init: initial chunk %s does not match %s"
          (Size.to_string (Image.size img))
          (Size.to_string window.Window.size))
    initial;
  let make_behaviour () =
    let pending = ref (List.map Image.copy initial) in
    (* Self-driven while initial chunks remain; input-driven after. *)
    let drained _ = match !pending with [] -> true | _ :: _ -> false in
    Behaviour.of_rules
      [
        One
          {
            name = "emitInitial";
            cycles = 1;
            pops = [||];
            outs = [| 0 |];
            need = 1;
            guard = (fun p -> not (drained p));
            fire =
              (fun p ->
                p.ix_push 0 (Item.data (List.hd !pending));
                pending := List.tl !pending);
          };
        One
          {
            name = "forward";
            cycles = 1;
            pops = [| (0, Behaviour.k_data) |];
            outs = [| 0 |];
            need = 1;
            guard = drained;
            fire = (fun p -> p.ix_push 0 (p.ix_pop 0));
          };
        (* Tokens do not recirculate around the loop. *)
        One
          {
            name = "dropToken";
            cycles = 1;
            pops = [| (0, Behaviour.k_token) |];
            outs = [||];
            need = 0;
            guard = drained;
            fire = (fun p -> ignore (p.ix_pop 0));
          };
      ]
  in
  Spec.v ~role:Spec.Replicate ~class_name ~parallelization:Spec.Serial
    ~state_words:(Size.area window.Window.size * max 1 (List.length initial))
    ~inputs:[ Port.input "in" window ]
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()

let loop_combine ?(class_name = "Loop Combine") ?(cycles = 4) f =
  let make_behaviour () =
    Behaviour.of_rules
      [
        One
          {
            name = "combine";
            cycles;
            pops = [| (0, Behaviour.k_data); (1, Behaviour.k_any) |];
            outs = [| 0 |];
            need = 1;
            guard = Behaviour.always;
            fire =
              (fun p ->
                let a = Item.chunk_exn (p.ix_pop 0) in
                let b =
                  match p.ix_pop 1 with
                  | Item.Data b -> b
                  | Item.Ctl _ ->
                    Err.graphf "%s: unexpected token on the feedback input"
                      class_name
                in
                let out = p.ix_acquire (Image.size a) in
                Image.map2_into f a b ~dst:out;
                p.ix_push 0 (Item.data out);
                p.ix_release a;
                p.ix_release b);
          };
        (* Forward-path tokens pass straight through; the feedback input
           carries none. *)
        One
          {
            name = "forwardToken";
            cycles = 1;
            pops = [| (0, Behaviour.k_token) |];
            outs = [| 0 |];
            need = 1;
            guard = Behaviour.always;
            fire = (fun p -> p.ix_push 0 (p.ix_pop 0));
          };
      ]
  in
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"combine" ~inputs:[ "in0"; "in1" ]
        ~outputs:[ "out" ] ();
    ]
  in
  Spec.v ~class_name ~parallelization:Spec.Serial
    ~inputs:
      [ Port.input "in0" Window.pixel; Port.input "in1" Window.pixel ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods ~make_behaviour ()
