open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Token = Bp_token.Token

let emissions_per_frame ~frame = Size.area frame

(* The worst-case burst of one scheduled emission: the last pixel of a
   frame is followed by its end-of-line and end-of-frame tokens in the
   same firing. The behaviour requires this much space on every emission
   (a conservative, position-independent guard, so an emission never
   half-completes), and declares it in the spec so the simulator can tell
   a space-blocked source from an exhausted one exactly. *)
let emission_burst = 3

let spec ?(emit_eol = true) ?(class_name = "Input") ~frame ~frames () =
  List.iter
    (fun img ->
      if not (Size.equal (Image.size img) frame) then
        Bp_util.Err.invalidf "source frame extent mismatch: got %s, want %s"
          (Size.to_string (Image.size img))
          (Size.to_string frame))
    frames;
  let make_behaviour () =
    let remaining = ref frames in
    let x = ref 0 and y = ref 0 and frame_idx = ref 0 in
    (* One emission may carry pixel + EOL + EOF. *)
    let emit (p : Behaviour.ports) =
      let img = List.hd !remaining in
      let pixel = p.ix_acquire Size.one in
      (* Raw move: the source fires once per pixel, so a boxed get/set pair
         here costs four words per event. *)
      Array.unsafe_set (Image.unsafe_data pixel) 0
        (Array.unsafe_get (Image.unsafe_data img) ((!y * frame.Size.w) + !x));
      p.ix_push 0 (Item.data pixel);
      let end_of_row = !x = frame.Size.w - 1 in
      let end_of_frame = end_of_row && !y = frame.Size.h - 1 in
      if end_of_row && emit_eol then p.ix_push 0 (Item.ctl (Token.eol !y));
      if end_of_frame then begin
        p.ix_push 0 (Item.ctl (Token.eof !frame_idx));
        x := 0;
        y := 0;
        incr frame_idx;
        remaining := List.tl !remaining
      end
      else if end_of_row then begin
        x := 0;
        incr y
      end
      else incr x
    in
    Behaviour.of_rules
      [
        One
          {
            name = "emit";
            cycles = 0;
            pops = [||];
            outs = [| 0 |];
            need = emission_burst;
            guard = (fun _ -> match !remaining with [] -> false | _ -> true);
            fire = emit;
          };
      ]
  in
  Spec.v ~role:Spec.Source ~class_name ~emission_burst ~inputs:[]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods:[] ~make_behaviour ()

let const ?(class_name = "Const") ~chunk () =
  let size = Image.size chunk in
  let window = Window.v ~step:(Step.of_size size) size in
  let make_behaviour () =
    let sent = ref false in
    Behaviour.of_rules
      [
        One
          {
            name = "emit";
            cycles = 0;
            pops = [||];
            outs = [| 0 |];
            need = 1;
            guard = (fun _ -> not !sent);
            fire =
              (fun p ->
                p.ix_push 0 (Item.data (Image.copy chunk));
                sent := true);
          };
      ]
  in
  Spec.v ~role:Spec.Const_source ~class_name ~inputs:[]
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()
