open Bp_kernel
module Token = Bp_token.Token

type collector = {
  mutable closed_groups : Bp_image.Image.t list list;  (* newest first *)
  mutable current_group : Bp_image.Image.t list;  (* newest first *)
  mutable tokens_rev : Token.t list;
}

let collector () =
  { closed_groups = []; current_group = []; tokens_rev = [] }

let reset c =
  c.closed_groups <- [];
  c.current_group <- [];
  c.tokens_rev <- []

let chunks c =
  (* groups are stored newest-first both between and within groups *)
  List.rev c.current_group :: List.map List.rev c.closed_groups
  |> List.rev |> List.concat

let tokens c = List.rev c.tokens_rev

let chunks_between_frames c =
  let groups = List.rev_map List.rev c.closed_groups in
  if c.current_group = [] then groups else groups @ [ List.rev c.current_group ]

let eof_count c =
  List.length
    (List.filter (fun t -> t.Token.kind = Token.End_of_frame) (tokens c))

let spec ?(class_name = "Output") ~window c () =
  let make_behaviour () =
    reset c;
    Behaviour.of_rules
      [
        One
          {
            name = "consume";
            cycles = 0;
            pops = [| (0, Behaviour.k_any) |];
            outs = [||];
            need = 0;
            guard = Behaviour.always;
            fire =
              (fun p ->
                match p.ix_pop 0 with
                | Item.Data img -> c.current_group <- img :: c.current_group
                | Item.Ctl tok ->
                  c.tokens_rev <- tok :: c.tokens_rev;
                  if tok.Token.kind = Token.End_of_frame then begin
                    c.closed_groups <- c.current_group :: c.closed_groups;
                    c.current_group <- []
                  end);
          };
      ]
  in
  Spec.v ~role:Spec.Sink ~class_name
    ~inputs:[ Port.input "in" window ]
    ~outputs:[] ~methods:[] ~make_behaviour ()
