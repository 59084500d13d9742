(* Host speed, measured next to every untraced request.

   On a shared host the same code runs up to 1.5x slower from one second
   to the next and from one minute to the next, so a median of raw wall
   times moves with the host more than with the program. Each end-to-end
   time is therefore scaled by [nominal_s / measured], where [measured]
   is the mean time of a fixed loop run at the ends of the timed
   interval (before and after set-up; before and after simulation): it
   reads as the time the interval would take on a host where the loop
   takes [nominal_s], about its time on an idle 2-vCPU Xeon VM. The
   loop is this file's own code and calls nothing in lib/, so no change
   to the program moves it. Like the program it allocates heavily,
   promotes part of what it allocates and chases pointers through a hash
   table; of the loops tried, this one tracked the program's swings
   best. *)

let nominal_s = 0.022

(* One in eight blocks outlives its minor collection, as the program's
   channel items and image chunks do. *)
let survivors = Array.make 4096 [||]

let loop () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 150_000 do
    let k = i * 7919 land 4095 in
    let block = Array.make 6 (float_of_int i) in
    if i land 7 = 0 then survivors.(k) <- block;
    Hashtbl.replace h k block;
    acc :=
      !acc
      +.
      match Hashtbl.find_opt h (k * 31 land 4095) with
      | Some b -> b.(1) *. 0.5
      | None -> 1.
  done;
  ignore (Sys.opaque_identity !acc)

(* Time spent in [measure], so that a run can leave it out of its wall
   time. *)
let spent_ns = ref 0

(* Seconds one loop takes now. *)
let measure () =
  let t0 = Layers.now_ns () in
  loop ();
  let dt = Layers.now_ns () - t0 in
  spent_ns := !spent_ns + dt;
  Layers.s_of_ns dt

(* The factor for work done between the given measurements. *)
let scale measured =
  nominal_s *. float_of_int (List.length measured)
  /. List.fold_left ( +. ) 0. measured
