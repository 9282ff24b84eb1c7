(* Whether a settled request still holds its timeout's continuation. [watch
   k] returns [k] wrapped so that it alone holds a finalisable block, and
   the flag that block's finaliser sets; [released eng] runs a full major
   collection with [eng], and so its event queue, still alive, and reads
   the flag. *)

let watch k =
  let flag = ref false in
  let block = Bytes.create 64 in
  Gc.finalise (fun _ -> flag := true) block;
  ( flag,
    fun x ->
      ignore (Sys.opaque_identity block);
      k x )

let released eng flag =
  Gc.full_major ();
  ignore (Sys.opaque_identity eng);
  !flag

(* step [eng] one event at a time until [answered] *)
let run_until eng answered =
  let steps = ref 0 in
  while (not !answered) && !steps < 1_000_000 do
    Simnet.Engine.run ~max_events:1 eng;
    incr steps
  done
