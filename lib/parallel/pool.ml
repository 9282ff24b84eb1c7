(* A fixed-size domain pool. Workers park on a condition variable; each
   parallel region bumps [generation], publishes a chunk body and a chunk
   counter, and wakes everyone. Workers (and the caller, which participates)
   claim chunk indices from the shared counter under the mutex and run them
   unlocked; the last finished chunk wakes the caller. Regions are strictly
   sequential — a new one starts only after every chunk of the previous one
   completed — so a worker that wakes late simply sees a newer generation. *)

type t = {
  jobs : int;
  mutable domains : unit Domain.t list;
  m : Mutex.t;
  cv : Condition.t;
  mutable generation : int;
  mutable body : (int -> unit) option;
  mutable chunk_total : int;
  mutable next_chunk : int;
  mutable completed : int;
  mutable failure : exn option;
  mutable closed : bool;
  (* lifetime instrumentation, written only by the calling domain (regions
     are not reentrant, so this is race-free) *)
  mutable regions_run : int;
  mutable chunks_run : int;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Claim and run chunks of generation [gen] until none are left (or a newer
   generation appears). Lock held on entry and exit. *)
let execute_chunks t gen =
  while t.generation = gen && t.next_chunk < t.chunk_total do
    let i = t.next_chunk in
    t.next_chunk <- i + 1;
    let body = match t.body with Some f -> f | None -> ignore in
    Mutex.unlock t.m;
    let fail = (try body i; None with e -> Some e) in
    Mutex.lock t.m;
    (match fail with
    | Some e when t.failure = None && t.generation = gen -> t.failure <- Some e
    | _ -> ());
    t.completed <- t.completed + 1;
    if t.completed = t.chunk_total then Condition.broadcast t.cv
  done

let rec worker_loop t last_gen =
  Mutex.lock t.m;
  while (not t.closed) && t.generation = last_gen do
    Condition.wait t.cv t.m
  done;
  if t.closed then Mutex.unlock t.m
  else begin
    let gen = t.generation in
    execute_chunks t gen;
    Mutex.unlock t.m;
    worker_loop t gen
  end

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      domains = [];
      m = Mutex.create ();
      cv = Condition.create ();
      generation = 0;
      body = None;
      chunk_total = 0;
      next_chunk = 0;
      completed = 0;
      failure = None;
      closed = false;
      regions_run = 0;
      chunks_run = 0;
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let jobs t = t.jobs
let sequential = create ~jobs:1 ()

let shutdown t =
  if not t.closed then begin
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let export_metrics ?(prefix = "pool") t m =
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".jobs")) (float_of_int t.jobs);
  Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ ".regions")) t.regions_run;
  Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ ".chunks")) t.chunks_run

let run_chunks t ~count body =
  if count < 0 then invalid_arg "Pool.run_chunks: negative count";
  t.regions_run <- t.regions_run + 1;
  t.chunks_run <- t.chunks_run + count;
  if count > 0 then
    if t.jobs = 1 || count = 1 || t.closed then
      for i = 0 to count - 1 do
        body i
      done
    else begin
      Mutex.lock t.m;
      t.generation <- t.generation + 1;
      let gen = t.generation in
      t.body <- Some body;
      t.chunk_total <- count;
      t.next_chunk <- 0;
      t.completed <- 0;
      t.failure <- None;
      Condition.broadcast t.cv;
      execute_chunks t gen;
      while t.completed < t.chunk_total do
        Condition.wait t.cv t.m
      done;
      t.body <- None;
      let fail = t.failure in
      t.failure <- None;
      Mutex.unlock t.m;
      match fail with Some e -> raise e | None -> ()
    end

let chunk_bounds ~n ~count i =
  let base = n / count and rem = n mod count in
  let lo = (i * base) + min i rem in
  (lo, lo + base + if i < rem then 1 else 0)

let parallel_for t ~n f =
  if n < 0 then invalid_arg "Pool.parallel_for: negative n";
  let k = min t.jobs n in
  run_chunks t ~count:k (fun i ->
      let lo, hi = chunk_bounds ~n ~count:k i in
      for j = lo to hi - 1 do
        f j
      done)

let map_chunks t ~n ~chunk_size f =
  if chunk_size < 1 then invalid_arg "Pool.map_chunks: chunk_size must be >= 1";
  if n <= 0 then []
  else begin
    let k = ((n - 1) / chunk_size) + 1 in
    let parts = Array.make k None in
    run_chunks t ~count:k (fun i ->
        let lo = i * chunk_size in
        let hi = min n (lo + chunk_size) in
        parts.(i) <- Some (f ~lo ~hi));
    Array.to_list parts |> List.filter_map Fun.id
  end
