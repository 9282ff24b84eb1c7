(** Beyond the paper's figures: the comparisons and ablations its
    conclusions and future-work section call for.

    - {!algorithms}: Chord vs Pastry (with proximity neighbor selection) vs
      HIERAS (2/3 layers) vs flat CAN vs HIERAS-over-CAN — the paper's
      future work names the Pastry comparison, and §3.2 sketches the CAN
      transplant.
    - the landmark ablation: how much of HIERAS's gain comes from {e where}
      landmarks sit (farthest-point spread vs uniform random) and how robust
      binning is to ping jitter (§2.2 says ping is "not very accurate").
    - the cost ablation: the quantitative overhead analysis (state bytes,
      ring tables, per-layer stabilize link cost) the paper defers to future
      work, across hierarchy depths.

    The two routing tables route a prefix of {!Runner.requests}:
    [max 100 (requests / 4)] requests for {!algorithms} and
    [max 100 (requests / 5)] for each landmark ablation row, summed in one
    sequential pass. *)

val algorithms : ?pool:Parallel.Pool.t -> Config.t -> Report.section

val all : ?pool:Parallel.Pool.t -> Config.t -> Report.section list
