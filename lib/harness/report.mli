(** Reproduction verdict: checks the paper's qualitative claims against
    the measured results and prints a PASS/FAIL summary — the same
    checks the test suite enforces, rendered for humans at the end of
    [m3_repro run]. *)

type verdict = {
  claim : string;    (** what the paper says *)
  measured : string; (** what we got *)
  pass : bool;
}

(** {1 Per-figure claims}

    Each function checks the claims that one experiment's results
    cover; [m3_repro run] collects them from every experiment it ran. *)

val fig3_verdicts : Fig3.t -> verdict list
val fig4_verdicts : Fig4.point list -> verdict list
val fig5_verdicts : Fig5.row list -> verdict list

(** Empty when the sweep skipped the 16-instance point. *)
val fig6_verdicts : Fig6.curve list -> verdict list

val fig7_verdicts : Fig7.t -> verdict list
val t1_verdicts : Tables.t1 -> verdict list
val t2_verdicts : Tables.t2 -> verdict list

(** [print ppf vs] renders the "Reproduction summary (k/n claims hold)"
    block, one PASS/FAIL line per claim. *)
val print : Format.formatter -> verdict list -> unit

(** [print_obs ppf m] renders the counters and latency percentiles a
    traced run collected (event kinds, per-endpoint traffic, link
    occupancy/queueing, syscall and m3fs latency distributions). *)
val print_obs : Format.formatter -> M3_obs.Metrics.t -> unit
